"""dsslab benchmark: one workload, one closed-loop client, outputs checked apart from the program.

    python3 perfbench/run.py --workload {certify,screen,shell}
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree. The workload runs in its own worker
process (perfbench/worker.py) that imports dsslab from src/. With
--trace 0 the end-to-end metrics are reported; set-up is measured
SETUP_SAMPLES times in fresh processes and its median is reported. With
--trace 1 the worker runs whole rounds for S/2 seconds, each round once
untraced and once traced, and the per-layer metrics come from the traced
passes. Every output is checked afterwards by perfbench/checks.py,
which never imports dsslab. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One worker process runs the load; the others only set up and exit, half
# of them before the load and half after it.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

def run_worker(args, tag: str, seconds: float, trace_out=None, setup_only=False):
    """Start one worker, wait for it to end, and return its result."""
    result = args.workdir / f"{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--result", str(result)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    # The worker's stdout goes to our stderr: our stdout carries only the result line.
    subprocess.run(argv, cwd=ROOT, stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(args):
    half = (SETUP_SAMPLES - 1) // 2
    probes = [run_worker(args, f"setup-{i}", 0, setup_only=True) for i in range(half)]
    load = run_worker(args, "load", args.seconds)
    probes += [run_worker(args, f"setup-{i}", 0, setup_only=True)
               for i in range(half, SETUP_SAMPLES - 1)]
    times = [r["s"] for r in load["records"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + [load]),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": load["peak_rss_kb"] / 1024,
    }
    return load["records"], metrics


def per_layer(args):
    spans_path = args.workdir / "spans.json"
    run = run_worker(args, "traced", args.seconds / 2, trace_out=spans_path)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    rounds = run["rounds"]
    untraced_s = sum(r["s"] for r in run["records"] if not r["traced"])
    traced_s = sum(r["s"] for r in run["records"] if r["traced"])
    metrics = tracing.layer_metrics(spans, rounds, traced_s - untraced_s, checks.lattice_points)
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
        "layer_self_ms_per_round": tracing.layer_self_ms(spans, rounds),
        "metrics": metrics, "spans": spans,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(summary), encoding="utf-8")
    return run["warmup_records"] + run["records"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dsslab" / "__init__.py").is_file():
        print(f"error: no dsslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    args.workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    args.workdir.mkdir(parents=True)
    try:
        records, metrics = (per_layer if args.trace else end_to_end)(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    problems = checks.check_records(args.workload, args.seed, records)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    failures = [r for r in records if not r["ok"]]
    for record in failures[:20]:
        print(f"job failed: {record['key']}: {record['output']}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
