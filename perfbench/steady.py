"""Steadiness of the benchmark: run each workload on several seeds and summarise every metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
        [--trace 0|1] [--workloads certify screen ...]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric its median, first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the bound from BENCHMARK.json and a mark where the spread exceeds
a third of it. It also prints the share of failed operations per
workload. All results are written to perfbench/out/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1, dest="first_seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    results = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv_run = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)]
            started = time.perf_counter()
            done = subprocess.run(argv_run, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {time.perf_counter() - started:.1f} s,"
                  f" correct={runs[-1]['correct']}", file=sys.stderr)
        results[workload] = runs

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{stamp}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    print(f"{'workload':9} {'metric':22} {'median':>13} {'q1':>13} {'q3':>13} {'spread':>7} bound")
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed shares {shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else f"{bound}" + (" WIDE" if spread > bound / 3 else "")
            print(f"{workload:9} {name:22} {median:13.6g} {q1:13.6g} {q3:13.6g} {spread:7.3f} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
