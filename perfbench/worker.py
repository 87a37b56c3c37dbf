"""One workload as a closed loop: one client, each job starts when the last ends.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T --result PATH [--trace-out PATH] [--setup-only]

Set-up (imports, input generation, input files) ends at the first job;
its length is measured from T, the CLOCK_MONOTONIC reading the parent took
just before it started this process. With --setup-only the worker exits
there. Otherwise the loop runs whole rounds until S seconds have passed,
and peak RSS is read when the loop ends, before anything else runs. With
--trace-out, one untraced warm-up round runs first, then each round runs
untraced and traced, and the spans of the traced passes are written to
that path afterwards. Results go to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

# dsslab is imported from the source tree, inside build_jobs, so
# that its import counts as set-up.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _cli_job(cli, configs):
    def job():
        return [[r.code, r.stdout] for r in map(cli.run, configs)]
    return job


def _certify_jobs(seed: int, workdir: Path):
    from dsslab import cli

    jobs = {}
    for index in range(workloads.CERTIFY_POOL_ROUNDS * len(workloads.CERTIFY_ROUND_KS)):
        k, bound, vectors = workloads.certify_candidate(seed, index)
        path = workdir / f"candidate-{index}.txt"
        lines = [f"{workloads.CERTIFY_N} {k} {bound}"] + [" ".join(map(str, v)) for v in vectors]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        f = str(path)
        argvs = [["verify", "--file", f, "--format", "json"]]
        argvs += [["moments", "--file", f, "--p", str(p), "--format", "json"] for p in (1, 2, 3)]
        argvs.append(["moments", "--file", f, "--p", "3", "--format", "json",
                      "--samples", str(workloads.CERTIFY_MC_SAMPLES),
                      "--seed", str(workloads.certify_mc_seed(seed, index))])
        jobs[("certify", index)] = _cli_job(cli, [cli.build_config(a) for a in argvs])
    return jobs


def _screen_jobs(seed: int):
    from dsslab import sequences

    def job_for(seq):
        def job():
            c = sequences.verify_distinct(seq)
            return None if c is None else [list(c.first), list(c.second), list(c.total)]
        return job

    jobs = {}
    for index, (k, bound, vectors) in enumerate(workloads.screen_candidates(seed)):
        seq = sequences.VectorSequence(n=workloads.SCREEN_N, k=k, bound=bound, vectors=vectors)
        jobs[("screen", index)] = job_for(seq)
    return jobs


def _shell_jobs(seed: int):
    from dsslab import cli, pnorm

    def max_n(k, p):
        return lambda: pnorm.max_enumerable_n(k, p)

    jobs = {}
    for kind, args in workloads.shell_round(seed):
        if kind == "lattice":
            k, p, n = args
            argv = ["lattice-check", "--n", str(n), "--k", str(k), "--p", str(p), "--format", "json"]
            jobs[("lattice", k, p, n)] = _cli_job(cli, [cli.build_config(argv)])
        elif kind == "max_n":
            jobs[("max_n", *args)] = max_n(*args)
        elif kind == "sweep":
            argvs = [["search", "--n", str(n), "--k", str(k), "--format", "json"] for n, k in args]
            jobs[("sweep",)] = _cli_job(cli, [cli.build_config(a) for a in argvs])
        else:
            lo, hi = workloads.SHELL_CROSSOVER_K
            argvs = [["crossover", "--k-min", str(lo), "--k-max", str(hi), "--format", "json"]]
            argvs += [["bounds", "--n", str(n), "--k", str(k), "--format", "json"] for n, k in args]
            jobs[("table",)] = _cli_job(cli, [cli.build_config(a) for a in argvs])
    return jobs


def build_jobs(workload: str, seed: int, workdir: Path):
    if workload == "certify":
        return _certify_jobs(seed, workdir)
    if workload == "screen":
        return _screen_jobs(seed)
    return _shell_jobs(seed)


def run_rounds(workload: str, seed: int, jobs, seconds: float, tracer=None):
    """Closed loop over whole rounds until `seconds` have passed.

    Returns (rounds, records). With a tracer, each round runs twice, once
    untraced and once traced, in alternating order, so the two passes see
    the same inputs under the same conditions.
    """
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        passes = (False,) if tracer is None else (r % 2 == 1, r % 2 == 0)
        for traced in passes:
            if traced:
                tracer.install()
            for key in workloads.round_keys(workload, seed, r):
                t0 = time.perf_counter()
                try:
                    output, ok = jobs[key](), True
                except Exception as exc:  # a failed job is counted, not fatal
                    output, ok = f"{type(exc).__name__}: {exc}", False
                records.append({"key": list(key), "s": time.perf_counter() - t0,
                                "traced": traced, "ok": ok, "output": output})
            if traced:
                tracer.uninstall()
        r += 1
        if time.perf_counter() - start >= seconds:
            return r, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None, dest="trace_out")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args(argv)

    workdir = args.result.parent / f"inputs-{args.result.stem}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = build_jobs(args.workload, args.seed, workdir)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at}
    if not args.setup_only:
        tracer = None
        if args.trace_out is not None:
            import tracing

            tracer = tracing.Tracer()
            # One untraced round first, so that neither pass of the first
            # pair pays for the process warming up.
            result["warmup_records"] = run_rounds(args.workload, args.seed, jobs, 0)[1]
        rounds, records = run_rounds(args.workload, args.seed, jobs, args.seconds, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(rounds=rounds, peak_rss_kb=peak_kb, records=records)
        if tracer is not None:
            tracer.write(args.trace_out)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
