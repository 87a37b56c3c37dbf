"""Command-line interface: bounds, crossover, lattice-check, verify, search, moments, report.

Every command renders to text, CSV, or JSON (--format), writes to stdout
or a single configured output path (--out), and maps outcomes to exit
codes: 0 success, 1 property refuted (a collision, or a finite-form bound
exceeding a searched minimum), 2 usage error, 3 resource budget exceeded.

Output is a pure function of the parsed configuration: the same RunConfig
produces byte-identical bytes, which the test suite asserts. Diagnostic
notes (regime disagreements) go to stderr so machine-read streams stay
clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as _bounds
from . import moments as _moments
from . import pnorm as _pnorm
from . import sequences as _sequences
from .errors import BudgetExceededError

__all__ = ["DEFAULT_SEED", "RunConfig", "build_config", "run", "main"]

# Fixed published default seed so bare invocations are reproducible.
DEFAULT_SEED = 1729

_FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on. Immutable; output is a pure
    function of this plus the content of `file` when one is named."""

    command: str
    fmt: str = "text"
    out: str | None = None
    n: int | None = None
    k: int | None = None
    p: float | None = None
    k_min: int | None = None
    k_max: int | None = None
    method: str = "all"
    file: str | None = None
    radius: float | None = None
    samples: int | None = None
    seed: int = DEFAULT_SEED
    budget: int | None = None


@dataclass(frozen=True)
class CommandResult:
    stdout: str
    notes: tuple[str, ...]
    code: int


def _fmt_float(x: float) -> str:
    return f"{x:.9g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _text_table(header: list[str], rows: list[list]) -> str:
    cells = [[_cell(v) if _cell(v) else "-" for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render(config: RunConfig, header: list[str], rows: list[list], payload) -> str:
    if config.fmt == "csv":
        return _csv(header, rows)
    if config.fmt == "json":
        return _json(payload)
    return _text_table(header, rows)


def _cmd_bounds(config: RunConfig) -> CommandResult:
    methods = _bounds.METHOD_TOKENS if config.method == "all" else (config.method,)
    reports = [_bounds.lower_bound(config.n, config.k, m) for m in methods]
    header = ["method", "coefficient", "asymptotic_bound", "finite_bound"]
    rows = [[r.method, r.coefficient, r.asymptotic_bound, r.finite_bound] for r in reports]
    payload = {
        "command": "bounds",
        "n": config.n,
        "k": config.k,
        "rows": [
            {
                "method": r.method,
                "coefficient": r.coefficient,
                "asymptotic_bound": r.asymptotic_bound,
                "finite_bound": r.finite_bound,
            }
            for r in reports
        ],
    }
    return CommandResult(_render(config, header, rows, payload), (), 0)


def _cmd_crossover(config: RunConfig) -> CommandResult:
    table = _bounds.crossover_table(config.k_min, config.k_max)
    notes = tuple(
        f"note: k={k} computed argmax {computed} differs from published regime {published}"
        for k, computed, published in _bounds.regime_disagreements(table)
    )
    if config.fmt == "csv":
        return CommandResult(_bounds.format_crossover_csv(table), notes, 0)
    header = ["k", "c_first", "c_third", "c_variance", "argmax"]
    rows = [[r.k, r.c_first, r.c_third, r.c_variance, r.argmax] for r in table]
    payload = {
        "command": "crossover",
        "rows": [
            {
                "k": r.k,
                "c_first": r.c_first,
                "c_third": r.c_third,
                "c_variance": r.c_variance,
                "argmax": r.argmax,
            }
            for r in table
        ],
        "disagreements": [
            {"k": k, "computed": computed, "published": published}
            for k, computed, published in _bounds.regime_disagreements(table)
        ],
    }
    return CommandResult(_render(config, header, rows, payload), notes, 0)


def _cmd_lattice_check(config: RunConfig) -> CommandResult:
    budget = config.budget if config.budget is not None else _pnorm.DEFAULT_ENUM_BUDGET
    p = int(config.p)
    if config.radius is not None:
        disc = _pnorm.lattice_count_check(config.k, p, config.radius, budget=budget)
        header = ["k", "p", "radius", "relative_discrepancy"]
        rows = [[config.k, p, config.radius, disc]]
        payload = {
            "command": "lattice-check",
            "k": config.k,
            "p": p,
            "radius": config.radius,
            "relative_discrepancy": disc,
        }
        return CommandResult(_render(config, header, rows, payload), (), 0)
    summary = _pnorm.lattice_shell_enumerate(config.n, config.k, p, budget=budget)
    ratio = summary.continuum_ratio
    header = [
        "n", "k", "p", "count", "discrete_sum",
        "boundary_norm_power", "r_discrete", "r_continuous", "continuum_ratio",
    ]
    rows = [[
        summary.n, summary.k, summary.p, summary.count, summary.discrete_sum,
        summary.boundary_norm_power, summary.r_discrete, summary.r_continuous,
        "undefined" if ratio is None else ratio,
    ]]
    payload = {
        "command": "lattice-check",
        "n": summary.n,
        "k": summary.k,
        "p": summary.p,
        "count": summary.count,
        "discrete_sum": summary.discrete_sum,
        "boundary_norm_power": summary.boundary_norm_power,
        "r_discrete": summary.r_discrete,
        "r_continuous": summary.r_continuous,
        "continuum_ratio": ratio,
    }
    return CommandResult(_render(config, header, rows, payload), (), 0)


def _load_sequence(path: str) -> _sequences.VectorSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return _sequences.VectorSequence.from_text(fh.read())


def _cmd_verify(config: RunConfig) -> CommandResult:
    seq = _load_sequence(config.file)
    collision = _sequences.verify_distinct(seq)
    if collision is None:
        payload = {"command": "verify", "status": "pass", "n": seq.n, "k": seq.k}
        if config.fmt == "json":
            return CommandResult(_json(payload), (), 0)
        if config.fmt == "csv":
            return CommandResult(_csv(["status", "first", "second", "total"],
                                      [["pass", None, None, None]]), (), 0)
        return CommandResult("pass\n", (), 0)
    first = " ".join(str(i) for i in collision.first)
    second = " ".join(str(i) for i in collision.second)
    total = " ".join(str(c) for c in collision.total)
    payload = {
        "command": "verify",
        "status": "collision",
        "first": list(collision.first),
        "second": list(collision.second),
        "total": list(collision.total),
    }
    if config.fmt == "json":
        return CommandResult(_json(payload), (), 1)
    if config.fmt == "csv":
        return CommandResult(
            _csv(["status", "first", "second", "total"],
                 [["collision", f"{first}", f"{second}", f"{total}"]]), (), 1)
    text = (
        "collision: two subsets share a sum (indices zero-based)\n"
        f"first:  {{{first}}}\n"
        f"second: {{{second}}}\n"
        f"sum:    ({total})\n"
    )
    return CommandResult(text, (), 1)


def _cmd_search(config: RunConfig) -> CommandResult:
    budget = config.budget if config.budget is not None else _sequences.DEFAULT_NODE_BUDGET
    outcome = _sequences.min_m_search(config.n, config.k, budget=budget)
    payload = {
        "command": "search",
        "n": outcome.n,
        "k": outcome.k,
        "m_min": outcome.m_min,
        "exhaustive": outcome.exhaustive,
        "refuted_below": outcome.refuted_below,
        "nodes": outcome.nodes,
        "witness": None
        if outcome.witness is None
        else {
            "n": outcome.witness.n,
            "k": outcome.witness.k,
            "bound": outcome.witness.bound,
            "vectors": [list(v) for v in outcome.witness.vectors],
        },
    }
    header = ["n", "k", "m_min", "exhaustive", "refuted_below", "nodes"]
    rows = [[outcome.n, outcome.k, outcome.m_min, outcome.exhaustive,
             outcome.refuted_below, outcome.nodes]]
    code = 0 if outcome.exhaustive else 3
    if config.fmt == "json":
        return CommandResult(_json(payload), (), code)
    if config.fmt == "csv":
        return CommandResult(_csv(header, rows), (), code)
    if outcome.witness is None:
        text = (
            f"search exhausted its node budget: every M < {outcome.refuted_below} is refuted,"
            f" no witness yet ({outcome.nodes} nodes)\n"
        )
    else:
        text = (
            f"m_min = {outcome.m_min} (exhaustive, {outcome.nodes} nodes)\n"
            "witness in sequence file format:\n"
            + outcome.witness.to_text()
        )
    return CommandResult(text, (), code)


def _cmd_moments(config: RunConfig) -> CommandResult:
    seq = _load_sequence(config.file)
    if config.samples is None:
        p = config.p
        if p != int(p):
            raise ValueError(f"exact moments need integer p in {{1,2,3}}, got {p}")
        budget = config.budget if config.budget is not None else _moments.DEFAULT_TABLE_BUDGET
        value = _moments.exact_moment(seq, int(p), budget=budget)
    else:
        value = _moments.mc_estimate(seq, config.p, config.samples, config.seed)
    header = ["p", "value", "stderr", "samples", "provenance"]
    rows = [[value.p, value.value, value.stderr, value.samples, value.provenance]]
    payload = {
        "command": "moments",
        "n": seq.n,
        "k": seq.k,
        "p": value.p,
        "value": value.value,
        "stderr": value.stderr,
        "samples": value.samples,
        "provenance": value.provenance,
    }
    if value.provenance == "monte_carlo":
        payload["seed"] = config.seed
    return CommandResult(_render(config, header, rows, payload), (), 0)


def _cmd_report(config: RunConfig) -> CommandResult:
    budget = config.budget if config.budget is not None else _sequences.DEFAULT_NODE_BUDGET
    report = _sequences.bound_vs_search_report(config.n, config.k, budget=budget)
    header = [
        "method", "finite_bound", "asymptotic_bound", "m_min", "baseline_m",
        "finite_violation", "asymptotic_exceeds",
    ]
    rows = [
        [row.method, row.finite_bound, row.asymptotic_bound, row.m_min,
         row.baseline_m, row.finite_violation, row.asymptotic_exceeds]
        for row in report.rows
    ]
    payload = {
        "command": "report",
        "n": report.n,
        "k": report.k,
        "m_min": report.m_min,
        "baseline_m": report.baseline_m,
        "rows": [
            {
                "method": row.method,
                "finite_bound": row.finite_bound,
                "asymptotic_bound": row.asymptotic_bound,
                "finite_violation": row.finite_violation,
                "asymptotic_exceeds": row.asymptotic_exceeds,
            }
            for row in report.rows
        ],
        "any_violation": report.any_violation,
    }
    notes = tuple(
        f"note: asymptotic bound of {row.method} exceeds m_min at this size (informational)"
        for row in report.rows
        if row.asymptotic_exceeds and not row.finite_violation
    )
    code = 1 if report.any_violation else 0
    return CommandResult(_render(config, header, rows, payload), notes, code)


_HANDLERS = {
    "bounds": _cmd_bounds,
    "crossover": _cmd_crossover,
    "lattice-check": _cmd_lattice_check,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "moments": _cmd_moments,
    "report": _cmd_report,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed_u64(text: str) -> int:
    value = int(text)
    if not (0 <= value < 1 << 64):
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsslab",
        description="Distinct-subset-sum laboratory: bounds, lattice checks, verification, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=_FORMATS, default="text", dest="fmt")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")

    sp = sub.add_parser("bounds", help="lower bounds on M for one (n, k)")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--method", choices=_bounds.METHOD_TOKENS + ("all",), default="all")
    common(sp)

    sp = sub.add_parser("crossover", help="coefficient comparison table over a range of k")
    sp.add_argument("--k-min", type=_positive_int, required=True, dest="k_min")
    sp.add_argument("--k-max", type=_positive_int, required=True, dest="k_max")
    common(sp)

    sp = sub.add_parser("lattice-check", help="discrete vs continuum shell comparison")
    sp.add_argument("--n", type=int, default=None, help="select the 2^n closest lattice points")
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--radius", type=float, default=None,
                    help="count-vs-volume check at this radius instead of a shell summary")
    sp.add_argument("--budget", type=_positive_int, default=None,
                    help="candidate point budget for the enumeration")
    common(sp)

    sp = sub.add_parser("verify", help="check a sequence file for distinct subset sums")
    sp.add_argument("--file", required=True, help="sequence file: `n k M`, then n lines of k integers")
    common(sp)

    sp = sub.add_parser("search", help="exhaustive minimal-M search at desk scale")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--budget", type=_positive_int, default=None,
                    help=f"visited-node budget (default {_sequences.DEFAULT_NODE_BUDGET})")
    common(sp)

    sp = sub.add_parser("moments", help="exact or Monte Carlo moment of a sequence file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--p", type=float, required=True,
                    help="moment order; exact path needs integer 1, 2, or 3")
    sp.add_argument("--samples", type=_positive_int, default=None,
                    help="sample count; presence selects the Monte Carlo path")
    sp.add_argument("--seed", type=_seed_u64, default=DEFAULT_SEED,
                    help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--budget", type=_positive_int, default=None,
                    help="signed-sum support entries per coordinate for the exact path")
    common(sp)

    sp = sub.add_parser("report", help="bounds vs searched minimum for one (n, k)")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--budget", type=_positive_int, default=None)
    common(sp)

    return parser


def build_config(argv) -> RunConfig:
    """Parse argv into an immutable RunConfig. Exits with code 2 on usage errors."""
    args = _build_parser().parse_args(argv)
    values = vars(args)
    if values["command"] == "lattice-check" and values.get("n") is None and values.get("radius") is None:
        _build_parser().error("lattice-check needs --n or --radius")
    if values["command"] == "lattice-check" and values.get("n") is not None and values["n"] < 0:
        _build_parser().error("--n must be nonnegative")
    fields = {f: values[f] for f in RunConfig.__dataclass_fields__ if f in values}
    return RunConfig(**fields)


def run(config: RunConfig) -> CommandResult:
    """Execute one command. Pure given the config and any named input file."""
    return _HANDLERS[config.command](config)


def main(argv=None) -> int:
    try:
        config = build_config(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        result = run(config)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in result.notes:
        print(note, file=sys.stderr)
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(result.stdout)
    else:
        sys.stdout.write(result.stdout)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
