"""Command-line interface: bounds, crossover, lattice-check, verify, search, moments, report.

Every command renders to text, CSV, or JSON (--format), writes to stdout
or a single configured output path (--out), and maps outcomes to exit
codes: 0 success, 1 property refuted (a collision, or a finite-form bound
exceeding a searched minimum), 2 usage error, 3 resource budget exceeded.

Each command names one tuple of columns and reads them off its result
dataclass. The picked rows feed one table renderer for text and CSV, and
the same dicts become the rows or fields of the JSON object. Every command
renders through `_emit`; `verify` and `search` pass it their text output,
which is not a table, and it stands in for the table under --format text.

Output is a pure function of the parsed configuration: the same RunConfig
produces byte-identical bytes, which the test suite asserts. Diagnostic
notes (regime disagreements) go to stderr so machine-read streams stay
clean.
"""

from __future__ import annotations

import argparse
import functools
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
    function of this plus the content of `file` when one is named. Its
    defaults are the only defaults of the CLI's options."""

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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _table(header: tuple[str, ...], rows: list[dict], fmt: str) -> str:
    """CSV, or a left-aligned text table with "-" for empty cells."""
    cells = [[_cell(row[name]) for name in header] for row in rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in [header, *cells])
    cells = [[c or "-" for c in line] for line in cells]
    widths = [max([len(h)] + [len(line[i]) for line in cells]) for i, h in enumerate(header)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
        for line in [header, *cells]
    )


def _pick(obj, columns: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in columns}


def _emit(
    config: RunConfig, columns, rows, fields, code: int = 0, notes=(), text: str | None = None
) -> CommandResult:
    """Render `rows` (dicts keyed by `columns`) as a CSV or text table, or
    `fields` as the command's JSON object; `text`, when given, is the
    output under --format text in place of the table."""
    if config.fmt == "json":
        payload = {"command": config.command, **fields}
        text = json.dumps(
            payload, sort_keys=True, indent=2, default=_json_default, allow_nan=False
        ) + "\n"
    elif config.fmt == "csv" or text is None:
        text = _table(columns, rows, config.fmt)
    return CommandResult(text, tuple(notes), code)


def _budget(config: RunConfig) -> dict:
    """The budget keyword of a library call: none without --budget, so the
    library's own default holds."""
    return {} if config.budget is None else {"budget": config.budget}


def _cmd_bounds(config: RunConfig) -> CommandResult:
    methods = _bounds.METHOD_TOKENS if config.method == "all" else (config.method,)
    columns = ("method", "coefficient", "asymptotic_bound", "finite_bound")
    rows = [_pick(_bounds.lower_bound(config.n, config.k, m), columns) for m in methods]
    return _emit(config, columns, rows, {"n": config.n, "k": config.k, "rows": rows})


def _cmd_crossover(config: RunConfig) -> CommandResult:
    table = _bounds.crossover_table(config.k_min, config.k_max)
    disagreements = _bounds.regime_disagreements(table)
    notes = [
        f"note: k={k} computed argmax {computed} differs from published regime {published}"
        for k, computed, published in disagreements
    ]
    columns = ("k", "c_first", "c_third", "c_variance", "argmax")
    rows = [_pick(r, columns) for r in table]
    fields = {
        "rows": rows,
        "disagreements": [
            {"k": k, "computed": computed, "published": published}
            for k, computed, published in disagreements
        ],
    }
    return _emit(config, columns, rows, fields, notes=notes)


def _cmd_lattice_check(config: RunConfig) -> CommandResult:
    if config.radius is not None:
        disc = _pnorm.lattice_count_check(config.k, config.p, config.radius, **_budget(config))
        # The library took p as an integer, 2.0 as 2, and the row shows it so.
        row = {"k": config.k, "p": int(config.p), "radius": config.radius, "relative_discrepancy": disc}
        return _emit(config, tuple(row), [row], row)
    summary = _pnorm.lattice_shell_enumerate(config.n, config.k, config.p, **_budget(config))
    columns = (
        "n", "k", "p", "count", "discrete_sum",
        "boundary_norm_power", "r_discrete", "r_continuous", "continuum_ratio",
    )
    fields = _pick(summary, columns)
    # The ratio is undefined at n = 0: a word in a table cell, null in JSON.
    row = dict(fields)
    if row["continuum_ratio"] is None:
        row["continuum_ratio"] = "undefined"
    return _emit(config, columns, [row], fields)


def _load_sequence(path: str) -> _sequences.VectorSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return _sequences.VectorSequence.from_text(fh.read())


def _cmd_verify(config: RunConfig) -> CommandResult:
    seq = _load_sequence(config.file)
    collision = _sequences.verify_distinct(seq)
    columns = ("status", "first", "second", "total")
    if collision is None:
        row = {**dict.fromkeys(columns), "status": "pass"}
        fields = {"status": "pass", "n": seq.n, "k": seq.k}
        return _emit(config, columns, [row], fields, text="pass\n")
    # Index and sum lists are space-joined in a cell and stay lists in JSON.
    fields = {"status": "collision", **{c: list(getattr(collision, c)) for c in columns[1:]}}
    row = {**fields, **{c: " ".join(map(str, fields[c])) for c in columns[1:]}}
    text = (
        "collision: two subsets share a sum (indices zero-based)\n"
        f"first:  {{{row['first']}}}\n"
        f"second: {{{row['second']}}}\n"
        f"sum:    ({row['total']})\n"
    )
    return _emit(config, columns, [row], fields, code=1, text=text)


def _cmd_search(config: RunConfig) -> CommandResult:
    outcome = _sequences.min_m_search(config.n, config.k, **_budget(config))
    witness = outcome.witness
    if witness is None:
        text = (
            f"search exhausted its node budget: every M < {outcome.refuted_below} is refuted,"
            f" no witness yet ({outcome.nodes} nodes)\n"
        )
    else:
        text = (
            f"m_min = {outcome.m_min} (exhaustive, {outcome.nodes} nodes)\n"
            "witness in sequence file format:\n"
            + witness.to_text()
        )
    columns = ("n", "k", "m_min", "exhaustive", "refuted_below", "nodes")
    row = _pick(outcome, columns)
    fields = {
        **row,
        "witness": None
        if witness is None
        else {**_pick(witness, ("n", "k", "bound")), "vectors": [list(v) for v in witness.vectors]},
    }
    return _emit(config, columns, [row], fields, code=0 if outcome.exhaustive else 3, text=text)


def _cmd_moments(config: RunConfig) -> CommandResult:
    seq = _load_sequence(config.file)
    if config.samples is None:
        value = _moments.exact_moment(seq, config.p, **_budget(config))
    else:
        value = _moments.mc_estimate(seq, config.p, config.samples, config.seed)
    columns = ("p", "value", "stderr", "samples", "provenance")
    row = _pick(value, columns)
    fields = {"n": seq.n, "k": seq.k, **row}
    if value.provenance == "monte_carlo":
        fields["seed"] = config.seed
    return _emit(config, columns, [row], fields)


def _cmd_report(config: RunConfig) -> CommandResult:
    report = _sequences.bound_vs_search_report(config.n, config.k, **_budget(config))
    columns = (
        "method", "finite_bound", "asymptotic_bound", "m_min", "baseline_m",
        "finite_violation", "asymptotic_exceeds",
    )
    rows = [_pick(row, columns) for row in report.rows]
    # m_min and baseline_m are the same on every row; JSON states them once.
    fields = {
        **_pick(report, ("n", "k", "m_min", "baseline_m", "any_violation")),
        "rows": [
            {c: v for c, v in row.items() if c not in ("m_min", "baseline_m")} for row in rows
        ],
    }
    notes = [
        f"note: asymptotic bound of {row.method} exceeds m_min at this size (informational)"
        for row in report.rows
        if row.asymptotic_exceeds and not row.finite_violation
    ]
    return _emit(config, columns, rows, fields, code=1 if report.any_violation else 0, notes=notes)


_HANDLERS = {
    "bounds": _cmd_bounds,
    "crossover": _cmd_crossover,
    "lattice-check": _cmd_lattice_check,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "moments": _cmd_moments,
    "report": _cmd_report,
}


def _int_arg(ok, wording: str):
    """The argparse type of an int that passes `ok`: any other text is
    refused with an ArgumentTypeError in `wording`, which argparse prints
    as it is."""

    def convert(text: str) -> int:
        try:
            value = int(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{wording}, got {text}")

    return convert


_positive_int = _int_arg(lambda v: v >= 1, "must be a positive integer")
_nonnegative_int = _int_arg(lambda v: v >= 0, "must be a nonnegative integer")
_seed_u64 = _int_arg(lambda v: 0 <= v < 1 << 64, "seed must fit in 64 bits")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Sharing it is safe: each parse_args call fills a fresh Namespace, and
    no argument has a default or an append action.
    """
    parser = argparse.ArgumentParser(
        prog="dsslab",
        description="Distinct-subset-sum laboratory: bounds, lattice checks, verification, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="lower bounds on M for one (n, k)")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--method", choices=_bounds.METHOD_TOKENS + ("all",))

    sp = sub.add_parser("crossover", help="coefficient comparison table over a range of k")
    sp.add_argument("--k-min", type=_positive_int, required=True, dest="k_min")
    sp.add_argument("--k-max", type=_positive_int, required=True, dest="k_max")

    sp = sub.add_parser("lattice-check", help="discrete vs continuum shell comparison")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=_nonnegative_int, help="select the 2^n closest lattice points")
    mode.add_argument("--radius", type=float,
                      help="count-vs-volume check at this radius instead of a shell summary")
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--budget", type=_positive_int,
                    help="candidate point budget for the enumeration")

    sp = sub.add_parser("verify", help="check a sequence file for distinct subset sums")
    sp.add_argument("--file", required=True, help="sequence file: `n k M`, then n lines of k integers")

    sp = sub.add_parser("search", help="exhaustive minimal-M search at desk scale")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--budget", type=_positive_int,
                    help=f"visited-node budget (default {_sequences.DEFAULT_NODE_BUDGET})")

    sp = sub.add_parser("moments", help="exact or Monte Carlo moment of a sequence file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--p", type=float, required=True,
                    help="moment order; exact path needs integer 1, 2, or 3")
    sp.add_argument("--samples", type=_positive_int,
                    help="sample count, at most 2^27; presence selects the Monte Carlo path")
    sp.add_argument("--seed", type=_seed_u64, help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--budget", type=_positive_int,
                    help="signed-sum support entries per half of a coordinate's entries for the exact path")

    sp = sub.add_parser("report", help="bounds vs searched minimum for one (n, k)")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--budget", type=_positive_int)

    # Every command takes --format and --out, after its own options.
    for sp in sub.choices.values():
        sp.add_argument("--format", choices=_FORMATS, dest="fmt")
        sp.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def build_config(argv) -> RunConfig:
    """Parse argv into an immutable RunConfig. Exits with code 2 on usage errors.

    Options left out parse to None and are not passed, so RunConfig's
    defaults are the CLI's. Cheap to call repeatedly: every call reuses the
    one cached parser.
    """
    values = vars(_build_parser().parse_args(argv))
    return RunConfig(**{name: v for name, v in values.items() if v is not None})


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
