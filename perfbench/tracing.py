"""Spans around the calls into the program's public functions, and the per-layer metrics derived from them.

The worker wraps, from outside the program, every plain function that a
layer lists in `__all__`, under every name any dsslab module bound it to
(so `bounds.radius_for_count` is wrapped as well as
`pnorm.radius_for_count`). Generator functions are left alone: a span
around one would close before the walk it drives, and that walk is
already inside the caller's span. Spans stay in memory until the loop
ends and are then written out in one file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("cli", "sequences", "moments", "pnorm", "bounds", "combinatorics")
GAMMA = ("pnorm.gamma_fn", "pnorm.log_gamma", "pnorm.gamma_root")


# What a span keeps of its call beyond its times, cheap facts only: from
# the arguments before the call, or from the result after it returns.
_ARG_NOTES = {
    "pnorm.lattice_shell_enumerate": lambda n, k, p, budget=None: [n, k, p, budget],
}
_RESULT_NOTES = {
    "sequences.verify_distinct": lambda args, res: [args[0].n, res is None],
    "sequences.min_m_search": lambda args, res: res.nodes,
    "moments.signed_sum_distribution": lambda args, res: len(res.support),
    "moments.mc_estimate": lambda args, res: res.samples,
}


class Tracer:
    """Records spans as [name, start, end, parent index, note, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        arg_note = _ARG_NOTES.get(name)
        result_note = _RESULT_NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, False]
            spans.append(span)
            stack.append(index)
            if arg_note is not None:
                span[4] = arg_note(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if result_note is not None:
                span[4] = result_note(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dsslab.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "dsslab" and not modname.startswith("dsslab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, rounds: int, overhead_s: float, lattice_points) -> dict[str, float]:
    """Per-layer metrics of one traced run; counts and times are per round.

    lattice_points(n, k, p, budget) gives the candidate box points one
    lattice_shell_enumerate call examined.
    """
    layers = layer_self_ms(spans, rounds)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def per_round_ms(indices):
        return sum(dur(i) for i in indices) / rounds * 1e3

    verify = [i for i in by_name.get("sequences.verify_distinct", []) if not spans[i][5]]
    passed = [i for i in verify if spans[i][4][1]]
    rejected = [i for i in verify if not spans[i][4][1]]
    search = by_name.get("sequences.min_m_search", [])
    dp = by_name.get("moments.signed_sum_distribution", [])
    mc = by_name.get("moments.mc_estimate", [])
    lattice = by_name.get("pnorm.lattice_shell_enumerate", [])
    gamma = [i for name in GAMMA for i in by_name.get(name, [])]
    gamma_outer = [i for i in gamma if spans[i][3] < 0 or spans[spans[i][3]][0] not in GAMMA]

    search_s = sum(dur(i) for i in search)
    nodes = sum(spans[i][4] or 0 for i in search)
    mc_s = sum(dur(i) for i in mc)
    lattice_s = sum(dur(i) for i in lattice)
    points = sum(lattice_points(*spans[i][4]) for i in lattice)
    return {
        "verify.pass_ms": _median_ms([dur(i) for i in passed]),
        "verify.sums_per_s": _rate(sum(1 << spans[i][4][0] for i in passed),
                                   sum(dur(i) for i in passed)),
        "verify.reject_ms": _median_ms([dur(i) for i in rejected]),
        "verify.calls": len(by_name.get("sequences.verify_distinct", [])) / rounds,
        "search.nodes": nodes / rounds,
        "search.nodes_per_s": _rate(nodes, search_s),
        "search.ms": search_s / rounds * 1e3,
        "dp.calls": len(dp) / rounds,
        "dp.support": sum(spans[i][4] or 0 for i in dp) / rounds,
        "dp.ms": per_round_ms(dp),
        "mc.samples_per_s": _rate(sum(spans[i][4] or 0 for i in mc), mc_s),
        "mc.ms": mc_s / rounds * 1e3,
        "lattice.calls": len(lattice) / rounds,
        "lattice.points_per_s": _rate(points, lattice_s),
        "lattice.ms": lattice_s / rounds * 1e3,
        "lattice.max_n_ms": per_round_ms(by_name.get("pnorm.max_enumerable_n", [])),
        "gamma.calls": len(gamma) / rounds,
        "gamma.ms": per_round_ms(gamma_outer),
        "bounds.ms": layers["bounds"],
        "combinatorics.ms": layers["combinatorics"],
        "cli.self_ms": layers["cli"],
        "trace.overhead_s": overhead_s,
    }


def layer_self_ms(spans, rounds: int) -> dict[str, float]:
    """Self time of every layer, in ms per round."""
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for t, span in zip(own, spans):
        totals[span[0].split(".")[0]] += t
    return {layer: t / rounds * 1e3 for layer, t in totals.items()}
