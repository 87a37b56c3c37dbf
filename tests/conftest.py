"""Shared helpers for the test suite.

Tests that need randomness build their own ``numpy.random.default_rng``
with an explicit seed so every run sees the same inputs. Hypothesis runs
under one profile, loaded here: derandomized, no example database and no
deadline, so every run draws the same examples; tests set only their
``max_examples``.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
from hypothesis import settings

import workloads
from dsslab import (
    METHOD_FIRST,
    METHOD_THIRD,
    BudgetExceededError,
    Collision,
    MomentValue,
    SignedSumDistribution,
    VectorSequence,
    closed_form_sum,
    iter_gray_subset_sums,
    radius_for_count,
)
from dsslab.pnorm import DEFAULT_ENUM_BUDGET, _box_side, _validate_lattice_args

settings.register_profile("dsslab", deadline=None, derandomize=True, database=None)
settings.load_profile("dsslab")


def random_sequence(rng: np.random.Generator, n: int, k: int, bound: int) -> VectorSequence:
    """Draw a sequence with components uniform on [0, bound].

    Zero vectors and duplicates are allowed; the verifier is expected to
    cope with whatever this produces.
    """

    vectors = tuple(
        tuple(int(c) for c in rng.integers(0, bound + 1, size=k)) for _ in range(n)
    )
    return VectorSequence(n, k, bound, vectors)


def subset_total(seq: VectorSequence, indices) -> tuple:
    total = [0] * seq.k
    for i in indices:
        for j in range(seq.k):
            total[j] += seq.vectors[i][j]
    return tuple(total)


def gray_first_collision_by_dict(seq: VectorSequence, budget: int) -> Collision | None:
    """_gray_first_collision as one dict probe per Gray-walk sum: its oracle.

    Looks at the first `budget` sums of iter_gray_subset_sums and returns
    the first repeat with the earlier subset of the same sum; refuses, with
    the walk's message, a budget that ends short of a repeat and of 2^n.
    """
    seen = {}
    for mask, packed in itertools.islice(iter_gray_subset_sums(seq), budget):
        other = seen.setdefault(packed, mask)
        if other != mask:
            first, second = (
                tuple(i for i in range(seq.n) if m >> i & 1) for m in (other, mask)
            )
            return Collision(first=first, second=second, total=subset_total(seq, second))
    if budget < 1 << seq.n:
        raise BudgetExceededError(f"Gray walk saw {budget} subset sums and no repeat", None, budget)
    return None


def recomputed_finite_bound(n: int, k: int, method: str) -> float | None:
    """A finite-form bound rebuilt from radius_for_count and the T_1/T_3 closed
    forms, independently of dsslab.bounds; None for the variance method."""
    if method == METHOD_FIRST:
        return radius_for_count(n, k, 1) * 2.0 ** (n + 1) / ((k + 1) * float(closed_form_sum(n, 1)))
    if method == METHOD_THIRD:
        return radius_for_count(n, k, 3) * (
            2.0 ** (n + 3) / ((k + 3) * float(closed_form_sum(n, 3)))
        ) ** (1.0 / 3.0)
    return None


def full_support_power_sum(dist: SignedSumDistribution, p: int) -> int:
    """sum over dist's whole support of count * |value|^p, an exact integer:
    the full 2^n-entry power sum that exact_moment's half pairing replaces."""
    values, counts = dist.values.tolist(), dist.counts.tolist()
    return sum(c * abs(v) ** p for v, c in zip(values, counts))


def support_dict(dist: SignedSumDistribution) -> dict[int, int]:
    """dist as a value -> count dict of Python ints, to compare with a tally."""
    return dict(zip(dist.values.tolist(), dist.counts.tolist()))


def conway_guy(n: int) -> VectorSequence:
    """The Conway-Guy set {u_n - u_(n-i) : 1 <= i <= n} as a k = 1 sequence;
    its 2^n subset sums are distinct (Bohman 1996), so each coordinate's
    signed-sum support has all 2^n entries."""
    values = workloads.conway_guy(n)
    return VectorSequence(n, 1, max(values, default=0), tuple((v,) for v in values))


def typed_fields(result) -> list[tuple[type, object]]:
    """result's fields, or result itself, each beside its type: equal lists
    mean equal results of the same types, so an int is not a float."""
    fields = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
    return [(type(field), field) for field in fields]


def lattice_shell_points(
    n: int, k: int, p: int, budget: int = DEFAULT_ENUM_BUDGET
) -> list[tuple[tuple[int, ...], int]]:
    """The 2^n selected shell points themselves, as (point, norm^p) pairs:
    the pure-Python full-box oracle for lattice_shell_enumerate's slice core.

    Loops over the box of _box_side, so budget refusals match the core's.
    Order is the deterministic tie-break: ascending exact p-power norm,
    then lexicographic on coordinates.
    """
    if n < 0:
        raise ValueError(f"count exponent must be nonnegative, got {n}")
    p = _validate_lattice_args(k, p)
    t, _ = _box_side(n, k, p, budget, "lattice point enumeration")
    cutoff = t**p
    kept = []
    for point in itertools.product(range(-t, t + 1), repeat=k):
        norm = sum(abs(c) ** p for c in point)
        if norm <= cutoff:
            kept.append((point, norm))
    kept.sort(key=lambda item: (item[1], item[0]))
    return kept[: 1 << n]


def mc_estimate_by_matmul(seq: VectorSequence, p: float, samples: int, seed: int) -> MomentValue:
    """mc_estimate as a float matmul: the oracle for its table lookups.

    Draws the signs with rng.integers in blocks of 2^15 rows, as +-1
    floats, and multiplies them into the float matrix of the sequence.
    Exact, and so order-free, while every coordinate sum is at most 2^53.
    """
    rng = np.random.default_rng(seed)
    matrix = np.asarray(seq.vectors, dtype=np.float64).reshape(seq.n, seq.k)
    values = np.empty(samples, dtype=np.float64)
    for done in range(0, samples, 1 << 15):
        block = min(1 << 15, samples - done)
        signs = rng.integers(0, 2, size=(block, seq.n)).astype(np.float64) * 2.0 - 1.0
        values[done : done + block] = (np.abs((signs @ matrix) * 0.5) ** p).sum(axis=1)
    stderr = None if samples == 1 else float(values.std(ddof=1) / np.sqrt(samples))
    return MomentValue(
        p=p, value=float(values.mean()), provenance="monte_carlo", stderr=stderr, samples=samples
    )
