"""Shared helpers for the test suite.

Tests that need randomness build their own ``numpy.random.default_rng``
with an explicit seed so every run sees the same inputs. Hypothesis runs
under one profile, loaded here: derandomized, no example database and no
deadline, so every run draws the same examples; tests set only their
``max_examples``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import settings

from dsslab import (
    METHOD_FIRST,
    METHOD_THIRD,
    SignedSumDistribution,
    VectorSequence,
    closed_form_s1,
    closed_form_s3,
    radius_for_count,
)

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


def recomputed_finite_bound(n: int, k: int, method: str) -> float | None:
    """A finite-form bound rebuilt from radius_for_count and the S1/S3 closed
    forms, independently of dsslab.bounds; None for the variance method."""
    if method == METHOD_FIRST:
        return radius_for_count(n, k, 1) * 2.0**n / ((k + 1) * float(closed_form_s1(n)))
    if method == METHOD_THIRD:
        return radius_for_count(n, k, 3) * (
            2.0 ** (n + 3) / ((k + 3) * 8.0 * float(closed_form_s3(n)))
        ) ** (1.0 / 3.0)
    return None


def full_support_power_sum(dist: SignedSumDistribution, p: int) -> int:
    """sum over dist's whole support of count * |value|^p, an exact integer:
    the full 2^n-entry power sum that exact_moment's half pairing replaces."""
    values, counts = dist.values.tolist(), dist.counts.tolist()
    return sum(c * abs(v) ** p for v, c in zip(values, counts))


def conway_guy(n: int) -> VectorSequence:
    """The Conway-Guy set {u_n - u_(n-i) : 1 <= i <= n} as a k = 1 sequence;
    its 2^n subset sums are distinct (Bohman 1996), so each coordinate's
    signed-sum support has all 2^n entries."""
    u = [0, 1]
    for m in range(1, n):
        u.append(2 * u[m] - u[m - round(math.sqrt(2 * m))])
    values = [u[n] - u[n - i] for i in range(1, n + 1)]
    return VectorSequence(n, 1, max(values, default=0), tuple((v,) for v in values))
