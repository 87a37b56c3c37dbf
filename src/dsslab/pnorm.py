"""Continuous p-norm ball geometry and discrete lattice-shell enumeration.

The continuous side: volume and surface of the p-norm ball in R^k and the
radius whose ball holds a prescribed count. The discrete side: enumerate
the 2^n lattice points of Z^k closest to the origin in p-norm and compare
their exact p-power-norm sum against the continuum prediction

    (k/(k+p)) * 2^n * R^p,   V_{k,p}(R) = 2^n.

The quotient of the two (`continuum_ratio`) measures how well the
continuum approximation does at finite n; it is exactly 1 in the k = p = 1
case and approaches 1 elsewhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "GAMMA_DOMAIN",
    "gamma_fn",
    "log_gamma",
    "gamma_root",
    "ball_volume",
    "ball_surface",
    "radius_for_count",
    "LatticeShellSummary",
    "lattice_shell_enumerate",
    "lattice_shell_points",
    "lattice_count_check",
    "max_enumerable_n",
    "DEFAULT_ENUM_BUDGET",
]

# Candidate lattice points examined per call, cumulative over box growth.
DEFAULT_ENUM_BUDGET = 1 << 22

# Supported argument range for the Gamma evaluations, the window the tests
# check against the standard library and mpmath. Gamma itself overflows a
# double above x ~ 171.6, so callers needing k-th roots of larger values go
# through gamma_root, which falls back to log space there.
GAMMA_DOMAIN = (0.05, 500.0)

# Largest p-power norm the int64 box arrays can hold.
_INT64_MAX = np.iinfo(np.int64).max


def _check_gamma_domain(x: float) -> None:
    lo, hi = GAMMA_DOMAIN
    if not (lo <= x <= hi):
        raise ValueError(f"gamma argument {x} outside supported range [{lo}, {hi}]")


def _exact_gamma(x: float):
    """Exact value at integer and half-integer arguments, else None.

    Returns (rational, with_sqrt_pi): the value is rational, times sqrt(pi)
    when the flag is set. Detection is by exact float equality, so only
    arguments given exactly as m or m + 1/2 short-circuit.
    """
    doubled = 2.0 * x
    if doubled != round(doubled):
        return None
    m2 = int(round(doubled))
    if m2 % 2 == 0:
        n = m2 // 2
        if n < 1:
            return None
        return Fraction(math.factorial(n - 1)), False
    m = (m2 - 1) // 2
    if m < 0:
        return None
    # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), True


def log_gamma(x: float) -> float:
    """log Gamma(x) on the supported domain."""
    _check_gamma_domain(x)
    return math.lgamma(x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for 0.05 <= x <= 500.

    Integer and half-integer arguments short-circuit to exact factorial
    arithmetic (rounded once on conversion to float); everything else goes
    through math.gamma. Raises OverflowError where the true value exceeds
    the double range (x above roughly 171.6); use log_gamma or gamma_root
    there.
    """
    _check_gamma_domain(x)
    exact = _exact_gamma(x)
    try:
        if exact is None:
            value = math.gamma(x)
        else:
            frac, with_sqrt_pi = exact
            value = float(frac)
            if with_sqrt_pi:
                value *= math.sqrt(math.pi)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise OverflowError(f"Gamma({x}) exceeds double range")
    return value


def gamma_root(x: float, r: int) -> float:
    """Gamma(x)^(1/r) without overflow, for integer r >= 1.

    Roots gamma_fn(x) while that is finite, so gamma_root(x, 1) equals
    gamma_fn(x) bit for bit; beyond the double range it evaluates in log
    space. This is the path the bound coefficients use for (k!)^(1/k) at
    large k.
    """
    if r < 1:
        raise ValueError(f"root order must be >= 1, got {r}")
    try:
        return gamma_fn(x) ** (1.0 / r)
    except OverflowError:
        return math.exp(log_gamma(x) / r)


def ball_volume(k: int, p: int, r: float) -> float:
    """Volume of {x in R^k : ||x||_p <= r}.

    V = (2 Gamma(1 + 1/p))^k / Gamma(1 + k/p) * r^k.
    """
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    unit = (2.0 * gamma_fn(1.0 + 1.0 / p)) ** k / gamma_fn(1.0 + k / p)
    return unit * r**k


def ball_surface(k: int, p: int, r: float) -> float:
    """Surface measure of the p-norm ball boundary: k * V(r) / r."""
    if r <= 0:
        raise ValueError(f"surface needs positive radius, got {r}")
    return k * ball_volume(k, p, r) / r


def radius_for_count(n: int, k: int, p: int) -> float:
    """Radius R with V_{k,p}(R) = 2^n.

    R = 2^(n/k) * Gamma(1 + k/p)^(1/k) / (2 Gamma(1 + 1/p)).

    The k = 1 case collapses to 2^(n-1) for every p; the evaluation order
    below preserves that exactly in floating point, which the k = p = 1
    exactness checks rely on.
    """
    if n < 0:
        raise ValueError(f"count exponent must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    return 2.0 ** (n / k) * gamma_root(1.0 + k / p, k) / (2.0 * gamma_fn(1.0 + 1.0 / p))


@dataclass(frozen=True)
class LatticeShellSummary:
    """Result of selecting the 2^n origin-closest points of Z^k.

    discrete_sum is the exact integer sum of p-power norms over the
    selection. boundary_norm_power is the p-power norm of the farthest
    selected point, so r_discrete = boundary_norm_power^(1/p).
    continuum_ratio compares discrete_sum against
    (k/(k+p)) * 2^n * r_continuous^p; it is None for n = 0, where the
    selection is the origin alone and the comparison degenerates.
    """

    n: int
    k: int
    p: int
    count: int
    discrete_sum: int
    boundary_norm_power: int
    r_discrete: float
    r_continuous: float
    continuum_ratio: float | None


def _validate_lattice_args(k: int, p: int) -> None:
    if not (1 <= k <= 8):
        raise ValueError(f"lattice enumeration supports 1 <= k <= 8, got {k}")
    if p < 1 or p != int(p):
        raise ValueError(f"norm exponent must be a positive integer, got {p}")


def _box_norms(t: int, k: int, p: int) -> np.ndarray:
    """p-power norms of every point of the box [-t, t]^k, as exact int64.

    The largest norm is k * t^p. When that does not fit in int64 the box is
    refused with BudgetExceededError before anything is allocated. Only a
    single norm has to fit: lattice_shell_enumerate adds the selected norms
    up exactly.
    """
    largest = k * t**p
    if largest > _INT64_MAX:
        raise BudgetExceededError("int64 lattice norms", largest, _INT64_MAX)
    side = np.abs(np.arange(-t, t + 1, dtype=np.int64)) ** p
    norms = side
    for _ in range(k - 1):
        norms = (norms[:, None] + side[None, :]).ravel()
    return norms


def _grow_box(n: int, k: int, p: int, budget: int, what: str) -> tuple[int, np.ndarray]:
    """First box side t on the growth path whose t-ball holds 2^n points.

    Returns t and the p-power norms of the points in that t-ball.

    Boxes [-t, t]^k grow from just past the continuum radius by half their
    side per step, keeping points with norm^p <= t^p; any lattice point
    with p-norm <= t lies inside the box, so each kept ball is complete.
    The budget counts box points cumulatively across growth steps and is
    checked before each box is built.
    """
    count = 1 << n
    spent = 0
    t = max(1, math.ceil(radius_for_count(n, k, p)) + 1)
    while True:
        spent += (2 * t + 1) ** k
        if spent > budget:
            raise BudgetExceededError(what, spent, budget)
        norms = _box_norms(t, k, p)
        inside = norms[norms <= t**p]
        if inside.size >= count:
            return t, inside
        t += max(1, t // 2)


def lattice_shell_enumerate(
    n: int, k: int, p: int, budget: int = DEFAULT_ENUM_BUDGET
) -> LatticeShellSummary:
    """Select the 2^n points of Z^k closest to the origin in p-norm.

    Ties on the boundary shell contribute count * v* to the sum, so no
    per-point tie-break is needed here (the points path below realizes the
    deterministic order when identities matter). Budget counts candidate
    box points, cumulative across growth steps (see _grow_box).
    """
    if n < 0:
        raise ValueError(f"count exponent must be nonnegative, got {n}")
    _validate_lattice_args(k, p)
    _, inside = _grow_box(n, k, p, budget, "lattice box enumeration")
    count = 1 << n
    inside = np.sort(inside)
    vstar = int(inside[count - 1])
    below = int(np.searchsorted(inside[:count], vstar, side="left"))
    # The total can pass 2^63 (k = 1, p = 3 reaches about 2^79), so the
    # nonnegative norms are summed as high and low 32-bit halves; neither
    # partial sum can wrap below 2^31 entries.
    sel = inside[:below]
    total = (int((sel >> 32).sum()) << 32) + int((sel & 0xFFFFFFFF).sum())
    total += (count - below) * vstar
    r_cont = radius_for_count(n, k, p)
    if n == 0:
        ratio = None
    else:
        ratio = total / ((k / (k + p)) * count * r_cont**p)
    return LatticeShellSummary(
        n=n,
        k=k,
        p=p,
        count=count,
        discrete_sum=total,
        boundary_norm_power=vstar,
        r_discrete=vstar ** (1.0 / p),
        r_continuous=r_cont,
        continuum_ratio=ratio,
    )


def lattice_shell_points(
    n: int, k: int, p: int, budget: int = DEFAULT_ENUM_BUDGET
) -> list[tuple[tuple[int, ...], int]]:
    """The selected points themselves, as (point, norm^p) pairs.

    Pure-Python reference path over the final box of _grow_box. Order is
    the deterministic tie-break: ascending exact p-power norm, then
    lexicographic on coordinates. Intended for cross-checking the
    vectorized summary at small sizes.
    """
    if n < 0:
        raise ValueError(f"count exponent must be nonnegative, got {n}")
    _validate_lattice_args(k, p)
    t, _ = _grow_box(n, k, p, budget, "lattice point enumeration")
    cutoff = t**p
    kept = []
    for point in itertools.product(range(-t, t + 1), repeat=k):
        norm = sum(abs(c) ** p for c in point)
        if norm <= cutoff:
            kept.append((point, norm))
    kept.sort(key=lambda item: (item[1], item[0]))
    return kept[: 1 << n]


def lattice_count_check(k: int, p: int, r: float, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Relative discrepancy between the lattice count in the r-ball and its volume.

    Returns |#{s in Z^k : ||s||_p <= r} - V_{k,p}(r)| / V_{k,p}(r).
    """
    _validate_lattice_args(k, p)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    t = math.floor(r)
    box = (2 * t + 1) ** k
    if box > budget:
        raise BudgetExceededError("lattice count enumeration", box, budget)
    if r == math.floor(r):
        cutoff = int(r) ** p
    else:
        # boundary shells sit at integer norms; nudge past float powering error
        cutoff = math.floor(r**p * (1.0 + 1e-12))
    count = int((_box_norms(t, k, p) <= cutoff).sum())
    vol = ball_volume(k, p, r)
    return abs(count - vol) / vol


def max_enumerable_n(k: int, p: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Largest n whose shell enumeration fits the budget and the int64 norms.

    Grows the same boxes as lattice_shell_enumerate with increasing n until
    the budget or the norm guard trips, so the answer is exactly consistent
    with it, without sorting or summing any shell.
    """
    _validate_lattice_args(k, p)
    n = 0
    while True:
        try:
            _grow_box(n + 1, k, p, budget, "lattice box enumeration")
        except BudgetExceededError:
            return n
        n += 1
