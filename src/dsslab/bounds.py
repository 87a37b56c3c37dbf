"""Lower-bound coefficients on the minimal bound M and method comparison.

Three statistical routes give lower bounds of the common shape

    M >= (1 + o(1)) * c(k) * 2^(n/k) / sqrt(n)

for length-n sequences in Z^k with all subset sums distinct. Each route
bounds a different moment of the signed sum X = sum eps_i a_i / 2 with
random signs: the first absolute moment, the third absolute moment, and
the variance. This module evaluates the three coefficients c(k), the
asymptotic bounds, and finite-n counterparts of the first two routes, and
picks the numerically best method per dimension.

The finite-n forms are heuristic, so they are reported alongside the
asymptotic bound, never instead of it. The moment sums T_p(n) on the
sequence side are exact; the heuristic step is the lattice side, which
uses the continuum term (k/(k+p)) * 2^n * R^p (R from radius_for_count) in
place of the discrete minimum of sum ||x||_p^p over 2^n distinct points of
the half-integer coset of Z^k that the values of X lie in. That term can
exceed the true minimum: at k = 1, p = 3 it exceeds the minimum over
Z + 1/2 by 2^(2n)/16, a factor 2 at n = 1, where the third-moment
finite form is 2^(1/3) while the true minimal M is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import scaled_abs_moment_sum
from .pnorm import gamma_fn, gamma_root, radius_for_count

__all__ = [
    "METHOD_FIRST",
    "METHOD_THIRD",
    "METHOD_VARIANCE",
    "METHOD_TOKENS",
    "coeff_first",
    "coeff_third",
    "coeff_variance",
    "BoundReport",
    "lower_bound",
    "MethodComparison",
    "best_method",
    "crossover_table",
    "published_regime",
    "regime_disagreements",
]

METHOD_FIRST = "first_moment"
METHOD_THIRD = "third_moment"
METHOD_VARIANCE = "variance"
METHOD_TOKENS = (METHOD_FIRST, METHOD_THIRD, METHOD_VARIANCE)

# Methods by moment order (1, 2, 3); ties in best_method break toward lower p.
_METHOD_ORDER = (METHOD_FIRST, METHOD_VARIANCE, METHOD_THIRD)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")


def coeff_first(k: int) -> float:
    """First-moment coefficient sqrt(pi/2) * (k!)^(1/k) / (k + 1)."""
    _check_k(k)
    return math.sqrt(math.pi / 2.0) * gamma_root(k + 1.0, k) / (k + 1)


def coeff_third(k: int) -> float:
    """Third-moment coefficient (pi/8)^(1/6) * Gamma((k+3)/3)^(1/k) / ((k+3)^(1/3) * Gamma(4/3))."""
    _check_k(k)
    lead = (math.pi / 8.0) ** (1.0 / 6.0)
    return lead * gamma_root((k + 3.0) / 3.0, k) / ((k + 3.0) ** (1.0 / 3.0) * gamma_fn(4.0 / 3.0))


def coeff_variance(k: int) -> float:
    """Variance coefficient sqrt(4 / (pi (k + 2))) * Gamma(k/2 + 1)^(1/k).

    Strictly decreasing in k, from 3^(-1/2) at k = 1 down toward the
    Stirling limit sqrt(2/(e*pi)).
    """
    _check_k(k)
    return math.sqrt(4.0 / (math.pi * (k + 2.0))) * gamma_root(k / 2.0 + 1.0, k)


_COEFF_FN = {
    METHOD_FIRST: coeff_first,
    METHOD_THIRD: coeff_third,
    METHOD_VARIANCE: coeff_variance,
}


@dataclass(frozen=True)
class BoundReport:
    """One method's lower bound on M for a given (n, k).

    coefficient is c(k); asymptotic_bound is c(k) * 2^(n/k) / sqrt(n) when
    n is given. finite_bound is the finite-n form, populated for the first-
    and third-moment methods only. It is heuristic because it uses the
    continuum lattice term in place of the discrete minimum, which can
    overshoot (2^(1/3) against M_min = 1 at n = k = 1 for the third moment;
    see module docstring).
    """

    method: str
    k: int
    n: int | None
    coefficient: float
    asymptotic_bound: float | None
    finite_bound: float | None


def _finite_first(n: int, k: int) -> float:
    r = radius_for_count(n, k, 1)
    denom = (k + 1) * n * math.comb(n - 1, (n - 1) // 2)
    return r * (2.0**n) / float(denom)


def _finite_third(n: int, k: int) -> float:
    r = radius_for_count(n, k, 3)
    t3 = scaled_abs_moment_sum(n, 3).value
    return r * (2.0 ** (n + 3) / ((k + 3) * float(t3))) ** (1.0 / 3.0)


def lower_bound(n: int, k: int, method: str) -> BoundReport:
    """Lower bound on M for length-n sequences in Z^k via one method."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    _check_k(k)
    if method not in _COEFF_FN:
        raise ValueError(f"unknown method {method!r}, expected one of {METHOD_TOKENS}")
    coeff = _COEFF_FN[method](k)
    asymptotic = coeff * 2.0 ** (n / k) / math.sqrt(n)
    if method == METHOD_FIRST:
        finite = _finite_first(n, k)
    elif method == METHOD_THIRD:
        finite = _finite_third(n, k)
    else:
        finite = None
    return BoundReport(
        method=method,
        k=k,
        n=n,
        coefficient=coeff,
        asymptotic_bound=asymptotic,
        finite_bound=finite,
    )


_COEFF_FIELD = {METHOD_FIRST: "c_first", METHOD_THIRD: "c_third", METHOD_VARIANCE: "c_variance"}


@dataclass(frozen=True)
class MethodComparison:
    """All three coefficients at one dimension plus the computed argmax."""

    k: int
    c_first: float
    c_third: float
    c_variance: float
    argmax: str

    def coefficient(self, method: str) -> float:
        if method not in _COEFF_FIELD:
            raise ValueError(f"unknown method {method!r}")
        return getattr(self, _COEFF_FIELD[method])


def best_method(k: int) -> MethodComparison:
    """The numerically largest coefficient wins; ties go to the lower moment order.

    The argmax is always computed from the coefficient values, never read
    off a precomputed regime table, so callers can audit it against the
    returned coefficients.
    """
    _check_k(k)
    values = {method: _COEFF_FN[method](k) for method in _METHOD_ORDER}
    return MethodComparison(
        k=k,
        c_first=values[METHOD_FIRST],
        c_third=values[METHOD_THIRD],
        c_variance=values[METHOD_VARIANCE],
        # max keeps the first of equal values, the lowest order.
        argmax=max(_METHOD_ORDER, key=values.__getitem__),
    )


def crossover_table(k_min: int, k_max: int) -> list[MethodComparison]:
    """Coefficient comparison rows for k_min..k_max inclusive."""
    if not (1 <= k_min <= k_max <= 200):
        raise ValueError(f"need 1 <= k_min <= k_max <= 200, got {k_min}..{k_max}")
    return [best_method(k) for k in range(k_min, k_max + 1)]


def published_regime(k: int) -> str:
    """The regime label published alongside the bounds: which method is
    claimed best for each dimension (first moment for k <= 4, third moment
    for 4 < k <= 6, variance beyond)."""
    _check_k(k)
    if k <= 4:
        return METHOD_FIRST
    if k <= 6:
        return METHOD_THIRD
    return METHOD_VARIANCE


def regime_disagreements(rows: list[MethodComparison]) -> list[tuple[int, str, str]]:
    """Rows whose computed argmax differs from the published regime label.

    Returns (k, computed, published) triples. Disagreement is reported,
    not treated as an error: the computed coefficients are authoritative
    here, the labels are context.
    """
    out = []
    for row in rows:
        label = published_regime(row.k)
        if row.argmax != label:
            out.append((row.k, row.argmax, label))
    return out
