"""Lower-bound coefficients on the minimal bound M and method comparison.

Three statistical routes give lower bounds of the common shape

    M >= (1 + o(1)) * c_p(k) * 2^(n/k) / sqrt(n)

for length-n sequences in Z^k with all subset sums distinct. Each route
bounds the p-th absolute moment E||X||_p^p of the signed sum
X = sum eps_i a_i / 2 with random signs, and the three are one formula
at the orders p = 1 (first moment), p = 2 (variance) and p = 3 (third
moment):

    c_p(k) = Gamma(1 + k/p)^(1/k)
             / (Gamma(1 + 1/p) * (k + p)^(1/p) * (E|Z|^p)^(1/p)),
    E|Z|^p = 2^(p/2) * Gamma((p + 1)/2) / sqrt(pi)   (Z standard normal).

The finite-n counterpart, given for the first and third moments, replaces
the normal moment by the exact integer sum T_p(n) = sum C(n,i) |n - 2i|^p,
taken from its closed form combinatorics.closed_form_sum(n, p):

    M >= R * (2^(n+p) / ((k + p) * T_p(n)))^(1/p),   R = radius_for_count(n, k, p).

This module evaluates c_p(k), the asymptotic and finite bounds, and picks
the numerically best method per dimension.

The finite-n forms are heuristic, so they are reported alongside the
asymptotic bound, never instead of it. The moment sums T_p(n) on the
sequence side are exact; the heuristic step is the lattice side, which
uses the continuum term (k/(k+p)) * 2^n * R^p in place of the discrete
minimum of sum ||x||_p^p over 2^n distinct points of the half-integer
coset of Z^k that the values of X lie in. That term can exceed the true
minimum: at k = 1, p = 3 it exceeds the minimum over Z + 1/2 by
2^(2n)/16, a factor 2 at n = 1, where the third-moment finite form is
2^(1/3) while the true minimal M is 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .combinatorics import closed_form_sum
from .pnorm import GAMMA_DOMAIN, _check_k, _radius_gammas, gamma_fn, radius_for_count

__all__ = [
    "METHOD_FIRST",
    "METHOD_THIRD",
    "METHOD_VARIANCE",
    "METHOD_TOKENS",
    "coeff",
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

# Moment order p of each method. Insertion order is the tie-break order of
# best_method: ties go to the lower p.
_ORDER = {METHOD_FIRST: 1, METHOD_VARIANCE: 2, METHOD_THIRD: 3}


@functools.cache
def _k_free_factor(p: int) -> float:
    """Gamma(1 + 1/p) * (E|Z|^p)^(1/p), the part of c_p(k) without k."""
    normal_moment = 2.0 ** (p / 2.0) * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)
    return gamma_fn(1.0 + 1.0 / p) * normal_moment ** (1.0 / p)


def coeff(p: int, k: int) -> float:
    """The order-p coefficient c_p(k) (module docstring) for dimension k.

    p = 1, 2, 3 give the first-moment, variance and third-moment
    coefficients. The variance one, c_2(k), is strictly decreasing in k,
    from 3^(-1/2) at k = 1 down toward the Stirling limit sqrt(2/(e*pi)).
    Gamma(1 + k/p) is evaluated on GAMMA_DOMAIN only, so order p allows
    k <= (GAMMA_DOMAIN[1] - 1) * p.
    """
    _check_k(k)
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    if 1.0 + k / p > GAMMA_DOMAIN[1]:
        largest = int((GAMMA_DOMAIN[1] - 1.0) * p)
        raise ValueError(f"k={k} is too large for moment order p={p}: that order allows k <= {largest}")
    return _radius_gammas(k, p)[0] / (_k_free_factor(p) * (k + p) ** (1.0 / p))


@dataclass(frozen=True)
class BoundReport:
    """One method's lower bound on M for a given (n, k).

    coefficient is c_p(k); asymptotic_bound is c_p(k) * 2^(n/k) / sqrt(n).
    finite_bound is the finite-n form, populated for the first- and
    third-moment methods only. It is heuristic because it uses the
    continuum lattice term in place of the discrete minimum, which can
    overshoot (2^(1/3) against M_min = 1 at n = k = 1 for the third moment;
    see module docstring).
    """

    method: str
    k: int
    n: int
    coefficient: float
    asymptotic_bound: float
    finite_bound: float | None


def _finite(n: int, k: int, p: int) -> float:
    # p is 1 or 3, and T_p(n) is an integer. T_p(n) / 2^n, correctly
    # rounded by int division, stays in the float range long after T_p(n)
    # leaves it; scaling by the exact power 2^-n leaves every rounding as
    # it was.
    mean = closed_form_sum(n, p) / (1 << n)
    return radius_for_count(n, k, p) * (2.0**p / ((k + p) * mean)) ** (1.0 / p)


def lower_bound(n: int, k: int, method: str) -> BoundReport:
    """Lower bound on M for length-n sequences in Z^k via one method.

    Raises ValueError when a bound, or a factor of it, passes the float
    range, as 2^(n/k) does from n / k = 1024 on.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if method not in _ORDER:
        raise ValueError(f"unknown method {method!r}, expected one of {METHOD_TOKENS}")
    p = _ORDER[method]
    c = coeff(p, k)
    try:
        asymptotic = c * 2.0 ** (n / k) / math.sqrt(n)
        # The variance route is reported without a finite form.
        finite = None if method == METHOD_VARIANCE else _finite(n, k, p)
        # A power of 2.0 passing the range raises; a product passing it is inf.
        if finite == math.inf:
            raise OverflowError
    except OverflowError:
        raise ValueError(f"the {method} bound at n={n}, k={k} passes the float range") from None
    return BoundReport(
        method=method,
        k=k,
        n=n,
        coefficient=c,
        asymptotic_bound=asymptotic,
        finite_bound=finite,
    )


@dataclass(frozen=True)
class MethodComparison:
    """All three coefficients at one dimension plus the computed argmax."""

    k: int
    c_first: float
    c_third: float
    c_variance: float
    argmax: str


def best_method(k: int) -> MethodComparison:
    """The numerically largest coefficient wins; ties go to the lower moment order.

    The argmax is always computed from the coefficient values, never read
    off a precomputed regime table, so callers can audit it against the
    returned coefficients.
    """
    values = {method: coeff(p, k) for method, p in _ORDER.items()}
    return MethodComparison(
        k=k,
        c_first=values[METHOD_FIRST],
        c_third=values[METHOD_THIRD],
        c_variance=values[METHOD_VARIANCE],
        # max keeps the first of equal values, the lowest order.
        argmax=max(values, key=values.__getitem__),
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
