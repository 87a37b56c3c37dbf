"""Continuous p-norm ball geometry and discrete lattice-shell enumeration.

The continuous side: volume of the p-norm ball in R^k and the radius
whose ball holds a prescribed count. The discrete side: enumerate the
2^n lattice points of Z^k closest to the origin in p-norm and compare
their exact p-power-norm sum against the continuum prediction

    (k/(k+p)) * 2^n * R^p,   V_{k,p}(R) = 2^n.

The quotient of the two (`continuum_ratio`) measures how well the
continuum approximation does at finite n; it is exactly 1 in the k = p = 1
case and approaches 1 elsewhere.

The shell is never built point by point. At p = 1 the ball is the
cross-polytope, whose lattice counts are its Ehrhart polynomial
L_k(s) = sum_i 2^i C(k, i) C(s, i) (Beck and Robins, Computing the
Continuous Discretely, ch. 2); the counts and the norm sums are Python
ints and nothing is built. For p >= 2 the first k - 1 coordinates run
over the orthant [0, t]^(k-1), each point weighted by its sign images,
and the last coordinate is settled in closed form: an exact integer p-th
root counts the ball, and Faulhaber's formula sums its norms. Memory is
O((t + 1)^(k-1)) per query. Either way the budget counts the nominal
points of the box [-t, t]^k, so every limit is that of a full box.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "GAMMA_DOMAIN",
    "gamma_fn",
    "gamma_root",
    "ball_volume",
    "radius_for_count",
    "LatticeShellSummary",
    "lattice_shell_enumerate",
    "lattice_count_check",
    "max_enumerable_n",
    "DEFAULT_ENUM_BUDGET",
]

# Nominal points of the one box [-t, t]^k a lattice call may use.
DEFAULT_ENUM_BUDGET = 1 << 22

# Supported argument range for the Gamma evaluations, the window the tests
# check against the standard library and mpmath. Gamma itself overflows a
# double above x ~ 171.6, so callers needing k-th roots of larger values go
# through gamma_root, which falls back to log space there.
GAMMA_DOMAIN = (0.05, 500.0)

# Largest value an int64 array can hold: here the p-power norms of the box
# arrays, in moments the signed sums and counts, in sequences the packed sums.
_INT64_MAX = np.iinfo(np.int64).max


def gamma_fn(x: float) -> float:
    """Gamma(x) for 0.05 <= x <= 500.

    Integer arguments give (x - 1)! and half-integer ones m + 1/2 give
    (2m)! / (4^m m!) * sqrt(pi), the ratio of ints rounded once by true
    division; everything else goes through math.gamma. Detection is by
    exact float equality, so only arguments given exactly as m or m + 1/2
    short-circuit. Raises OverflowError where the true value exceeds the
    double range (x above roughly 171.6); use gamma_root there.
    """
    lo, hi = GAMMA_DOMAIN
    if not (lo <= x <= hi):
        raise ValueError(f"gamma argument {x} outside supported range [{lo}, {hi}]")
    try:
        if x == int(x):
            value = float(math.factorial(int(x) - 1))
        elif 2 * x == int(2 * x):
            m = int(x)
            value = math.factorial(2 * m) / (4**m * math.factorial(m)) * math.sqrt(math.pi)
        else:
            value = math.gamma(x)
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
        return math.exp(math.lgamma(x) / r)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")


def ball_volume(k: int, p: int, r: float) -> float:
    """Volume of {x in R^k : ||x||_p <= r}.

    V = (2 Gamma(1 + 1/p))^k / Gamma(1 + k/p) * r^k.
    """
    _check_k(k)
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    unit = (2.0 * gamma_fn(1.0 + 1.0 / p)) ** k / gamma_fn(1.0 + k / p)
    return unit * r**k


def radius_for_count(n: int, k: int, p: int) -> float:
    """Radius R with V_{k,p}(R) = 2^n.

    R = 2^(n/k) * Gamma(1 + k/p)^(1/k) / (2 Gamma(1 + 1/p)).

    The k = 1 case collapses to 2^(n-1) for every p; the evaluation order
    below preserves that exactly in floating point, which the k = p = 1
    exactness checks rely on.
    """
    if n < 0:
        raise ValueError(f"count exponent must be nonnegative, got {n}")
    _check_k(k)
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    root, denominator = _radius_gammas(k, p)
    return 2.0 ** (n / k) * root / denominator


@functools.cache
def _radius_gammas(k: int, p: int) -> tuple[float, float]:
    """Gamma(1 + k/p)^(1/k) and 2 Gamma(1 + 1/p), the factors of R that
    do not depend on n."""
    return gamma_root(1.0 + k / p, k), 2.0 * gamma_fn(1.0 + 1.0 / p)


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


def _validate_lattice_args(k: int, p: int) -> int:
    """p as an int, once k and p are checked: 2.0 is taken as 2."""
    if not (1 <= k <= 8):
        raise ValueError(f"lattice enumeration supports 1 <= k <= 8, got {k}")
    if not (1 <= p < math.inf and p == int(p)):
        raise ValueError(f"norm exponent must be a positive integer, got {p}")
    return int(p)


def _check_box(t: int, k: int, p: int, budget: int, what: str) -> None:
    """Refuse a box [-t, t]^k of more than `budget` points, then one whose
    largest p-power norm k * t^p passes int64."""
    box = (2 * t + 1) ** k
    if box > budget:
        raise BudgetExceededError(what, box, budget)
    largest = k * t**p
    if largest > _INT64_MAX:
        raise BudgetExceededError("int64 lattice norms", largest, _INT64_MAX)


def _iroot(x: np.ndarray, p: int, t: int) -> np.ndarray:
    """min(floor(x^(1/p)), t) elementwise, exactly, for int64 x >= 0 and t^p < 2^63.

    A float estimate is settled by integer steps. Raising a candidate to
    y + 1 happens only while y < t, so no power beyond t^p is formed and
    nothing wraps. At p = 1 the root is x itself: a double cannot hold
    every int64 above 2^53.
    """
    if p == 1:
        return np.minimum(x, t)
    y = np.minimum(np.floor(x.astype(np.float64) ** (1.0 / p)).astype(np.int64), t)
    while (over := y**p > x).any():
        y -= over
    while True:
        up = np.minimum(y + 1, t)
        under = (up > y) & (up**p <= x)
        if not under.any():
            return y
        y += under


def _orthant_slice(t: int, k: int, p: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Norms and sign weights of the points of [0, t]^(k-1) with norm^p <= cutoff.

    Each orthant point stands for its 2^(nonzero coordinates) sign images,
    which share its norm. For k = 1 the slice is the single empty point.
    Every norm is at most (k - 1) * t^p, so int64 holds it under the
    k * t^p guard of _check_box.
    """
    norms = np.zeros(1, dtype=np.int64)
    weights = np.ones(1, dtype=np.int64)
    if k > 1:
        side = np.arange(t + 1, dtype=np.int64) ** p
        side_weights = np.full(t + 1, 2, dtype=np.int64)
        side_weights[0] = 1
        for _ in range(k - 1):
            norms = (norms[:, None] + side[None, :]).ravel()
            weights = (weights[:, None] * side_weights[None, :]).ravel()
            keep = norms <= cutoff
            norms, weights = norms[keep], weights[keep]
    return norms, weights


def _ball_count(orthant: tuple[np.ndarray, np.ndarray], v: int, p: int, t: int) -> int:
    """#{x in [-t, t]^k : ||x||_p^p <= v}, v <= the slice's cutoff.

    Fixing the first k - 1 coordinates leaves |y| <= (v - norm')^(1/p) for
    the last one: sum of w * (2 * floor((v - norm')^(1/p)) + 1). The
    doubling and the + 1 are done on Python ints: the int64 sum of w * root
    is at most half the count, so a k = 1 count may pass 2^63. For
    v <= t^p the box holds the whole ball.
    """
    norms, weights = orthant
    keep = norms <= v
    weights = weights[keep]
    return 2 * int(weights @ _iroot(v - norms[keep], p, t)) + int(weights.sum())


@functools.cache
def _faulhaber(p: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients (highest degree first) and denominator of F_p.

    F_p(y) = 1^p + ... + y^p = (1/(p+1)) sum_j C(p+1, j) B_j y^(p+1-j),
    with the Bernoulli numbers B_j held as Fractions and B_1 = +1/2.
    """
    bernoulli = [Fraction(1)]
    for m in range(1, p + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    bernoulli[1] = -bernoulli[1]
    coeffs = [math.comb(p + 1, j) * bernoulli[j] / (p + 1) for j in range(p + 1)] + [Fraction(0)]
    denominator = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * denominator) for c in coeffs), denominator


def _power_sum(y: int, p: int) -> int:
    """F_p(y) = 1^p + 2^p + ... + y^p as an exact Python int (Faulhaber)."""
    coeffs, denominator = _faulhaber(p)
    acc = 0
    for c in coeffs:
        acc = acc * y + c
    return acc // denominator


def _ball_norm_sum(orthant: tuple[np.ndarray, np.ndarray], v: int, k: int, p: int, t: int) -> int:
    """Exact sum of ||x||_p^p over x in [-t, t]^k with ||x||_p^p <= v.

    The ball is symmetric under coordinate permutations, so the sum is k
    times that of |x_k|^p alone, and over |y| <= Y the last coordinate
    contributes 2 * F_p(Y). Python ints keep the total exact (k = 1,
    p = 3 totals reach 2^79).
    """
    norms, weights = orthant
    keep = norms <= v
    roots, where = np.unique(_iroot(v - norms[keep], p, t), return_inverse=True)
    per_root = np.zeros(roots.size, dtype=np.int64)
    np.add.at(per_root, where, weights[keep])
    return 2 * k * sum(w * _power_sum(y, p) for y, w in zip(roots.tolist(), per_root.tolist()))


def _cross_polytope_count(k: int, v: int) -> int:
    """L_k(v) = #{x in Z^k : ||x||_1 <= v} = sum_i 2^i C(k, i) C(v, i).

    A point with i nonzero coordinates is a sign pattern (2^i), a support
    (C(k, i)) and a composition of at most v into i positive parts
    (C(v, i)). 0 for v < 0.
    """
    if v < 0:
        return 0
    return sum(2**i * math.comb(k, i) * math.comb(v, i) for i in range(k + 1))


def _cross_polytope_norm_sum(k: int, v: int) -> int:
    """Exact sum of ||x||_1 over x in Z^k with ||x||_1 <= v.

    The points of norm j with i nonzero coordinates number
    2^i C(k, i) C(j - 1, i - 1), and j C(j - 1, i - 1) = i C(j, i), so the
    hockey stick over j <= v gives sum_(i >= 1) i 2^i C(k, i) C(v + 1, i + 1),
    for every v >= -1.
    """
    return sum(i * 2**i * math.comb(k, i) * math.comb(v + 1, i + 1) for i in range(1, k + 1))


def _slice_ball(t: int, k: int, p: int, cutoff: int) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """(count, norm sum) of the points of [-t, t]^k with norm^p <= v, as
    functions of v <= cutoff, on one orthant slice: the route for any p."""
    orthant = _orthant_slice(t, k, p, cutoff)
    return (lambda v: _ball_count(orthant, v, p, t)), (lambda v: _ball_norm_sum(orthant, v, k, p, t))


def _ball(t: int, k: int, p: int, cutoff: int) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """_slice_ball's pair, by the cross-polytope's closed forms at p = 1.

    Those count all of Z^k, which is the box's count: every v a query
    passes is at most t, and [-t, t]^k holds the l1 ball of radius t.
    """
    if p == 1:
        return functools.partial(_cross_polytope_count, k), functools.partial(_cross_polytope_norm_sum, k)
    return _slice_ball(t, k, p, cutoff)


def _box_side(n: int, k: int, p: int, budget: int, what: str) -> tuple[int, float]:
    """Side t0 = max(1, ceil(R) + 1) of the one box [-t0, t0]^k a query
    takes, and the continuum radius R it came from; at p = 1 an integer
    R = m gives t0 = m + 1 exactly.

    R is the continuum radius, V_{k,p}(R) = 2^n; any lattice point with
    p-norm <= t0 lies inside the box, so the t0-ball's count is exact. The
    box passes _check_box before any slice is built. A radius past the
    float range is refused as the int64 guard refuses its box. Why t0 holds
    2^n points:

    - k < 2^p: the unit cubes z + [-1/2, 1/2]^k that meet B_p(R) cover it,
      so there are at least vol B_p(R) = 2^n such z, and each has
      ||z||_p <= R + k^(1/p) / 2 < R + 1 <= t0. Floats do not break this:
      R is exact at k = 1, and for k >= 2 (so p >= 2) the int64 guard
      keeps t0 below 2^32, where R's rounding error is far below the
      slack 1 - k^(1/p) / 2 >= 0.043 (k = 7, p = 3).
    - k = 2^p, that is (4, 2) and (8, 3): the same covering with
      k^(1/p) / 2 = 1, which needs t0 >= R + 1, so ceil(R_float) >= R; the
      tests check that with mpmath for every n the int64 guard admits.
    - p = 1: the ball counts L_k(t) (_cross_polytope_count) have
      positive coefficients in t (the tests check k <= 8 exactly), and the
      leading one is 2^k / k!, so L_k(t) >= vol B_1(t) >= 2^n for t >= R.
      R's relative rounding error stays below 2^-47, so t0 > R while
      R < 2^46; past that, lattice_shell_enumerate refuses a short box.
      R^k = k! 2^(n-k) can be an integer m's k-th power (k = 2 and odd n,
      for one), and then the float R may lie an ulp above m, which would
      make ceil(R) + 1 = m + 2. An int check of m^k 2^k = k! 2^n takes
      t0 = m + 1 there instead, still above R; R itself is returned as
      computed.
    - p = 2 with k = 5..8: no proof. The tests check the pinned budgets,
      and lattice_shell_enumerate refuses a short box at run time.

    The same cubes place the boundary norm v* (the least v whose ball
    ||x||_p^p <= v holds 2^n lattice points) for every (k, p). Each point
    of z + [-1/2, 1/2]^k lies within c = k^(1/p) / 2 of z in p-norm, so
    the ball of radius R + c holds at least 2^n lattice points, and the
    disjoint cubes of the lattice points of B_p(R - c) lie in B_p(R), so
    there are at most 2^n of those. Hence v* <= (R + c)^p, and v* is below
    (R - c)^p only if B_p(R - c) holds exactly 2^n points. Floats round
    this window, so lattice_shell_enumerate only starts its search there
    and settles v* by exact counts.
    """
    try:
        r = radius_for_count(n, k, p)
        m = round(r)
        exact = p == 1 and m**k << k == math.factorial(k) << n
        t = max(1, (m if exact else math.ceil(r)) + 1)
    except OverflowError:
        reason = f"int64 lattice norms: the radius for n={n}, k={k}, p={p} passes the float range"
        raise BudgetExceededError(reason, None, _INT64_MAX) from None
    _check_box(t, k, p, budget, what)
    return t, r


def _boundary_norm(
    ball_count: Callable[[int], int], count: int, top: int, guess: int, window: tuple[int, int]
) -> tuple[int, int]:
    """(v*, ball_count(v* - 1)), v* the least v with ball_count(v) >= count.

    v* = top + 1 means the ball of norm^p <= top holds fewer than `count`
    points; that value is never counted. The search keeps a bracket
    lo < v* <= hi and counts only strictly inside it: first at `guess` and
    its neighbour on the side the guess count points to, then at the two
    `window` ends, then by bisection. Every move of the bracket rests on an exact count,
    so any guess and window, however wrong, give the same answer; good
    ones only take fewer counts.
    """
    lo, below, hi = -1, 0, top + 1

    def probe(v: int) -> None:
        nonlocal lo, below, hi
        if lo < v < hi:
            inside = ball_count(v)
            if inside >= count:
                hi = v
            else:
                lo, below = v, inside

    probe(guess)
    probe(guess - 1 if hi == guess else guess + 1)
    for end in window:
        probe(end)
    while hi - lo > 1:
        probe((lo + hi) // 2)
    return hi, below


def lattice_shell_enumerate(
    n: int, k: int, p: int, budget: int = DEFAULT_ENUM_BUDGET
) -> LatticeShellSummary:
    """Select the 2^n points of Z^k closest to the origin in p-norm.

    The boundary norm v* is the least v with ball count >= 2^n. It is
    searched from the continuum estimate floor(R^p) and its neighbour,
    then inside the covering window [(R - c)^p, (R + c)^p] (see
    _box_side), then by bisection of whatever bracket remains; every step
    is an exact ball count, so the float guesses change only how many
    counts are taken, never v*. At k = 1 or p = 1 the first two counts
    settle it. The points below v* are summed in closed form and the ties
    on the boundary shell contribute (2^n - below) * v*, so no per-point
    tie-break is needed here (the points path below realizes the
    deterministic order when identities matter). The budget counts the
    nominal points of the one box (see _box_side). A box whose t-ball
    holds fewer than 2^n points raises RuntimeError rather than return a
    summary of too few points.
    """
    if n < 0:
        raise ValueError(f"count exponent must be nonnegative, got {n}")
    p = _validate_lattice_args(k, p)
    t, r_cont = _box_side(n, k, p, budget, "lattice box enumeration")
    ball_count, norm_sum = _ball(t, k, p, t**p)
    count = 1 << n
    # Where to count first: floor(R^p), then the covering window of
    # _box_side's docstring. Floats only guide; the counts decide.
    c = k ** (1.0 / p) / 2.0
    window = (math.floor((r_cont - c) ** p) if r_cont > c else -1, math.ceil((r_cont + c) ** p))
    guess = min(max(math.floor(r_cont**p), 0), t**p)
    vstar, below = _boundary_norm(ball_count, count, t**p, guess, window)
    if vstar > t**p:
        raise RuntimeError(f"box side t={t} holds fewer than 2^n points at n={n}, k={k}, p={p}")
    total = norm_sum(vstar - 1) + (count - below) * vstar
    if n == 0:
        ratio = None
    else:
        ratio = total / ((k / (k + p)) * count * r_cont**p)
    # A perfect power's root is exact; vstar ** (1 / p) can round below it.
    root = int(_iroot(np.array([vstar], dtype=np.int64), p, t)[0])
    return LatticeShellSummary(
        n=n,
        k=k,
        p=p,
        count=count,
        discrete_sum=total,
        boundary_norm_power=vstar,
        r_discrete=float(root) if root**p == vstar else vstar ** (1.0 / p),
        r_continuous=r_cont,
        continuum_ratio=ratio,
    )


def lattice_count_check(k: int, p: int, r: float, budget: int = DEFAULT_ENUM_BUDGET) -> float:
    """Relative discrepancy between the lattice count in the r-ball and its volume.

    Returns |#{s in Z^k : ||s||_p <= r} - V_{k,p}(r)| / V_{k,p}(r). A
    radius whose volume underflows to 0, or whose discrepancy passes the
    float range, raises ValueError.
    """
    p = _validate_lattice_args(k, p)
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be finite and positive, got {r}")
    t = math.floor(r)
    _check_box(t, k, p, budget, "lattice count enumeration")
    # Norms are integers, so the exact floor of r^p is the cutoff. Every
    # point of the r-ball lies in [-t, t]^k, whose norms stop at k * t^p.
    cutoff = min(math.floor(Fraction(r) ** p), k * t**p)
    count = _ball(t, k, p, cutoff)[0](cutoff)
    vol = ball_volume(k, p, r)
    discrepancy = abs(count - vol) / vol if vol else math.inf
    if not math.isfinite(discrepancy):
        raise ValueError(f"radius {r} is too small: its ball volume {vol} leaves no finite discrepancy")
    return discrepancy


def max_enumerable_n(k: int, p: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Largest n whose shell enumeration fits the budget and the int64 norms.

    Takes the same box as lattice_shell_enumerate for increasing n until
    the budget or the norm guard trips, so the answer is exactly consistent
    with it. Only budget and int64 arithmetic: no slice is built and no
    ball counted. When not even n = 0 fits, raises the
    BudgetExceededError that lattice_shell_enumerate(0, k, p) raises.
    """
    p = _validate_lattice_args(k, p)
    n = 0
    while True:
        try:
            _box_side(n, k, p, budget, "lattice box enumeration")
        except BudgetExceededError:
            if n == 0:
                raise
            return n - 1
        n += 1
