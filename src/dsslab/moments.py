"""Exact and Monte Carlo evaluation of signed-sum moments E[||X||_p^p].

For a sequence of vectors a_1..a_n and independent uniform signs
eps_i in {-1/2, +1/2}, X = sum eps_i a_i. Internally signs are modeled as
+-1 and every value is halved at the API boundary, which keeps the exact
distributions integral: coordinate j's signed sums are integers in
[-S_j, S_j] with S_j = sum_i a_ij, held as sorted int64 value and count
arrays. The DP that builds them grows the values unfolded and sorts
equal ones together after a step whose unfolded values pass the budget,
refusing it if the sorted support still does, once at the end, and in
between only once the unfolded values reach a floor of 2^16 entries and
have grown 8-fold since the last sort. Exact moments pair two such
distributions, one per half of the entries (Horowitz-Sahni), through
exact prefix power sums, so the full 2^n-entry support of a distinct-sum
coordinate is never built; the pairing runs in uint64 arrays modulo 2^64
and as many primes below 2^32 as 2^n * S_j^p needs, and the Chinese
remainder theorem recovers its exact sum. The same split into halves
(_halves), over the signs {-1, 0, +1}, decides distinct subset sums in
sequences.

Exact paths return rationals; the Monte Carlo path returns a float with a
standard error, bit-for-bit reproducible from (seed, samples, seq, p) on
any host. It reads signs straight off the generator's raw bits and sums X
from per-byte tables of signed sums in a fixed order. While every
coordinate sum S_j is at most 2^53 that sum is exact; above 2^53 it is a
fixed-order float sum. For p in {1, 2, 3} with sum_j S_j^p at most 2^53,
|X_j|^p and its sum over j are exact as well, and come from products and
column adds. The mean and standard error are the ufunc calls of
np.mean and np.std, made in place on the samples' values; more than
MC_MAX_SAMPLES samples are refused before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .combinatorics import closed_form_sum
from .errors import BudgetExceededError
from .pnorm import _INT64_MAX

if TYPE_CHECKING:
    from .sequences import VectorSequence

__all__ = [
    "DEFAULT_TABLE_BUDGET",
    "MC_MAX_SAMPLES",
    "SignedSumDistribution",
    "signed_sum_distribution",
    "MomentValue",
    "exact_moment",
    "extremal_moment",
    "mc_estimate",
    "ConvexityCounterexample",
    "convexity_probe",
    "VarianceDiscrepancy",
    "variance_identity_check",
]

# Support entries (distinct signed-sum values) a distribution may hold
# after any one coordinate.
DEFAULT_TABLE_BUDGET = 1 << 22

# When the DP folds (_fold: one sort of the unfolded values and a pass
# over their runs). A fold costs ~5 us of numpy calls plus ~6 ns an entry
# to sort in cache, ~8 ns out of it. While the next unfolded array stays
# under _FOLD_FLOOR entries (512 KB of int64) nothing is folded early: the
# one sort at the end then costs at most ~0.4 ms, less than the calls of
# the growth folds it replaces, one every two or three steps. The n = 20
# verifier's halves (3^10 = 59,049 entries) stay under it and fold once;
# at n = 22 a half's last step (3^11 = 177,147) crosses it, so the half
# folds at 3^10 and again at the end, a third more sorting than the final
# fold alone.
_FOLD_FLOOR = 1 << 16
# Above the floor a fold also waits until the values have grown
# _FOLD_GROWTH-fold since the last fold. Where sums repeat, the unfolded
# values thus stay within 8 (9 for three signs) times the support the last
# fold left.
# Where they do not, the folds sort arrays growing 8- or 9-fold, at most
# 4/7 (two signs) or 3/8 (three) more sorting than the final fold alone,
# and a fold that merged nothing keeps the next one a sort in place.
_FOLD_GROWTH = 8

# Monte Carlo samples one call may draw: each sample's value is one
# float64, so the cap commits at most 1 GiB. More are refused before
# anything is allocated.
MC_MAX_SAMPLES = 1 << 27

# Monte Carlo rows processed at a time. No result depends on it: the sign
# draws form one stream and every sample keeps its own value. It is even,
# so every block but the last draws whole 64-bit words.
_MC_BLOCK = 1 << 12

# Moduli of the exact pairing, taken in this order: 2^64, which uint64
# arithmetic reduces by itself, then the eight largest primes below 2^32.
# Their product passes 2^316, the largest 2^n * S^p the DP's guards admit
# for p <= 3: two halves of at most 62 entries, each summing below 2^63.
_MODULI = (
    1 << 64, 4294967291, 4294967279, 4294967231, 4294967197,
    4294967189, 4294967161, 4294967143, 4294967111,
)


@dataclass(frozen=True, eq=False)
class SignedSumDistribution:
    """Distribution of sum eps_i * c_i over sign patterns eps in {-1,+1}^n.

    values holds the distinct signed sums in increasing order and counts
    the exact number of sign patterns reaching each (both int64); counts
    total 2^n (3^n when the patterns also admit eps_i = 0) and the
    distribution is symmetric under negation. Values are in the doubled
    convention (signs +-1); divide by 2 to read them on the +-1/2 scale.

    support is values itself, the same array: the sorted distinct values
    are the support. The alias exists for the benchmark's tracer, which
    records len(res.support), and goes once the tracer reads values.
    """

    values: np.ndarray
    counts: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return self.values


def signed_sum_distribution(
    coords,
    budget: int = DEFAULT_TABLE_BUDGET,
    signs: tuple[int, ...] = (-1, 1),
) -> SignedSumDistribution:
    """Exact convolution of the distributions of eps * c, eps uniform over signs.

    signs is (-1, 1), the two-point distributions {-c, +c}, or (-1, 0, 1),
    which also lets each entry sit out. One loop over the coordinates
    keeps int64 arrays of values and counts. Step c replaces them by
    values + s * c for s in signs, side by side and unfolded: equal values
    are not merged yet. They are folded, one sort and a sum of the counts
    of each run of equal values (_fold), right after a step whose
    unfolded values pass the budget, or once the next step's unfolded
    array would reach _FOLD_FLOOR entries and the values have grown
    _FOLD_GROWTH-fold since the last fold; and once at the end, unless
    the last step folded. No values are folded twice, and no output
    depends on when the folds come: equal values merge and their counts
    add exactly in any order.

    budget caps the support entries after any one step. It is checked
    once a step, right after it: values within the budget pass as they
    are, and otherwise the fold after the step gives the exact support,
    which is refused if it still passes the budget. So a step starts from
    at most budget entries, and no array holds more than
    len(signs) * budget entries.
    Inputs the int64 arrays cannot hold are refused up front: a coordinate
    sum of 2^63 or more, or len(signs)^n counts of 2^63 or more. Every
    refusal raises BudgetExceededError.
    """
    if signs not in ((-1, 1), (-1, 0, 1)):
        raise ValueError(f"signs must be (-1, 1) or (-1, 0, 1), got {signs}")
    coords = [int(c) for c in coords]
    if any(c < 0 for c in coords):
        raise ValueError(f"coordinates must be nonnegative, got {coords}")
    n, span, width = len(coords), sum(coords), len(signs)
    if width**n > _INT64_MAX:
        raise BudgetExceededError("int64 signed-sum counts", width**n, _INT64_MAX)
    if span > _INT64_MAX:
        raise BudgetExceededError("int64 signed-sum values", span, _INT64_MAX)

    values = np.zeros(1, dtype=np.int64)
    counts = None
    folded = 1  # the support the last fold left; the start counts as one
    for shifts in np.multiply.outer(np.array(coords, dtype=np.int64), signs):
        values = np.add.outer(shifts, values).ravel()
        if counts is not None:
            counts = np.tile(counts, width)
        grown = width * len(values) >= _FOLD_FLOOR and len(values) >= _FOLD_GROWTH * folded
        if grown or len(values) > budget:
            values, counts = _fold(values, counts)
            folded = len(values)
            if folded > budget:
                raise BudgetExceededError("signed-sum DP support", folded, budget)
    if len(values) > folded:
        values, counts = _fold(values, counts)
    if counts is None:
        counts = np.ones(len(values), dtype=np.int64)
    return SignedSumDistribution(values=values, counts=counts)


def _fold(
    values: np.ndarray, counts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted distinct values and the summed counts of each.

    counts None stands for all ones: then one sort in place suffices and
    the counts are the run lengths, or still None when every run has
    length one. Otherwise an unstable argsort orders both arrays, which
    is safe since np.add.reduceat sums integers in any order.
    """
    if counts is None:
        values.sort()
    else:
        order = np.argsort(values)
        values, counts = values[order], counts[order]
    # The first index of each run, and len(values) after the last.
    edges = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True])))
    starts = edges[:-1]
    if counts is None:
        if len(starts) == len(values):
            return values, None  # nothing merged: the counts are still all ones
        return values[starts], edges[1:] - starts
    return values[starts], np.add.reduceat(counts, starts)


def _halves(
    coords: list[int], budget: int, signs: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, SignedSumDistribution]:
    """The meet-in-the-middle split of coords (Horowitz-Sahni): (ys, weights, inner).

    The first len(coords) // 2 entries (outer) and the rest (inner) get
    one signed-sum distribution each, so a signed sum over all of coords
    is a value y of outer plus a value z of inner. Callers sum over every
    such pair, so which half plays which role changes no result. Both
    halves are symmetric, so y and -y pair alike: ys are outer's values
    y >= 0, and weights their counts, doubled for y > 0 to stand for -y
    as well. Negation maps the sign patterns reaching y onto those
    reaching -y, so the count of a y > 0 is at most half of its half's
    patterns, and the doubled weight fits in int64.
    """
    parts = coords[: len(coords) // 2], coords[len(coords) // 2 :]
    outer, inner = (signed_sum_distribution(part, budget=budget, signs=signs) for part in parts)
    nonneg = outer.values >= 0
    ys = outer.values[nonneg]
    return ys, outer.counts[nonneg] << (ys > 0), inner


def _residues(a: np.ndarray, q: int) -> np.ndarray:
    """The int64 array a modulo q, as uint64 (a view for q = 2^64)."""
    return a.view(np.uint64) if q >> 64 else (a % q).view(np.uint64)


def _reduce(a: np.ndarray, q: int) -> np.ndarray:
    """The uint64 array a, reduced modulo q in place; uint64 wraps modulo 2^64 by itself."""
    return a if q >> 64 else np.remainder(a, q, out=a)


def _paired_residue(ys, weights, cuts, inner: SignedSumDistribution, p: int, q: int) -> int:
    """_paired_power_sum's total modulo q, one of _MODULI, from uint64 arrays.

    Row m of rows is c_z z^m over inner's support, then its prefix sums
    P_m from 0; row m of scaled is w_y y^(p-m). Every step is a ring
    operation, so modulo 2^64 uint64 arithmetic needs no reduction step.
    Modulo a prime q < 2^32 a product of two residues stays below 2^64 and
    is reduced at once, and a sum of fewer than 2^32 residues stays below
    2^64 and is reduced after.
    """
    values, ys = _residues(inner.values, q), _residues(ys, q)
    rows = np.zeros((p + 1, len(values) + 1), dtype=np.uint64)
    rows[0, 1:] = _residues(inner.counts, q)
    scaled = np.empty((p + 1, len(ys)), dtype=np.uint64)
    scaled[p] = _residues(weights, q)
    for m in range(1, p + 1):
        _reduce(np.multiply(rows[m - 1, 1:], values, out=rows[m, 1:]), q)
        _reduce(np.multiply(scaled[p - m + 1], ys, out=scaled[p - m]), q)
    _reduce(np.cumsum(rows, axis=1, out=rows), q)
    terms = [t * s for t, s in zip(rows[:, -1].tolist(), scaled.sum(axis=1).tolist())]
    if cuts is not None:
        for m, row in enumerate(rows):
            terms[m] -= 2 * int(_reduce(row[cuts] * scaled[m], q).sum())
    return sum(math.comb(p, m) * t for m, t in enumerate(terms)) % q


def _paired_power_sum(ys, weights, inner: SignedSumDistribution, p: int) -> int:
    """sum over y in ys and z in inner's support of w_y * c_z * |y + z|^p, exact.

    ys are sorted int64 values >= 0 with int64 weights w_y; c_z are
    inner's counts. Expanding (y + z)^p binomially turns the sum over z
    into inner's power sums T_m. For odd p the terms with z < -y change
    sign; one searchsorted at -y finds their prefix P_m, so y contributes
    sum_m C(p, m) y^(p-m) (T_m - 2 P_m[cut]). Even p has no sign to split,
    and every y sees the whole T_m.

    The total lies in [0, B], B = sum w_y * sum c_z * (max y + max z)^p,
    at most 2^n * S^p for n entries on both sides and S their coordinate
    sum. _paired_residue takes it modulo 2^64, then modulo as many primes
    of _MODULI as B needs, and the Chinese remainder theorem recombines
    the residues in Python ints: the one below the moduli's product,
    which passes B, is the total. A side of 2^32 entries or more would
    overflow a prime residue's unreduced sums; it raises
    BudgetExceededError before anything is allocated.
    """
    entries = max(len(ys), len(inner.values))
    if entries >= 1 << 32:
        raise BudgetExceededError("paired support entries", entries, (1 << 32) - 1)
    bound = int(weights.sum()) * int(inner.counts.sum()) * (int(ys[-1]) + int(inner.values[-1])) ** p
    cuts = np.searchsorted(inner.values, -ys) if p % 2 else None
    total, product = 0, 1
    for q in _MODULI:
        if product > bound:
            break
        residue = _paired_residue(ys, weights, cuts, inner, p, q)
        total += product * ((residue - total) * pow(product, -1, q) % q)
        product *= q
    return total


@dataclass(frozen=True)
class MomentValue:
    """E[||X||_p^p] with provenance.

    Exact paths (exact_dp, closed_form) carry a Fraction value and no
    stderr; the monte_carlo path carries a float value, a nonnegative
    stderr (0.0 when every sample is equal, None when samples == 1, where
    it is undefined), and the sample count.
    """

    p: int | float
    value: Fraction | float
    provenance: str
    stderr: float | None = None
    samples: int | None = None


def exact_moment(seq: VectorSequence, p: int, budget: int = DEFAULT_TABLE_BUDGET) -> MomentValue:
    """E[||X||_p^p] as an exact rational, p in {1, 2, 3}.

    Sums per-coordinate contributions E|X_j|^p. Each coordinate is split
    by _halves, one exact DP per half of the entries, and the two halves
    are paired by _paired_power_sum, so no support larger than one half's
    is built and budget and the int64 guards apply to each half. Its
    residues, modulo 2^64 and primes below 2^32, make the sum exact for
    every half the guards admit. The halving of values enters as the
    factor 2^p.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"exact path supports p in {{1, 2, 3}}, got {p}")
    p = int(p)
    power_sum = sum(
        _paired_power_sum(*_halves([vec[j] for vec in seq.vectors], budget, (-1, 1)), p)
        for j in range(seq.k)
    )
    value = Fraction(power_sum, (1 << seq.n) * 2**p)
    return MomentValue(p=p, value=value, provenance="exact_dp", stderr=None, samples=None)


def extremal_moment(n: int, k: int, bound: int, p: int) -> MomentValue:
    """Closed form of E[||X||_p^p] for the all-components-equal-M sequence.

    k * M^p * T_p(n) / 2^(n+p) for p in {1, 3}, where the integer T_p(n)
    comes from combinatorics.closed_form_sum. This is the extremal
    configuration the moment chains compare against.
    """
    if n < 1 or k < 1 or bound < 0:
        raise ValueError(f"bad shape: n={n}, k={k}, bound={bound}")
    t = closed_form_sum(n, p)
    p = int(p)
    value = Fraction(k * bound**p * t, 1 << (n + p))
    return MomentValue(p=p, value=value, provenance="closed_form", stderr=None, samples=None)


def _sign_tables(seq: VectorSequence) -> list[np.ndarray]:
    """One 2^m x k float table per run of m <= 8 entries, in entry order.

    Row v of a run's table is 0.5 * sum_i (+-a_i), entry i of the run
    taking the plus sign when bit i of v is set. Each row is summed
    exactly, by a product with the +-1 sign matrix, and rounded to float
    once, by the halving: in int64 while the run's coordinate sums fit,
    where a partial sum is at most the whole, and in Python ints (dtype
    object) otherwise.
    """
    tables = []
    for start in range(0, seq.n, 8):
        run = seq.vectors[start : start + 8]
        bits = np.arange(1 << len(run))[:, None] >> np.arange(len(run)) & 1
        wide = max(map(sum, zip(*run))) > _INT64_MAX
        entries = np.array(run, dtype=object if wide else np.int64)
        tables.append(((2 * bits - 1) @ entries / 2).astype(np.float64))
    return tables


def _draw_signs(bits: np.random.BitGenerator, out: np.ndarray) -> None:
    """Fill the bool array out, row by row, with the next out.size sign bits.

    Bit t is the top bit of 32-bit word t of the stream, each raw 64-bit
    draw giving its low half first, so out matches
    rng.integers(0, 2, size=out.shape) == 1 bit for bit: at range 2,
    Lemire's method keeps the top bit of a 32-bit word and never rejects.
    The match holds within one call. An odd count discards the high half
    of the last draw, where numpy keeps it for its next 32-bit draw, so
    after an odd count the next call no longer matches the next
    rng.integers call; after an even count it does.
    """
    words = out.size
    halves = bits.random_raw((words + 1) // 2).view("<i4")[:words]
    np.less(halves.reshape(out.shape), 0, out=out)


@np.errstate(over="ignore", invalid="ignore")
def mc_estimate(seq: VectorSequence, p: float, samples: int, seed: int) -> MomentValue:
    """Monte Carlo estimate of E[||X||_p^p] with standard error.

    The samples' signs are one stream from numpy's seeded generator
    (_draw_signs), sample s taking bits s*n .. s*n + n - 1. Each sample's
    sign bits, packed into bytes, index one table per run of 8 entries
    (_sign_tables), and X is the sum of the rows looked up, in entry
    order. While every coordinate sum S_j is at most 2^53, each table row
    and each partial sum is exact, so X is exact: the value any order of
    summation gives. Above 2^53 the fixed order still makes X the same
    float on every host.

    Each sample's value is sum_j |X_j|^p. For p in {1, 2, 3} with
    sum_j S_j^p at most 2^53, every |X_j|^p is a multiple of 2^-p of at
    most 2^(53-p), and so is every partial sum over j. All are exact, so
    |X_j|^p comes from repeated multiplication and the sum from adding
    the columns in order: the same floats as ** p and a row sum, which
    return an exactly representable result exactly. Otherwise ** p and
    the row sum compute it. Identical inputs thus give bit-identical
    results on any host, and the number of rows processed at a time
    changes none of them. Accepts any finite real p > 0.

    The mean and the standard error come from the ufunc calls that
    values.mean() and values.std(ddof=1) make (a sum kept as an array,
    the deviations subtracted and squared, a second sum), made in place
    on values, so they are the same floats and no second array of
    samples is allocated. samples above MC_MAX_SAMPLES raise
    BudgetExceededError before anything is allocated. A mean or standard
    error past the float range raises ValueError; numpy's overflow
    warnings are off, since the refusal reports it.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if not 0 < p < math.inf:
        raise ValueError(f"need finite p > 0, got {p}")
    if samples > MC_MAX_SAMPLES:
        raise BudgetExceededError("Monte Carlo samples", samples, MC_MAX_SAMPLES)
    # The exact regime of the docstring: products and column adds.
    power = int(p) if p in (1, 2, 3) else 0
    if power and sum(sum(column) ** power for column in zip(*seq.vectors)) > 1 << 53:
        power = 0
    bits = np.random.default_rng(seed).bit_generator
    too_large = f"the Monte Carlo moment of order p={p} passes the float range"
    try:
        tables = _sign_tables(seq)
    except OverflowError:  # a signed sum of the entries passes the float range
        raise ValueError(too_large) from None
    # Sign bits of a block, each row padded with False to whole bytes.
    signs = np.zeros((_MC_BLOCK, 8 * len(tables)), dtype=bool)
    values = np.empty(samples, dtype=np.float64)
    for done in range(0, samples, _MC_BLOCK):
        rows = min(_MC_BLOCK, samples - done)
        _draw_signs(bits, signs[:rows, : seq.n])
        packed = np.packbits(signs[:rows], bitorder="little").reshape(rows, len(tables))
        x = np.zeros((rows, seq.k))
        for b, table in enumerate(tables):
            x += np.take(table, packed[:, b], axis=0)
        out = values[done : done + rows]
        if power:
            np.abs(x, out=x)
            terms = x
            for _ in range(power - 1):
                terms = terms * x
            out[:] = terms[:, 0]
            for j in range(1, seq.k):
                out += terms[:, j]
        else:
            out[:] = (np.abs(x) ** p).sum(axis=1)
    # The ufunc calls of values.mean() and values.std(ddof=1), into values.
    mean = values.sum(keepdims=True) / samples
    stderr = None
    if samples > 1:
        np.subtract(values, mean, out=values)
        np.square(values, out=values)
        stderr = float(np.sqrt(values.sum() / (samples - 1)) / np.sqrt(samples))
    if not math.isfinite(mean[0]) or stderr is not None and not math.isfinite(stderr):
        raise ValueError(too_large)
    return MomentValue(
        p=p, value=float(mean[0]), provenance="monte_carlo", stderr=stderr, samples=samples
    )


@dataclass(frozen=True)
class ConvexityCounterexample:
    """A failed convexity or vertex check for f(t) = E|sum eps_i x_i| in x_i."""

    kind: str  # "midpoint" or "vertex"
    x: tuple[int, ...]
    index: int
    lo: int
    hi: int
    f_lo: Fraction
    f_mid: Fraction
    f_hi: Fraction


def convexity_probe(
    n: int, bound: int, trials: int, seed: int
) -> ConvexityCounterexample | None:
    """Randomized exact probe of per-coordinate convexity of E|X|.

    Each trial draws an integer point x in [0, bound]^n and a coordinate
    i, then checks two exact statements about f(t) = E|X| as a function
    of x_i alone: midpoint convexity f(lo) + f(hi) >= 2 f(mid) for a
    random pair lo = mid - gap, hi = mid + gap, drawn by its midpoint mid
    in [0, bound] and then gap in [0, min(mid, bound - mid)], so every
    even-gap pair in [0, bound] can be drawn; and the vertex property
    f(x_i) <= max(f(0), f(bound)). All values are exact rationals, so a
    pass is exact, not approximate. One DP per trial builds the
    distribution of the other n - 1 coordinates, and each f(t) pairs it
    with the two-point side {-t, +t}. Returns the first counterexample,
    or None.
    """
    if not (1 <= n <= 16):
        raise ValueError(f"probe supports 1 <= n <= 16, got {n}")
    if bound < 1 or trials < 1:
        raise ValueError(f"need bound >= 1 and trials >= 1, got {bound}, {trials}")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = [int(v) for v in rng.integers(0, bound + 1, size=n)]
        i = int(rng.integers(0, n))
        mid = int(rng.integers(0, bound + 1))
        gap = int(rng.integers(0, min(mid, bound - mid) + 1))
        lo, hi = mid - gap, mid + gap
        rest = signed_sum_distribution(x[:i] + x[i + 1 :])
        # Coordinate i is the two-point side {-t, +t}: t >= 0 with weight 2.
        at = lambda t: Fraction(_paired_power_sum(np.array([t]), np.array([2]), rest, 1), 2 << n)
        f_lo, f_mid, f_hi = at(lo), at(mid), at(hi)
        if f_lo + f_hi < 2 * f_mid:
            return ConvexityCounterexample(
                kind="midpoint", x=tuple(x), index=i, lo=lo, hi=hi,
                f_lo=f_lo, f_mid=f_mid, f_hi=f_hi,
            )
        f_here = at(x[i])
        f_zero, f_full = at(0), at(bound)
        if f_here > f_zero and f_here > f_full:
            return ConvexityCounterexample(
                kind="vertex", x=tuple(x), index=i, lo=0, hi=bound,
                f_lo=f_zero, f_mid=f_here, f_hi=f_full,
            )
    return None


@dataclass(frozen=True)
class VarianceDiscrepancy:
    lhs: Fraction  # E||X||_2^2 from the DP
    rhs: Fraction  # (1/4) sum_i ||a_i||^2


def variance_identity_check(seq: VectorSequence) -> VarianceDiscrepancy | None:
    """Exact check of E||X||_2^2 = (1/4) sum_i ||a_i||_2^2.

    Independence of the signs makes the variance additive across sequence
    elements; any discrepancy would mean the DP and the identity cannot
    both be right. Returns None on agreement.
    """
    lhs = exact_moment(seq, 2).value
    rhs = Fraction(sum(c * c for vec in seq.vectors for c in vec), 4)
    if lhs == rhs:
        return None
    return VarianceDiscrepancy(lhs=lhs, rhs=rhs)
