"""Signed-sum distributions, exact and Monte Carlo moments, convexity probe."""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    conway_guy,
    full_support_power_sum,
    gray_first_collision_by_dict,
    mc_estimate_by_matmul,
    random_sequence,
    signed_sum_tally,
    support_dict,
    typed_fields,
)
from dsslab import (
    BudgetExceededError,
    VectorSequence,
    convexity_probe,
    exact_moment,
    extremal_moment,
    mc_estimate,
    moments,
    signed_sum_distribution,
    variance_identity_check,
    verify_distinct,
)


def test_distribution_examples():
    assert support_dict(signed_sum_distribution((1,))) == {-1: 1, 1: 1}
    assert support_dict(signed_sum_distribution((1, 1))) == {-2: 1, 0: 2, 2: 1}
    assert support_dict(signed_sum_distribution((1, 2))) == {-3: 1, -1: 1, 1: 1, 3: 1}
    dist = signed_sum_distribution((1, 2))
    assert dist.support is dist.values
    assert len(dist.support) == dist.values.size


def test_distribution_counts_and_symmetry():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(1, 14))
        coords = tuple(int(c) for c in rng.integers(0, 9, size=n))
        dist = signed_sum_distribution(coords)
        assert int(dist.counts.sum()) == 2**n
        assert (dist.values == -dist.values[::-1]).all()
        assert (dist.counts == dist.counts[::-1]).all()


def test_distribution_matches_direct_enumeration():
    rng = np.random.default_rng(32)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        coords = tuple(int(c) for c in rng.integers(0, 7, size=n))
        expect = signed_sum_tally(coords)
        assert support_dict(signed_sum_distribution(coords)) == expect


def test_distribution_sparse_path_matches_direct_enumeration():
    # Wide coordinate spread: the support is far sparser than [-S, S] and
    # hardly folds; small n keeps the direct product affordable.
    coords = (1000, 3000, 50000, 12345)
    expect = signed_sum_tally(coords)
    assert support_dict(signed_sum_distribution(coords)) == expect


# Narrow coordinates repeat and include zeros, so the support folds
# heavily; wide ones hardly fold at all.
_COORD_RANGES = st.sampled_from((8, 10**6))

@settings(max_examples=200)
@given(_COORD_RANGES.flatmap(lambda hi: st.lists(st.integers(0, hi), max_size=10)))
def test_distribution_matches_product_oracle(coords):
    expect = signed_sum_tally(coords)
    dist = signed_sum_distribution(coords)
    assert dist.support is dist.values
    assert support_dict(dist) == expect
    assert (dist.values == -dist.values[::-1]).all()
    assert (dist.counts == dist.counts[::-1]).all()
    assert int(dist.counts.sum()) == 2 ** len(coords)
    for p in (1, 2, 3):
        assert full_support_power_sum(dist, p) == sum(abs(s) ** p for s in expect.elements()), p


@settings(max_examples=200)
@given(_COORD_RANGES.flatmap(lambda hi: st.lists(st.integers(0, hi), max_size=8)))
def test_three_sign_distribution_matches_product_oracle(coords):
    sums = signed_sum_tally(coords, signs=(-1, 0, 1))
    dist = signed_sum_distribution(coords, signs=(-1, 0, 1))
    assert support_dict(dist) == sums
    assert int(dist.counts.sum()) == 3 ** len(coords)


@st.composite
def _sequences(draw):
    k = draw(st.integers(1, 3))
    hi = draw(_COORD_RANGES)
    component = st.integers(0, hi)
    vectors = draw(st.lists(st.tuples(*[component] * k), max_size=12))
    bound = max((c for vec in vectors for c in vec), default=0)
    return VectorSequence(len(vectors), k, bound, tuple(vectors))


@settings(max_examples=200)
@given(_sequences())
def test_second_moment_is_quarter_sum_of_squares(seq):
    squares = sum(c * c for vec in seq.vectors for c in vec)
    assert exact_moment(seq, 2).value == Fraction(squares, 4)


@st.composite
def _moment_cases(draw):
    # n = 0 and n = 1 leave the first half empty; odd n makes the halves
    # unequal. Zeros and repeats fold the supports, and even p sees sums
    # of both signs.
    n = draw(st.integers(0, 10))
    k = draw(st.integers(1, 2))
    component = st.integers(0, draw(_COORD_RANGES))
    vectors = tuple(draw(st.lists(st.tuples(*[component] * k), min_size=n, max_size=n)))
    bound = max((c for vec in vectors for c in vec), default=0)
    return VectorSequence(n, k, bound, vectors), draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=300)
@given(_moment_cases())
def test_exact_moment_matches_sign_enumeration(case):
    seq, p = case
    total = 0
    for signs in itertools.product((-1, 1), repeat=seq.n):
        for j in range(seq.k):
            total += abs(sum(e * vec[j] for e, vec in zip(signs, seq.vectors))) ** p
    assert exact_moment(seq, p).value == Fraction(total, 2**seq.n * 2**p)


@settings(max_examples=60)
@given(
    st.tuples(st.integers(0, 18), _COORD_RANGES).flatmap(
        lambda nh: st.lists(st.integers(0, nh[1]), min_size=nh[0], max_size=nh[0])
    ),
    st.sampled_from((1, 2, 3)),
)
def test_exact_moment_matches_full_support_oracle(coords, p):
    n = len(coords)
    seq = VectorSequence(n, 1, max(coords, default=0), tuple((c,) for c in coords))
    expect = Fraction(full_support_power_sum(signed_sum_distribution(coords), p), 2**n * 2**p)
    assert exact_moment(seq, p).value == expect


def test_exact_moment_builds_half_supports_only(monkeypatch):
    # Conway-Guy sums are all distinct, so the full support would hold
    # 2^30 entries; each half holds at most 2^15.
    seq = conway_guy(30)
    sizes = []

    def recorded(*args, **kwargs):
        dist = signed_sum_distribution(*args, **kwargs)
        sizes.append(len(dist.values))
        return dist

    monkeypatch.setattr(moments, "signed_sum_distribution", recorded)
    exact_moment(seq, 3)
    assert sizes == [1 << 15, 1 << 15]


def test_exact_moment_conway_guy_beyond_full_support():
    # The full supports (2^24 and 2^30 entries) exceed the default budget
    # of 2^22; the halves do not.
    for n in (24, 30):
        seq = conway_guy(n)
        squares = sum(vec[0] ** 2 for vec in seq.vectors)
        assert exact_moment(seq, 2).value == Fraction(squares, 4)
        assert variance_identity_check(seq) is None
    seq = conway_guy(30)
    for p in (1, 3):
        start = time.perf_counter()
        value = exact_moment(seq, p).value
        assert time.perf_counter() - start < 1.0, p
        assert value > 0


@settings(max_examples=200)
@given(
    st.sampled_from(((-1, 1), (-1, 0, 1))).flatmap(
        lambda signs: st.tuples(
            st.just(signs),
            _COORD_RANGES.flatmap(
                lambda hi: st.lists(st.integers(0, hi), max_size=10 if len(signs) == 2 else 7)
            ),
            st.integers(1, 64),
        )
    )
)
def test_distribution_under_budget_matches_prefix_oracle(case):
    # The DP checks the budget after every step; either it returns the
    # whole support, or it refuses at the first prefix whose support
    # passes the budget, naming that support's exact size. No array it
    # folds holds more than len(signs) * budget entries.
    signs, coords, budget = case
    sizes = [len(signed_sum_tally(coords[:i], signs)) for i in range(len(coords) + 1)]
    assert sizes == sorted(sizes)  # prefix supports never shrink
    over = [size for size in sizes if size > budget]
    with mock.patch.object(moments, "_fold", wraps=moments._fold) as fold:
        if over:
            with pytest.raises(BudgetExceededError) as err:
                signed_sum_distribution(coords, budget=budget, signs=signs)
            assert (err.value.needed, err.value.budget) == (over[0], budget)
        else:
            sums = signed_sum_tally(coords, signs)
            dist = signed_sum_distribution(coords, budget=budget, signs=signs)
            assert support_dict(dist) == sums
            assert int(dist.counts.sum()) == len(signs) ** len(coords)
    assert max((len(call.args[0]) for call in fold.call_args_list), default=0) <= len(signs) * budget


def test_distribution_of_equal_coordinates_is_binomial():
    # S = 4.2e6 but only 26 support entries: the budget counts entries,
    # not the width of [-S, S].
    dist = signed_sum_distribution((168000,) * 25)
    assert support_dict(dist) == {168000 * (25 - 2 * j): math.comb(25, j) for j in range(26)}
    assert exact_moment(VectorSequence(25, 1, 168000, ((168000,),) * 25), 1).value == (
        extremal_moment(25, 1, 168000, 1).value
    )


def test_distribution_budget_error():
    # 2^22 distinct sums after 22 powers of two; the 23rd would double them.
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution([1 << i for i in range(23)])
    assert (err.value.needed, err.value.budget) == (1 << 23, 1 << 22)
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution((1, 2, 4), budget=4)
    assert (err.value.needed, err.value.budget) == (8, 4)


def test_distribution_budget_counts_folded_support():
    # The last two steps fold 8 and 10 merged entries into 5 and 6, so
    # the bound min(2 * len, reach + 1) overstates them; the exact count
    # decides.
    dist = signed_sum_distribution((16, 32, 16, 16), budget=6)
    assert support_dict(dist) == {-80: 1, -48: 3, -16: 4, 16: 4, 48: 3, 80: 1}
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution((16, 32, 16, 16), budget=5)
    assert (err.value.needed, err.value.budget) == (6, 5)


def test_three_sign_budget_counts_folded_support():
    # Step 32 merges 9 entries into 7: the bound min(3 * len, 2 * reach + 1)
    # overstates them, and the exact count decides.
    dist = signed_sum_distribution((16, 32), budget=7, signs=(-1, 0, 1))
    assert support_dict(dist) == {-48: 1, -32: 1, -16: 2, 0: 1, 16: 2, 32: 1, 48: 1}
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution((16, 32), budget=6, signs=(-1, 0, 1))
    assert (err.value.needed, err.value.budget) == (7, 6)


def test_three_sign_guards_and_validation():
    # Three signs put 3^n patterns in the counts.
    assert support_dict(signed_sum_distribution((0,) * 39, signs=(-1, 0, 1))) == {0: 3**39}
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution((0,) * 40, signs=(-1, 0, 1))
    assert (err.value.needed, err.value.budget) == (3**40, (1 << 63) - 1)
    for signs in ((1,), (0, 1), (-1, 1, 0), (-2, 0, 2)):
        with pytest.raises(ValueError):
            signed_sum_distribution((1, 2), signs=signs)
    with pytest.raises(ValueError, match="nonnegative"):
        signed_sum_distribution((1, -2), signs=(-1, 0, 1))


def test_distribution_int64_guards():
    # Counts reach 2^n and values reach the coordinate sum; both must fit
    # in int64.
    assert support_dict(signed_sum_distribution((0,) * 62)) == {0: 1 << 62}
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution((0,) * 63)
    assert (err.value.needed, err.value.budget) == (1 << 63, (1 << 63) - 1)
    top = (1 << 62, (1 << 62) - 1)
    assert support_dict(signed_sum_distribution(top)) == {
        -((1 << 63) - 1): 1, -1: 1, 1: 1, (1 << 63) - 1: 1
    }
    with pytest.raises(BudgetExceededError) as err:
        signed_sum_distribution((1 << 62, 1 << 62))
    assert (err.value.needed, err.value.budget) == (1 << 63, (1 << 63) - 1)


def _traced_peak(call):
    """call()'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_repeating_wide_support_folds_at_the_floor():
    # 13 entries of 10^7 have 27 distinct three-sign sums among 3^13 = 1.6 M
    # patterns, spread over a range far wider than the patterns, so the
    # pigeonhole bound never forces a fold: the one at the floor keeps the
    # values from growing unfolded to 3^13 (27 MB of traced memory).
    coords = (10**7,) * 13
    halves = [Counter(map(sum, itertools.product((-1, 0, 1), repeat=r))) for r in (7, 6)]
    expect = Counter()
    for (u, cu), (v, cv) in itertools.product(halves[0].items(), halves[1].items()):
        expect[10**7 * (u + v)] += cu * cv
    dist, peak = _traced_peak(lambda: signed_sum_distribution(coords, signs=(-1, 0, 1)))
    assert support_dict(dist) == expect
    assert peak < 2 << 20, peak
    # 26 such entries pass the pigeonhole limit, so the pair count of two
    # such halves runs before the walk names the first collision.
    seq = VectorSequence(26, 1, 10**7, ((10**7,),) * 26)
    assert verify_distinct(seq) == gray_first_collision_by_dict(seq, moments.DEFAULT_TABLE_BUDGET)


def test_fold_schedule_around_the_floor(monkeypatch):
    # Powers of 3 give 3^n distinct three-sign sums, all of [-S, S], so only
    # the floor and the final fold apply: 10 entries (the n = 20 verifier's
    # halves) fold once, 11 fold at 3^10 and again at the end. A step whose
    # unfolded values pass the budget folds them once, right after it, and
    # that fold's support is refused or kept: nothing is folded before the
    # step, and the values it leaves are not folded again at the end.
    # Powers of 2 repeat their three-sign sums: past the floor a fold waits
    # for 8-fold growth, however small the support's range.
    real, folds = moments._fold, []
    monkeypatch.setattr(moments, "_fold", lambda v, c: folds.append(len(v)) or real(v, c))
    two, three, default = (-1, 1), (-1, 0, 1), moments.DEFAULT_TABLE_BUDGET
    cases = (  # coords, signs, budget, the folds' input sizes, the support
        ([3**i for i in range(10)], three, default, [3**10], 3**10),
        ([3**i for i in range(11)], three, default, [3**10, 3**11], 3**11),
        ([1 << i for i in range(15)], three, default, [59049, 55269, 147447], 65535),
        ((1, 2, 4), two, 4, [8], 8),
        ((16, 32, 16, 16), two, 6, [8, 10], 6),
        ((16, 32), three, 7, [9], 7),
    )
    for coords, signs, budget, want, size in cases:
        folds.clear()
        if size > budget:
            with pytest.raises(BudgetExceededError) as err:
                signed_sum_distribution(coords, budget=budget, signs=signs)
            assert (err.value.needed, err.value.budget) == (size, budget)
        else:
            assert len(signed_sum_distribution(coords, budget=budget, signs=signs).values) == size
        assert folds == want, coords


def test_zero_entries_fold_fast():
    # Every sum is 0: the values grow unfolded to the floor, where each fold
    # leaves one entry.
    for coords, signs in (((0,) * 39, (-1, 0, 1)), ((0,) * 62, (-1, 1))):
        start = time.perf_counter()
        dist = signed_sum_distribution(coords, signs=signs)
        assert time.perf_counter() - start < 0.05, len(coords)
        assert support_dict(dist) == {0: len(signs) ** len(coords)}


# The pairing takes residues modulo 2^64 and then modulo the primes of
# moments._MODULI until their product passes 2^n * S^p. Its first two
# walls are where 2^n * S^p reaches 2^64 and 2^64 * q_1.
_WALLS = (1 << 64, (1 << 64) * moments._MODULI[1])


def _full_support_moment(seq, p):
    """E||X||_p^p from every coordinate's full 2^n-entry support."""
    total = sum(
        full_support_power_sum(signed_sum_distribution([vec[j] for vec in seq.vectors]), p)
        for j in range(seq.k)
    )
    return Fraction(total, 2**seq.n * 2**p)


@st.composite
def _pairing_cases(draw):
    # Column sums land from 1/8 to 4 times the S at which 2^n * S^p
    # reaches a wall, so both sides of each are drawn; every component
    # stays below 2^63 / n, so no DP guard refuses.
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 2))
    p = draw(st.sampled_from((1, 2, 3)))
    edge = int((draw(st.sampled_from(_WALLS)) / 2**n) ** (1 / p))
    hi = min(edge * draw(st.sampled_from((2, 4, 8, 16, 32))) // (8 * n), ((1 << 63) - 1) // n)
    component = st.integers(hi // 2, hi)
    vectors = tuple(draw(st.lists(st.tuples(*[component] * k), min_size=n, max_size=n)))
    bound = max(c for vec in vectors for c in vec)
    return VectorSequence(n, k, bound, vectors), p


def _column_sequence(coords):
    return VectorSequence(len(coords), 1, max(coords), tuple((c,) for c in coords))


def _wall_sides(wall, n, p):
    """The largest S with 2^n * S^p < wall, and S + 1."""
    s = int((wall / 2**n) ** (1 / p))
    while (s + 1) ** p << n < wall:
        s += 1
    while s**p << n >= wall:
        s -= 1
    return s, s + 1


# Column sums S on either side of each wall, as 1 entry (where the total
# is 2 * S^p, 2^n * S^p itself), 2 entries or 3 (halves of 1 and 2),
# wherever both halves sum below 2^63, with the number of moduli each
# needs: w + 1 below wall w and w + 2 past it. At n = 1, p = 1 the side
# past 2^64 would be the entry 2^63, which the DP refuses, and no n <= 3
# at p = 1 reaches 2^64 * q_1.
_PAIRING_EDGES = tuple(
    (_column_sequence(parts), p, w + side)
    for w, wall in enumerate(_WALLS, start=1)
    for n, p in ((1, 1), (2, 1), (1, 2), (3, 2), (1, 3), (3, 3))
    for side, s in enumerate(_wall_sides(wall, n, p))
    for parts in [[(s,), (s - s // 2, s // 2), (s - 2 * (s // 4), s // 4, s // 4)][n - 1]]
    if all(sum(half) < 1 << 63 for half in (parts[: n // 2], parts[n // 2 :]))
)


@settings(max_examples=200)
@given(_pairing_cases())
def test_residue_pairing_matches_full_support(case):
    seq, p = case
    assert exact_moment(seq, p).value == _full_support_moment(seq, p)


def test_residue_pairing_bound_edges(monkeypatch):
    assert len(_PAIRING_EDGES) == 2 * 6 * 2 - 5
    real, moduli = moments._paired_residue, []
    monkeypatch.setattr(
        moments, "_paired_residue", lambda *args: moduli.append(args[-1]) or real(*args)
    )
    for seq, p, needed in _PAIRING_EDGES:
        moduli.clear()
        assert exact_moment(seq, p).value == _full_support_moment(seq, p), (seq, p)
        assert moduli == list(moments._MODULI[:needed]), (seq, p)
    # At 2^63 - 1 itself the 2^64 residue alone is exact: one y = 2^63 - 1
    # against the distribution of no entries.
    empty = signed_sum_distribution(())
    ys, weights = np.array([2**63 - 1]), np.array([1])
    assert moments._paired_power_sum(ys, weights, empty, 1) == 2**63 - 1


def test_pairing_moduli():
    # 2^64 first, then primes below 2^32, distinct and prime by trial
    # division up to 2^16. Their product passes 2^316 = 2^124 * (2^64)^3,
    # the largest 2^n * S^p the DP guards admit: two halves of at most 62
    # entries, each summing below 2^63.
    word, *primes = moments._MODULI
    assert word == 1 << 64
    assert len(set(primes)) == len(primes) == 8
    for q in primes:
        assert q < 1 << 32
        assert all(q % d for d in range(2, math.isqrt(q) + 1)), q
    assert math.prod(moments._MODULI) > 1 << 316
    assert math.prod(moments._MODULI[:-1]) < 1 << 316


def test_pairing_refuses_sides_of_2_to_32_entries():
    # A prime residue sums a side's residues unreduced, so a side of 2^32
    # entries is refused before anything is allocated; broadcast views give
    # such sides without the memory.
    def side(entries):
        return np.broadcast_to(np.int64(1), (entries,))

    small = signed_sum_distribution((1,))
    big = moments.SignedSumDistribution(values=side(1 << 32), counts=side(1 << 32))
    for ys, inner in ((side(1 << 32), small), (side(1), big)):
        with pytest.raises(BudgetExceededError) as err:
            moments._paired_power_sum(ys, side(len(ys)), inner, 3)
        assert (err.value.needed, err.value.budget) == (1 << 32, (1 << 32) - 1)


def test_exact_moment_examples():
    seq = VectorSequence(3, 1, 4, ((1,), (2,), (4,)))
    assert exact_moment(seq, 1).value == 2
    assert exact_moment(seq, 2).value == Fraction(21, 4)
    assert exact_moment(seq, 3).value == Fraction(31, 2)
    pair = VectorSequence(2, 1, 1, ((1,), (1,)))
    assert exact_moment(pair, 1).value == Fraction(1, 2)


def test_exact_moment_metadata():
    seq = VectorSequence(2, 2, 3, ((1, 2), (3, 0)))
    mv = exact_moment(seq, 1)
    assert mv.provenance == "exact_dp"
    assert mv.stderr is None and mv.samples is None


def test_exact_moment_validation():
    seq = VectorSequence(1, 1, 1, ((1,),))
    for bad in (0, 4):
        with pytest.raises(ValueError):
            exact_moment(seq, bad)


def test_integral_float_p_is_taken_as_int():
    # p = 2.0 or 3.0 gives the int call's exact result; 2.5 is refused.
    seq = VectorSequence(3, 2, 4, ((1, 3), (2, 0), (4, 4)))
    for p in (2, 3):
        assert typed_fields(exact_moment(seq, float(p))) == typed_fields(exact_moment(seq, p))
    assert typed_fields(extremal_moment(4, 2, 3, 3.0)) == typed_fields(extremal_moment(4, 2, 3, 3))
    with pytest.raises(ValueError):
        exact_moment(seq, 2.5)
    with pytest.raises(ValueError):
        extremal_moment(4, 2, 3, 2.5)


def test_extremal_matches_exact_on_all_max_sequences():
    for n in range(1, 13):
        for k in (1, 2, 3):
            for m in (1, 3):
                seq = VectorSequence(n, k, m, ((m,) * k,) * n)
                for p in (1, 3):
                    assert (
                        exact_moment(seq, p).value == extremal_moment(n, k, m, p).value
                    ), (n, k, m, p)


def test_extremal_metadata_and_validation():
    mv = extremal_moment(4, 2, 3, 3)
    assert mv.value == 81
    assert mv.provenance == "closed_form"
    with pytest.raises(ValueError):
        extremal_moment(4, 2, 3, 2)
    for shape in ((0, 2, 3), (4, 0, 3), (4, 2, -1)):
        with pytest.raises(ValueError, match="bad shape"):
            extremal_moment(*shape, 1)


def test_random_sequences_never_beat_extremal():
    rng = np.random.default_rng(20260816)
    for trial in range(300):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        seq = random_sequence(rng, n, k, m)
        for p in (1, 3):
            assert exact_moment(seq, p).value <= extremal_moment(n, k, m, p).value


def test_variance_identity_examples():
    seq = VectorSequence(3, 1, 4, ((1,), (2,), (4,)))
    assert variance_identity_check(seq) is None
    assert exact_moment(seq, 2).value == Fraction(1 + 4 + 16, 4)

    plane = VectorSequence(2, 2, 1, ((1, 0), (0, 1)))
    assert variance_identity_check(plane) is None
    assert exact_moment(plane, 2).value == Fraction(1, 2)


def test_variance_identity_reports_a_discrepancy():
    # An exact moment shifted by 1 no longer meets (1/4) sum ||a_i||^2.
    real = moments.exact_moment
    shifted = lambda seq, p: dataclasses.replace(real(seq, p), value=real(seq, p).value + 1)
    seq = VectorSequence(2, 1, 3, ((1,), (3,)))
    with mock.patch.object(moments, "exact_moment", shifted):
        found = variance_identity_check(seq)
    assert found == moments.VarianceDiscrepancy(lhs=Fraction(7, 2), rhs=Fraction(5, 2))


def test_variance_identity_on_randoms():
    rng = np.random.default_rng(777)
    for trial in range(100):
        seq = random_sequence(
            rng, int(rng.integers(1, 13)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        )
        assert variance_identity_check(seq) is None
        squares = sum(c * c for v in seq.vectors for c in v)
        assert exact_moment(seq, 2).value == Fraction(squares, 4)


def test_mc_estimate_is_deterministic_per_seed():
    seq = VectorSequence(3, 1, 4, ((1,), (2,), (4,)))
    a = mc_estimate(seq, 2, samples=4096, seed=11)
    b = mc_estimate(seq, 2, samples=4096, seed=11)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    assert a.samples == 4096
    assert a.provenance == "monte_carlo"
    c = mc_estimate(seq, 2, samples=4096, seed=12)
    assert c.value != a.value


def test_mc_estimate_tracks_exact_value():
    seq = VectorSequence(4, 2, 5, ((1, 0), (2, 3), (5, 1), (0, 4)))
    exact = float(exact_moment(seq, 1).value)
    for seed in (0, 1, 2):
        mv = mc_estimate(seq, 1, samples=20000, seed=seed)
        assert abs(mv.value - exact) <= 4.0 * mv.stderr, seed


def test_mc_estimate_single_sample_has_no_stderr():
    seq = VectorSequence(2, 1, 2, ((1,), (2,)))
    mv = mc_estimate(seq, 1, samples=1, seed=5)
    assert mv.stderr is None
    assert mv.samples == 1


def test_mc_estimate_validation():
    seq = VectorSequence(1, 1, 1, ((1,),))
    with pytest.raises(ValueError):
        mc_estimate(seq, 1, samples=0, seed=1)
    with pytest.raises(ValueError):
        mc_estimate(seq, 0, samples=10, seed=1)
    for p in (math.inf, float("1e400"), math.nan, -math.inf):
        with pytest.raises(ValueError):
            mc_estimate(seq, p, samples=10, seed=1)
    # unlike the exact path, any finite real p > 0 is fair game here
    mv = mc_estimate(seq, 2.5, samples=16, seed=1)
    assert mv.value >= 0.0


def test_mc_estimate_refuses_a_moment_past_the_float_range():
    # The p = 3 mean overflows; at p = 1 the mean is finite but the squared
    # deviations of the stderr are not. Each is refused, with no warning.
    seq = VectorSequence(2, 1, 2**700, ((2**700,), (2**699,)))
    for p in (1, 3, 2.5):
        with pytest.raises(ValueError, match="passes the float range"):
            mc_estimate(seq, p, samples=10, seed=1)
    # Components past the float range cannot even fill the sign tables.
    with pytest.raises(ValueError, match="passes the float range"):
        mc_estimate(VectorSequence(1, 1, 2**1100, ((2**1100,),)), 1, samples=10, seed=1)
    # One sample has no stderr, and its |X| is finite.
    assert mc_estimate(seq, 1, samples=1, seed=1).value in (3 * 2.0**698, 2.0**698)


def test_mc_estimate_refuses_samples_past_cap():
    # One float64 per sample: the cap is 1 GiB, and a call past it is refused
    # before anything is allocated.
    assert moments.MC_MAX_SAMPLES == 1 << 27
    seq = VectorSequence(3, 1, 4, ((1,), (2,), (4,)))
    for samples in (moments.MC_MAX_SAMPLES + 1, 10**10):
        def call():
            with pytest.raises(BudgetExceededError) as err:
                mc_estimate(seq, 2, samples=samples, seed=1)
            return err.value

        err, peak = _traced_peak(call)
        assert (err.needed, err.budget) == (samples, moments.MC_MAX_SAMPLES)
        assert peak < 1 << 16, peak


@st.composite
def _mc_inputs(draw, low, high):
    """(seq, p, samples, seed) with every component in [low, high]."""
    n = draw(st.integers(0, 20))
    k = draw(st.integers(1, 4))
    vectors = draw(
        st.lists(st.tuples(*[st.integers(low, high)] * k), min_size=n, max_size=n)
    )
    bound = max((c for vec in vectors for c in vec), default=0)
    seq = VectorSequence(n, k, bound, tuple(vectors))
    pinned = st.sampled_from((1, 2, 3, 17, 4095, 4096, 4097))
    samples = draw(st.one_of(pinned, st.integers(1, 9000)))
    p = draw(st.sampled_from((0.5, 1, 1.5, 2, 3)))
    return seq, p, samples, draw(st.integers(0, 2**32))


# Four coordinates, each summing to 2^17: sum_j S_j^3 is 2^53 exactly.
_CUBES_AT_2_53 = ((65536, 16384, 32768, 16384), (32768, 65536, 16384, 16384),
                  (16384, 32768, 65536, 32768), (16384, 16384, 16384, 65536))
_SMALL_20 = tuple((i % 7, 3 * i % 11, 5 * i % 13) for i in range(20))


@settings(max_examples=120)
@given(st.one_of(_mc_inputs(0, 2**53 // 20), _mc_inputs(0, 2**10)))
@example((VectorSequence(3, 1, 4, ((1,), (2,), (4,))), 2, 1, 5))
@example((VectorSequence(3, 2, 9, ((1, 9), (2, 0), (7, 4))), 1, 4097, 8))
@example((VectorSequence(3, 2, 9, ((1, 9), (2, 0), (7, 4))), 2, 4097, 8))
@example((VectorSequence(3, 2, 9, ((1, 9), (2, 0), (7, 4))), 3, 4097, 8))
@example((VectorSequence(20, 3, 12, _SMALL_20), 3.0, 5000, 9))
@example((VectorSequence(20, 3, 12, _SMALL_20), 1.0, 5000, 9))
@example((VectorSequence(4, 4, 65536, _CUBES_AT_2_53), 3, 4097, 10))
@example((VectorSequence(4, 5, 65536, tuple(v + (i == 0,) for i, v in enumerate(_CUBES_AT_2_53))),
          3, 4097, 10))
@example((VectorSequence(2, 2, 2**52, ((2**52, 2**51), (0, 2**51))), 1, 4097, 11))
@example((VectorSequence(2, 2, 2**52, ((2**52, 2**51), (1, 2**51))), 1, 4097, 11))
@example((VectorSequence(1, 1, 2**53, ((2**53,),)), 3, 3, 1))
def test_mc_estimate_equals_matmul_oracle_exactly(inputs):
    # Every coordinate sum is at most 2^53, so both routes sum exactly.
    # The examples pin samples = 1 and odd samples * n, whose last sign
    # draw leaves half a raw word unused, and both sides of the bound
    # sum_j S_j^p <= 2^53 under which |x|^p comes from products: at p = 3
    # (sums 2^53 and 2^53 + 1) and p = 1 (the same), next to small
    # components at p = 1, 2, 3 and the CLI's float 3.0.
    seq, p, samples, seed = inputs
    got = mc_estimate(seq, p, samples, seed)
    assert got == mc_estimate_by_matmul(seq, p, samples, seed)


def test_powers_by_products_are_exact_below_2_53():
    # Every half-integer x = N/2 with N^3 <= 2^53 has x ** p == x * ... * x
    # for p = 1, 2, 3, as ints and as floats: the products mc_estimate uses
    # in its exact regime give the floats ** p gives, on this host's libm.
    top = 208063
    assert top**3 <= 2**53 < (top + 1) ** 3
    x = np.arange(top + 1, dtype=np.float64) / 2
    assert np.array_equal(x * x * x, (np.arange(top + 1, dtype=object) ** 3 / 8).astype(np.float64))
    for p, product in ((1, x), (2, x * x), (3, x * x * x)):
        assert np.array_equal(x**p, product), p
        assert np.array_equal(x ** float(p), product), p


@settings(max_examples=60)
@given(_mc_inputs(2**53, 2**62))
def test_mc_estimate_near_matmul_oracle_above_2_53(inputs):
    # Past 2^53 the matmul rounds in its BLAS kernel's order, the tables
    # once per entry and then in entry order: equal to 1e-12, stated.
    seq, p, samples, seed = inputs
    got = mc_estimate(seq, p, samples, seed)
    want = mc_estimate_by_matmul(seq, p, samples, seed)
    assert math.isclose(got.value, want.value, rel_tol=1e-12, abs_tol=0.0)
    if samples == 1:
        assert got.stderr is want.stderr is None
    else:
        assert math.isclose(got.stderr, want.stderr, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("rows, n", [(1, 1), (3, 7), (4, 7), (5, 20), (17, 0)])
def test_raw_sign_bits_equal_integer_draws(rows, n):
    # The sampler relies on rng.integers(0, 2) keeping the top bit of each
    # 32-bit word, low half of a raw draw first; rows * n odd and even.
    for seed in (0, 1, 2**31 + 7):
        got = np.empty((rows, n), dtype=bool)
        moments._draw_signs(np.random.default_rng(seed).bit_generator, got)
        assert np.array_equal(got, np.random.default_rng(seed).integers(0, 2, size=(rows, n)) == 1)


def test_sign_draws_continue_one_stream():
    # Blocks of an even word count pick up where the last one stopped, so
    # successive draws read as one rng.integers call; the last may be odd.
    bits = np.random.default_rng(9).bit_generator
    got = np.empty((2 * 4096 + 5, 7), dtype=bool)
    for block in (slice(0, 4096), slice(4096, 8192), slice(8192, None)):
        moments._draw_signs(bits, got[block])
    assert np.array_equal(got, np.random.default_rng(9).integers(0, 2, size=got.shape) == 1)


@pytest.mark.parametrize("first", [(3, 7), (4, 7)])
def test_sign_draws_match_integer_draws_within_one_call(first):
    # A call matches one rng.integers call for an odd (21) and an even (28)
    # count. numpy keeps the unused high half of an odd count's last draw
    # for its next call, which _draw_signs discards: the second call
    # matches after the even count only.
    bits, rng = np.random.default_rng(5).bit_generator, np.random.default_rng(5)
    matches = []
    for shape in (first, (5, 7)):
        got = np.empty(shape, dtype=bool)
        moments._draw_signs(bits, got)
        matches.append(np.array_equal(got, rng.integers(0, 2, size=shape) == 1))
    assert matches == [True, first[0] * first[1] % 2 == 0]


@pytest.mark.parametrize("block", [2, 6, 1 << 15])
def test_mc_estimate_does_not_depend_on_block_size(block, monkeypatch):
    rng = np.random.default_rng(404)
    seqs = [random_sequence(rng, n, k, 1000) for n, k in ((7, 3), (13, 1), (20, 4))]
    want = [mc_estimate(seq, 3, 4097, seed) for seed, seq in enumerate(seqs)]
    monkeypatch.setattr(moments, "_MC_BLOCK", block)
    assert [mc_estimate(seq, 3, 4097, seed) for seed, seq in enumerate(seqs)] == want


def test_convexity_probe_finds_nothing():
    assert convexity_probe(4, 8, trials=200, seed=1) is None
    assert convexity_probe(8, 5, trials=200, seed=2) is None


def test_convexity_probe_linear_case():
    # With one vector the mean absolute sum is linear in the component,
    # so midpoint convexity holds with equality.
    assert convexity_probe(1, 9, trials=50, seed=4) is None


def test_convexity_probe_reports_a_midpoint_failure():
    # A fault that makes f(t) = -t^2 / 2^(n+1), concave in t, fails the
    # first trial whose pair has lo < hi.
    concave = lambda ys, weights, inner, p: -int(ys[0]) ** 2
    with mock.patch.object(moments, "_paired_power_sum", concave):
        found = convexity_probe(4, 10, trials=50, seed=1)
    assert found == moments.ConvexityCounterexample(
        kind="midpoint", x=(5, 5, 8, 10), index=0, lo=1, hi=9,
        f_lo=Fraction(-1, 32), f_mid=Fraction(-25, 32), f_hi=Fraction(-81, 32),
    )
    assert found.f_lo + found.f_hi < 2 * found.f_mid


def test_convexity_probe_reports_a_vertex_failure():
    # A spike at t = 3 passes every midpoint whose mid is not 3, and fails
    # the vertex check where x_i = 3 lies strictly inside [0, bound].
    spike = lambda ys, weights, inner, p: int(ys[0] == 3)
    with mock.patch.object(moments, "_paired_power_sum", spike):
        found = convexity_probe(4, 6, trials=50, seed=4)
    assert found == moments.ConvexityCounterexample(
        kind="vertex", x=(5, 6, 6, 3), index=3, lo=0, hi=6,
        f_lo=Fraction(0), f_mid=Fraction(1, 32), f_hi=Fraction(0),
    )
    assert found.x[found.index] == 3


def test_convexity_probe_validation():
    with pytest.raises(ValueError):
        convexity_probe(0, 4, trials=5, seed=1)
    with pytest.raises(ValueError):
        convexity_probe(17, 4, trials=5, seed=1)
    with pytest.raises(ValueError):
        convexity_probe(4, 4, trials=0, seed=1)
