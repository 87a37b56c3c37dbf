"""Gamma evaluation, p-norm ball geometry and lattice shell sums."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattice_shell_points, typed_fields
from dsslab import (
    BudgetExceededError,
    LatticeShellSummary,
    ball_volume,
    gamma_fn,
    gamma_root,
    lattice_count_check,
    lattice_shell_enumerate,
    max_enumerable_n,
    pnorm,
    radius_for_count,
)
from dsslab.pnorm import (
    DEFAULT_ENUM_BUDGET,
    _ball_count,
    _ball_norm_sum,
    _cross_polytope_count,
    _cross_polytope_norm_sum,
    _iroot,
    _orthant_slice,
    _power_sum,
)

mpmath = pytest.importorskip("mpmath")
checks = pytest.importorskip("checks")


def test_gamma_examples():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
    assert abs(gamma_fn(4.0 / 3.0) - 0.892979511569249) < 1e-12
    assert abs(gamma_fn(5.0 / 3.0) - 0.902745292950934) < 1e-12


def test_gamma_integer_and_half_integer_short_circuits():
    # These arguments go through exact rational arithmetic, so the
    # result is the correctly rounded double, not a math.gamma estimate
    # (math.gamma(1.5) differs from sqrt(pi)/2 in the last bit).
    assert gamma_fn(3.0) == 2.0
    assert gamma_fn(7.0) == 720.0
    assert gamma_fn(1.5) == math.sqrt(math.pi) / 2.0
    assert gamma_fn(2.5) == 3.0 * math.sqrt(math.pi) / 4.0
    # Every integer and half-integer argument up to 171.5 is the correctly
    # rounded rational, times sqrt(pi) at the half-integers.
    for twice in range(1, 344):
        m = twice // 2
        if twice % 2 == 0:
            ref = float(Fraction(math.factorial(m - 1)))
        else:
            ref = float(Fraction(math.factorial(2 * m), 4**m * math.factorial(m))) * math.sqrt(math.pi)
        assert gamma_fn(twice / 2) == ref, twice / 2


def test_gamma_against_stdlib_grid():
    x = 0.05
    while x <= 170.0:
        ref = math.gamma(x)
        assert abs(gamma_fn(x) - ref) <= 1e-12 * ref, x
        x *= 1.07


def test_gamma_root_past_the_double_range_is_lgamma():
    # Where Gamma(x) overflows a double, the root is taken in log space.
    for x in np.linspace(171.7, 500.0, 400).tolist()[1:]:
        for r in (4, 5, 17, 200, 499):
            assert gamma_root(x, r) == math.exp(math.lgamma(x) / r), (x, r)


def test_gamma_against_mpmath_spot_values():
    with mpmath.workdps(30):
        for x in (0.07, 0.9, 1.3333333333333333, 12.75, 99.2, 151.0):
            ref = float(mpmath.gamma(x))
            assert abs(gamma_fn(x) - ref) <= 1e-12 * ref, x


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        gamma_fn(0.01)
    with pytest.raises(ValueError):
        gamma_fn(500.5)
    with pytest.raises(OverflowError):
        gamma_fn(180.0)
    # From 172 on, every integer and half-integer passes the double range.
    for twice in range(344, 1001):
        with pytest.raises(OverflowError, match=rf"^Gamma\({twice / 2}\) exceeds double range$"):
            gamma_fn(twice / 2)
    with pytest.raises(ValueError, match="root order"):
        gamma_root(2.0, 0)


def test_gamma_root_matches_lgamma():
    for k in range(1, 201):
        mine = gamma_root(k + 1.0, k)
        ref = math.exp(math.lgamma(k + 1.0) / k)
        assert abs(mine - ref) <= 1e-12 * ref, k
    # k = 1 factorial root stays exact.
    assert gamma_root(2.0, 1) == 1.0


def test_ball_volume_examples():
    assert abs(ball_volume(2, 2, 1.0) - math.pi) < 1e-14
    assert abs(ball_volume(2, 1, 1.0) - 2.0) < 1e-14
    assert abs(ball_volume(1, 3, 1.0) - 2.0) < 1e-14
    assert abs(ball_volume(3, 2, 2.0) - 33.510321638291128) < 1e-12


def test_ball_volume_scales_with_radius():
    base = ball_volume(3, 1, 1.0)
    assert abs(ball_volume(3, 1, 2.0) - 8.0 * base) < 1e-12 * base


def test_ball_validation():
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        ball_volume(0, 2, 1.0)
    with pytest.raises(ValueError):
        ball_volume(2, 2, -1.0)
    with pytest.raises(ValueError, match="norm exponent"):
        ball_volume(2, 0, 1.0)
    for n, k, p, what in (
        (-1, 2, 2, "count exponent"),
        (3, 0, 2, "dimension must be >= 1, got 0"),
        (3, 2, 0, "norm exponent"),
    ):
        with pytest.raises(ValueError, match=what):
            radius_for_count(n, k, p)


def test_radius_for_count_examples():
    assert radius_for_count(4, 1, 1) == 8.0
    assert abs(radius_for_count(4, 2, 1) - math.sqrt(8.0)) < 1e-14
    assert abs(radius_for_count(3, 3, 3) - 1.119846521722186) < 1e-12
    # k = 1 collapses to 2^(n - 1) exactly for every p, which needs
    # gamma_root(x, 1) to equal gamma_fn(x) bit for bit.
    for p in range(1, 30):
        assert radius_for_count(5, 1, p) == 16.0, p


def test_radius_for_count_equals_the_direct_formula():
    # The cached gamma factors leave R the same three float operations.
    for n, k, p in itertools.product(range(65), range(1, 13), range(1, 6)):
        direct = 2.0 ** (n / k) * gamma_root(1.0 + k / p, k) / (2.0 * gamma_fn(1.0 + 1.0 / p))
        assert radius_for_count(n, k, p) == direct, (n, k, p)


def test_max_enumerable_n_evaluates_the_gammas_once(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(pnorm, "gamma_fn", counted(gamma_fn))
    monkeypatch.setattr(pnorm, "gamma_root", counted(gamma_root))
    for k, p in itertools.product(range(1, 8), range(1, 6)):
        pnorm._radius_gammas.cache_clear()
        calls.clear()
        assert max_enumerable_n(k, p) > 0
        # One gamma_root, which takes its gamma_fn, and one gamma_fn.
        assert calls == ["gamma_root", "gamma_fn", "gamma_fn"], (k, p)


def test_radius_round_trips_through_volume():
    for n in range(1, 41):
        for k, p in itertools.product(range(1, 5), range(1, 5)):
            r = radius_for_count(n, k, p)
            vol = ball_volume(k, p, r)
            assert abs(vol - 2.0**n) <= 1e-10 * 2.0**n, (n, k, p)


def test_shell_examples():
    s = lattice_shell_enumerate(2, 1, 1)
    assert s.count == 4
    assert s.discrete_sum == 4.0
    assert s.continuum_ratio == 1.0

    s = lattice_shell_enumerate(3, 1, 1)
    assert s.count == 8
    assert s.discrete_sum == 16.0

    for k, p in ((1, 1), (2, 2), (3, 3)):
        empty = lattice_shell_enumerate(0, k, p)
        assert empty.count == 1
        assert empty.discrete_sum == 0.0
        assert empty.continuum_ratio is None


def test_shell_ratio_exact_at_k_p_one():
    # One dimensional first powers pair off exactly against the
    # continuum value, with no tolerance at all.
    for n in range(1, 17):
        assert lattice_shell_enumerate(n, 1, 1).continuum_ratio == 1.0, n


def test_shell_close_to_continuum_at_reduced_budget():
    # Keep this quick: a 2^19 candidate budget still reaches n with
    # 2^n in the tens of thousands, plenty for a 5 percent check.
    for k in (1, 2, 3):
        for p in (1, 2, 3):
            n = max_enumerable_n(k, p, budget=1 << 19)
            assert 2**n >= 2**14, (k, p, n)
            ratio = lattice_shell_enumerate(n, k, p, budget=1 << 19).continuum_ratio
            assert abs(ratio - 1.0) <= 0.05, (k, p, n, ratio)


def test_shell_deviation_shrinks_in_one_dimension():
    # The k = 1 shells admit closed forms, so the deviation sequence
    # is provably monotone; check the last three enumerable n.
    for p in (1, 2, 3):
        n_max = max_enumerable_n(1, p)
        devs = []
        for n in (n_max - 2, n_max - 1, n_max):
            devs.append(abs(lattice_shell_enumerate(n, 1, p).continuum_ratio - 1.0))
        assert devs[0] >= devs[1] >= devs[2], (p, devs)
        assert devs[2] <= 0.05


def test_one_dimensional_shells_match_faulhaber():
    # The 2^n points of Z nearest 0 are 0, +-1, ..., +-(m - 1) and one of
    # +-m, with m = 2^(n - 1). The p = 3 totals pass 2^63, so an int64
    # reduction that wraps fails here.
    faulhaber = {
        1: lambda j: j * (j + 1) // 2,
        2: lambda j: j * (j + 1) * (2 * j + 1) // 6,
        3: lambda j: (j * (j + 1) // 2) ** 2,
    }
    for p, power_sum in faulhaber.items():
        n_max = max_enumerable_n(1, p)
        for n in range(1, n_max + 1):
            m = 1 << (n - 1)
            s = lattice_shell_enumerate(n, 1, p)
            assert s.discrete_sum == 2 * power_sum(m - 1) + m**p, (p, n)
            assert s.boundary_norm_power == m**p, (p, n)
    assert lattice_shell_enumerate(n_max, 1, 3).discrete_sum >= 2**63


def test_points_agree_with_summary():
    for n, k, p in ((4, 2, 1), (5, 2, 2), (6, 3, 3), (3, 1, 2)):
        summary = lattice_shell_enumerate(n, k, p)
        pts = lattice_shell_points(n, k, p)
        assert len(pts) == 2**n == summary.count
        assert sum(norm for _, norm in pts) == summary.discrete_sum
        assert max(norm for _, norm in pts) == summary.boundary_norm_power
        assert any(pt == (0,) * k for pt, _ in pts)
        assert len({pt for pt, _ in pts}) == len(pts)


def test_points_take_smallest_norms():
    # The selected shell must consist of 2^n smallest norm values among
    # all candidates in a comfortably larger box.
    n, k, p = 6, 2, 2
    pts = lattice_shell_points(n, k, p)
    t = max(max(abs(c) for c in pt) for pt, _ in pts) + 2
    all_norms = sorted(
        sum(abs(c) ** p for c in cand)
        for cand in itertools.product(range(-t, t + 1), repeat=k)
    )
    selected = sorted(norm for _, norm in pts)
    assert selected == all_norms[: 2**n]


def test_points_norm_multiset_ignores_tie_breaking():
    # Reselect with a different boundary tie break; the norm multiset
    # must not move, only the identities of tied boundary points may.
    n, k, p = 7, 2, 1
    pts = lattice_shell_points(n, k, p)
    t = max(max(abs(c) for c in pt) for pt, _ in pts) + 2
    ranked = sorted(
        (sum(abs(c) ** p for c in cand), tuple(reversed(cand)))
        for cand in itertools.product(range(-t, t + 1), repeat=k)
    )[: 2**n]
    assert sorted(norm for norm, _ in ranked) == sorted(norm for _, norm in pts)


# The 9 (k, p, n_max) cells of the benchmark's shell round, summarised by
# the box-array core this module used to build (the full box [-t, t]^k,
# filtered and sorted), as literals: the slice core must reproduce every
# field, floats included. One field is re-pinned: at (21, 1, 3) r_discrete
# is now the exact root 2^20 of v* = 2^60, which (2^60) ** (1/3) rounded
# to 1048575.9999999992.
PINNED_SHELLS = (
    LatticeShellSummary(n=21, k=1, p=1, count=2097152, discrete_sum=1099511627776, boundary_norm_power=1048576, r_discrete=1048576.0, r_continuous=1048576.0, continuum_ratio=1.0),
    LatticeShellSummary(n=21, k=1, p=2, count=2097152, discrete_sum=768614336404914176, boundary_norm_power=1099511627776, r_discrete=1048576.0, r_continuous=1048576.0, continuum_ratio=1.0000000000004547),
    LatticeShellSummary(n=21, k=1, p=3, count=2097152, discrete_sum=604462909807864343166976, boundary_norm_power=1152921504606846976, r_discrete=1048576.0, r_continuous=1048576.0, continuum_ratio=1.0000000000009095),
    LatticeShellSummary(n=20, k=2, p=1, count=1048576, discrete_sum=506166500, boundary_norm_power=724, r_discrete=724.0, r_continuous=724.0773439350247, continuum_ratio=0.9999995060995052),
    LatticeShellSummary(n=21, k=2, p=2, count=2097152, discrete_sum=699970851480, boundary_norm_power=667556, r_discrete=817.0410026430742, r_continuous=817.0337902621343, continuum_ratio=1.0000000132716012),
    LatticeShellSummary(n=21, k=2, p=3, count=2097152, discrete_sum=383590746672252, boundary_norm_power=457256000, r_discrete=770.4062622531702, r_continuous=770.4173959020397, continuum_ratio=0.999999954688571),
    LatticeShellSummary(n=19, k=3, p=1, count=524288, discrete_sum=28803391, boundary_norm_power=73, r_discrete=73.0, r_continuous=73.26171152341323, continuum_ratio=0.9998512147172822),
    LatticeShellSummary(n=20, k=3, p=2, count=1048576, discrete_sum=2498959542, boundary_norm_power=3974, r_discrete=63.03967004989794, r_continuous=63.0236813979326, continuum_ratio=1.0000012096283006),
    LatticeShellSummary(n=21, k=3, p=3, count=2097152, discrete_sum=386022093895, boundary_norm_power=368027, r_discrete=71.6627099552217, r_continuous=71.67017739021986, continuum_ratio=0.9999926563711703),
)

def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError as err:
        return (err.needed, err.budget)


# max_enumerable_n(k, p, budget) for k = 1, 2, ... (rows) and p = 1..5
# (columns), pinned from cores that counted every box they grew (k = 1..4
# from the box-array core); a refusal is pinned as its (needed, budget).
PINNED_MAX_N = {
    10**4: ((13, 13, 13, 13, 13), (12, 12, 12, 13, 13), (9, 11, 12, 12, 12), (5, 8, 9, 9, 9)),
    2**22: (
        (21, 21, 21, 16, 13), (20, 21, 21, 21, 21), (19, 20, 21, 21, 21), (16, 19, 20, 21, 21),
        (13, 18, 19, 19, 20), (8, 14, 16, 16, 17), (1, 9, 11, 12, 12),
        ((7**8, 2**22), 2, 4, 5, 6),
    ),
    2**16: (
        (15, 15, 15, 15, 13), (14, 15, 15, 15, 15), (12, 14, 15, 15, 15), (9, 12, 13, 13, 13),
        (6, 10, 11, 12, 12), ((7**6, 2**16), 2, 4, 4, 5),
        ((7**7, 2**16), (5**7, 2**16), (5**7, 2**16), (5**7, 2**16), (5**7, 2**16)),
        ((7**8, 2**16), (5**8, 2**16), (5**8, 2**16), (5**8, 2**16), (5**8, 2**16)),
    ),
}


def test_shell_cells_reproduce_pinned_summaries():
    for pinned in PINNED_SHELLS:
        assert lattice_shell_enumerate(pinned.n, pinned.k, pinned.p) == pinned


def test_max_enumerable_n_reproduces_pinned_table(monkeypatch):
    # Budget and int64 arithmetic only: no slice is built, no ball counted.
    def refuse(*args):
        raise AssertionError("max_enumerable_n built a slice or counted a ball")

    monkeypatch.setattr(pnorm, "_orthant_slice", refuse)
    monkeypatch.setattr(pnorm, "_ball_count", refuse)
    for budget, rows in PINNED_MAX_N.items():
        for k, row in enumerate(rows, start=1):
            for p, n_max in enumerate(row, start=1):
                assert _outcome(max_enumerable_n, k, p, budget) == n_max, (k, p, budget)


def test_covering_bound_settles_the_first_box():
    # A query takes the first box side t0 for every (k, p) and never grows it:
    # this is the count it relies on, up to one n past each limit. For
    # p = 2 and k = 5..8 no proof covers t0, so this is the whole evidence.
    for budget in (2**22, 2**16):
        for p in range(1, 6):
            for k in range(1, 9):
                n_max = _outcome(max_enumerable_n, k, p, budget)
                top = n_max + 1 if isinstance(n_max, int) else 0
                for n in range(top + 1):
                    t0 = max(1, math.ceil(radius_for_count(n, k, p)) + 1)
                    if k * t0**p > np.iinfo(np.int64).max:
                        continue  # refused by the int64 guard before any count
                    orthant = _orthant_slice(t0, k, p, t0**p)
                    assert _ball_count(orthant, t0**p, p, t0) >= 2**n, (k, p, n, budget)


def _default_budget_cells():
    # Every (n, k, p) with k <= 8, p <= 5 and n <= max_enumerable_n at the
    # default budget: 656 shells.
    for k in range(1, 9):
        for p in range(1, 6):
            n_max = _outcome(max_enumerable_n, k, p)
            for n in range(n_max + 1 if isinstance(n_max, int) else 0):
                yield n, k, p


def _bisection_counts(n: int, k: int, p: int) -> int:
    # Ball counts of the plain search this module used before the guided
    # one: bisection of (-1, t^p], a count at t^p if the bisection never
    # took one there, and one more for the count below v*.
    t = max(1, math.ceil(radius_for_count(n, k, p)) + 1)
    orthant = _orthant_slice(t, k, p, t**p)
    lo, hi, taken = -1, t**p, 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        taken += 1
        if _ball_count(orthant, mid, p, t) >= 2**n:
            hi = mid
        else:
            lo = mid
    return taken + (hi == t**p)


def test_guided_search_takes_fewer_ball_counts(monkeypatch):
    # Counts the probes of the shared search, whichever route (closed form
    # at p = 1, slice above) answers them.
    taken = [0]
    search = pnorm._boundary_norm

    def counting(ball_count, *args):
        def counted(v):
            taken[0] += 1
            return ball_count(v)

        return search(counted, *args)

    monkeypatch.setattr(pnorm, "_boundary_norm", counting)
    per_cell = {}
    for n, k, p in _default_budget_cells():
        taken[0] = 0
        lattice_shell_enumerate(n, k, p)
        per_cell[n, k, p] = taken[0]
    assert len(per_cell) == 656
    assert sum(per_cell.values()) <= 4200  # plain bisection took 7,578
    # floor(R^p) is v* itself at k = 1 and p = 1: the benchmark's shell
    # cells there take one count at v* and one at v* - 1.
    for k, p in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1)):
        assert per_cell[max_enumerable_n(k, p), k, p] == 2, (k, p)
    for cell, guided in per_cell.items():
        assert guided <= _bisection_counts(*cell) + 2, cell


def test_shell_query_evaluates_the_radius_once(monkeypatch):
    # The box side's R goes on to the search and the ratio.
    calls = []
    monkeypatch.setattr(pnorm, "radius_for_count", lambda *args: calls.append(args) or radius_for_count(*args))
    lattice_shell_enumerate(10, 2, 2)
    assert calls == [(10, 2, 2)]


@pytest.mark.parametrize("wrong", ["too_low", "too_high", "zero", "top", "swapped"])
def test_wrong_guesses_give_the_same_shell(monkeypatch, wrong):
    # The guess and the window only steer which counts are taken: fed
    # wrong ones, the search still lands on the same v* and the same sum.
    cells = [(n, k, p) for k in range(1, 5) for p in range(1, 5) for n in range(0, 11, 2)]
    expected = {cell: lattice_shell_enumerate(*cell) for cell in cells}
    search = pnorm._boundary_norm

    def misled(ball_count, count, top, guess, window):
        guess, window = {
            "too_low": (guess // 3, (window[0] // 3 - 1, window[1] // 3)),
            "too_high": (min(3 * guess + 7, top), (3 * window[0] + 7, 3 * window[1] + 7)),
            "zero": (0, (0, 0)),
            "top": (top, (top, top)),
            "swapped": (guess, window[::-1]),
        }[wrong]
        return search(ball_count, count, top, guess, window)

    monkeypatch.setattr(pnorm, "_boundary_norm", misled)
    for cell in cells:
        got = lattice_shell_enumerate(*cell)
        assert got.discrete_sum == expected[cell].discrete_sum, cell
        assert got.boundary_norm_power == expected[cell].boundary_norm_power, cell


def test_r_discrete_is_the_exact_root_of_a_perfect_power():
    # 30 default-budget shells have v* a perfect p-th power whose root
    # v* ** (1/p) rounds below; r_discrete gives the root itself.
    perfect = 0
    for n, k, p in _default_budget_cells():
        s = lattice_shell_enumerate(n, k, p)
        root = _root_oracle(s.boundary_norm_power, p, s.boundary_norm_power)
        if root**p == s.boundary_norm_power:
            assert s.r_discrete == float(root), (n, k, p)
            perfect += s.boundary_norm_power ** (1.0 / p) != root
        else:
            assert s.r_discrete == s.boundary_norm_power ** (1.0 / p), (n, k, p)
    assert perfect == 30
    assert lattice_shell_enumerate(21, 1, 3).r_discrete == 2.0**20


def _polynomial_product(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cross_polytope_ball_counts_have_positive_coefficients():
    # L_k(t) = sum_i 2^i C(k, i) C(t, i) counts the points of Z^k with
    # l1 norm <= t. Positive coefficients and the leading 2^k / k! give
    # L_k(t) >= vol B_1(t), the p = 1 case of the box side's proof.
    for k in range(1, 9):
        poly = [Fraction(0)] * (k + 1)
        for i in range(k + 1):
            falling = [Fraction(1)]  # t (t - 1) ... (t - i + 1)
            for j in range(i):
                falling = _polynomial_product(falling, [Fraction(-j), Fraction(1)])
            scale = Fraction(2**i * math.comb(k, i), math.factorial(i))
            for d, c in enumerate(falling):
                poly[d] += scale * c
        assert all(c > 0 for c in poly), (k, poly)
        assert poly[k] == Fraction(2**k, math.factorial(k))
        for t in range(6):
            count = _ball_count(_orthant_slice(t, k, 1, t), t, 1, t)
            assert sum(c * t**d for d, c in enumerate(poly)) == count == _cross_polytope_count(k, t), (k, t)


def _l1_tally(k: int, t: int) -> dict[int, int]:
    # How many points of [-t, t]^k have each l1 norm.
    tally = {}
    for point in itertools.product(range(-t, t + 1), repeat=k):
        norm = sum(map(abs, point))
        tally[norm] = tally.get(norm, 0) + 1
    return tally


@settings(max_examples=40)
@given(st.integers(1, 5), st.data())
def test_cross_polytope_forms_match_product_tally(k, data):
    # The box [-t, t]^k holds the whole l1 ball of radius s <= t.
    t = data.draw(st.integers(0, {1: 40, 2: 20, 3: 8, 4: 5, 5: 3}[k]))
    tally = _l1_tally(k, t)
    for s in range(-1, t + 1):
        inside = {norm: m for norm, m in tally.items() if norm <= s}
        assert _cross_polytope_count(k, s) == sum(inside.values()), (k, t, s)
        assert _cross_polytope_norm_sum(k, s) == sum(norm * m for norm, m in inside.items()), (k, t, s)


def _p1_cells(budget: int):
    # Every p = 1 shell up to one past max_enumerable_n at this budget.
    for k in range(1, 9):
        n_max = _outcome(max_enumerable_n, k, 1, budget)
        for n in range(n_max + 2 if isinstance(n_max, int) else 1):
            yield n, k


def test_p1_closed_form_equals_the_slice_route(monkeypatch):
    budgets = (2**22, 2**16, 1000)
    cells = [(n, k, budget) for budget in budgets for n, k in _p1_cells(budget)]
    radii = [0.5, 1.0, 2.5, 7.0, 19.99, 20.0, 63.2]
    closed = [_outcome(lattice_shell_enumerate, n, k, 1, budget) for n, k, budget in cells]
    counted = [_outcome(lattice_count_check, k, 1, r) for k in range(1, 6) for r in radii]
    monkeypatch.setattr(pnorm, "_ball", pnorm._slice_ball)
    sliced = [_outcome(lattice_shell_enumerate, n, k, 1, budget) for n, k, budget in cells]
    assert [typed_fields(s) for s in closed] == [typed_fields(s) for s in sliced]
    assert sum(isinstance(s, LatticeShellSummary) for s in closed) == 191
    assert counted == [_outcome(lattice_count_check, k, 1, r) for k in range(1, 6) for r in radii]


def test_p1_queries_build_no_slice(monkeypatch):
    def refuse(*args):
        raise AssertionError("a p = 1 query built a slice or counted on one")

    for name in ("_orthant_slice", "_ball_count", "_ball_norm_sum"):
        monkeypatch.setattr(pnorm, name, refuse)
    for k in range(1, 8):
        lattice_shell_enumerate(max_enumerable_n(k, 1), k, 1)
        lattice_count_check(k, 1, 2.5)


def test_float_radius_ceiling_reaches_the_radius_when_k_is_two_to_the_p():
    # At k = 2^p the covering bound needs t0 >= R + 1, so ceil(R_float) >= R,
    # checked against a 40-digit R for every n the int64 guard admits.
    for k, p in ((4, 2), (8, 3)):
        n = 0
        while k * (math.ceil(radius_for_count(n, k, p)) + 1) ** p <= np.iinfo(np.int64).max:
            with mpmath.workdps(40):
                assert math.ceil(radius_for_count(n, k, p)) >= checks.radius(n, k, p), (k, p, n)
            n += 1
        assert n > 8 * k  # the guard admits boxes far past the default budget


def test_short_box_is_refused_not_summarised(monkeypatch):
    # A box whose t-ball holds fewer than 2^n points is an error, not a
    # budget refusal and never a summary of fewer points.
    monkeypatch.setattr(pnorm, "radius_for_count", lambda n, k, p: 0.0)
    with pytest.raises(RuntimeError) as info:
        lattice_shell_enumerate(10, 2, 2)
    assert type(info.value) is RuntimeError
    assert "t=1" in str(info.value) and "n=10, k=2, p=2" in str(info.value)


def test_shell_budget_error_reports_need():
    # Every (needed, budget) pinned from the box-array core this module
    # used to build, so the growth rule, its budget and its guard are
    # known to be unchanged.
    with pytest.raises(BudgetExceededError) as info:
        lattice_shell_enumerate(12, 2, 2, budget=100)
    assert (info.value.needed, info.value.budget) == (5929, 100)
    with pytest.raises(BudgetExceededError) as info:
        lattice_shell_points(12, 2, 2, budget=100)
    assert (info.value.needed, info.value.budget) == (5929, 100)
    # A single norm k * t^p must fit in int64; 33^25 and 40^25 do not.
    with pytest.raises(BudgetExceededError) as info:
        lattice_shell_enumerate(6, 1, 25)
    assert (info.value.needed, info.value.budget) == (33**25, 2**63 - 1)
    with pytest.raises(BudgetExceededError) as info:
        lattice_count_check(1, 25, 40.0)
    assert (info.value.needed, info.value.budget) == (40**25, 2**63 - 1)
    with pytest.raises(BudgetExceededError) as info:
        lattice_shell_enumerate(17, 1, 4)
    assert (info.value.needed, info.value.budget) == ((2**16 + 1) ** 4, 2**63 - 1)
    # The budget is checked before the int64 guard.
    with pytest.raises(BudgetExceededError) as info:
        lattice_shell_enumerate(17, 1, 4, budget=1000)
    assert (info.value.needed, info.value.budget) == (2**17 + 3, 1000)
    # At k = 1, p = 4 the guard trips from n = 17 (t = 2^16 + 1), well
    # inside the default budget, and max_enumerable_n stops there too.
    assert max_enumerable_n(1, 4) == 16
    assert lattice_shell_enumerate(16, 1, 4).boundary_norm_power == 2**60


def test_max_enumerable_n_refuses_when_n_zero_does_not_fit():
    # The n = 0 box at k = 8, p = 1 is [-3, 3]^8, 7^8 points, past the
    # default budget: there is no enumerable n, so no 0 is returned.
    with pytest.raises(BudgetExceededError) as info:
        max_enumerable_n(8, 1)
    assert (info.value.needed, info.value.budget) == (7**8, DEFAULT_ENUM_BUDGET) == (5764801, 4194304)
    with pytest.raises(BudgetExceededError) as info:
        lattice_shell_enumerate(0, 8, 1)
    assert (info.value.needed, info.value.budget) == (5764801, 4194304)
    assert max_enumerable_n(7, 1) == 1


def test_max_enumerable_n_is_tight():
    for k, p in itertools.product((1, 2, 3), repeat=2):
        n = max_enumerable_n(k, p, budget=10**4)
        lattice_shell_enumerate(n, k, p, budget=10**4)
        with pytest.raises(BudgetExceededError):
            lattice_shell_enumerate(n + 1, k, p, budget=10**4)


@settings(max_examples=120)
@given(
    st.integers(0, 9), st.integers(1, 4), st.integers(1, 5),
    st.one_of(st.integers(1, 5 * 10**4), st.just(DEFAULT_ENUM_BUDGET)),
)
def test_shell_summary_matches_points_oracle(n, k, p, budget):
    summary = _outcome(lattice_shell_enumerate, n, k, p, budget=budget)
    points = _outcome(lattice_shell_points, n, k, p, budget=budget)
    if isinstance(points, tuple):
        assert summary == points
        return
    assert summary.count == len(points) == 2**n
    assert summary.discrete_sum == sum(norm for _, norm in points)
    assert summary.boundary_norm_power == points[-1][1]


@settings(max_examples=200)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 4), st.data())
def test_ball_count_matches_product_tally(k, p, t, data):
    v = data.draw(st.integers(-1, k * t**p))
    norms = [
        sum(abs(c) ** p for c in point)
        for point in itertools.product(range(-t, t + 1), repeat=k)
    ]
    inside = [norm for norm in norms if norm <= v]
    slice_ = _orthant_slice(t, k, p, max(v, 0))
    assert _ball_count(slice_, v, p, t) == len(inside)
    assert _ball_norm_sum(slice_, v, k, p, t) == sum(inside)


def _root_oracle(x: int, p: int, t: int) -> int:
    lo, hi = 0, t
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**p <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


@st.composite
def _root_cases(draw):
    p = draw(st.integers(1, 25))
    k = draw(st.integers(1, 8))
    # The largest t passing the k * t^p < 2^63 guard, or any t below it.
    t_max = _root_oracle((2**63 - 1) // k, p, 2**63 - 1)
    t = draw(st.one_of(st.just(t_max), st.integers(0, t_max)))
    y = draw(st.integers(0, t))
    edges = [0, t**p, max(t**p - 1, 0), y**p, max(y**p - 1, 0), 2**63 - 1]
    free = draw(st.lists(st.integers(0, 2**63 - 1), max_size=4))
    inside = draw(st.lists(st.integers(0, t**p), max_size=4))
    return p, t, edges + free + inside


@settings(max_examples=200)
@given(_root_cases())
def test_iroot_matches_integer_oracle(case):
    p, t, xs = case
    got = _iroot(np.array(xs, dtype=np.int64), p, t)
    assert got.tolist() == [_root_oracle(x, p, t) for x in xs]


def test_iroot_is_exact_past_double_precision():
    # p = 1 above 2^53, where a double rounds x, and p = 2, 3 roots of
    # squares and cubes at the top of the int64 range.
    xs = [2**53 + 1, 2**62 + 3, 2**63 - 1]
    assert _iroot(np.array(xs, dtype=np.int64), 1, 2**63 - 1).tolist() == xs
    r2 = math.isqrt(2**63 - 1)
    xs = [r2**2 - 1, r2**2, 2**63 - 1]
    assert _iroot(np.array(xs, dtype=np.int64), 2, r2).tolist() == [r2 - 1, r2, r2]
    r3 = 2097151  # the largest cube root below 2^63
    xs = [r3**3 - 1, r3**3, 2**63 - 1]
    assert _iroot(np.array(xs, dtype=np.int64), 3, r3).tolist() == [r3 - 1, r3, r3]


def test_power_sum_matches_direct_sum():
    for p in range(1, 26):
        for y in range(0, 40):
            assert _power_sum(y, p) == sum(i**p for i in range(1, y + 1)), (p, y)


def test_shell_budget_beyond_memory_is_reachable():
    # The box [-t, t] here has 2^60 + 3 points; the shell comes from the
    # one-point slice and Faulhaber's closed form instead of an array.
    m = 2**59
    s = lattice_shell_enumerate(60, 1, 1, budget=2**62)
    assert s.discrete_sum == 2 * _power_sum(m - 1, 1) + m == m * m
    assert s.boundary_norm_power == m
    assert s.continuum_ratio == 1.0
    # At n = 63 the count 2^63 + 3 of the first box passes int64.
    m = 2**62
    s = lattice_shell_enumerate(63, 1, 1, budget=2**64)
    assert (s.discrete_sum, s.boundary_norm_power) == (m * m, m)


def test_lattice_args_validated():
    with pytest.raises(ValueError):
        lattice_shell_enumerate(4, 9, 1)
    with pytest.raises(ValueError):
        lattice_shell_enumerate(-1, 2, 1)
    with pytest.raises(ValueError):
        lattice_shell_enumerate(4, 2, 0)


def test_integral_float_p_is_taken_as_int():
    # All three lattice entry points take p = 2.0 as the int 2 and refuse 2.5.
    calls = (
        lambda p: lattice_shell_enumerate(10, 2, p),
        lambda p: lattice_count_check(2, p, 20.0),
        lambda p: max_enumerable_n(2, p),
    )
    for call in calls:
        for p in (2, 3):
            assert typed_fields(call(float(p))) == typed_fields(call(p)), p
        with pytest.raises(ValueError, match="positive integer"):
            call(2.5)


def test_count_check_examples():
    # Closed l1 disk of radius 20 holds 841 integer points against a
    # continuum area of 800, a 5.125 percent relative surplus.
    assert abs(lattice_count_check(2, 1, 20.0) - 41.0 / 800.0) < 1e-12
    assert lattice_count_check(2, 2, 50.0) < 0.02
    assert lattice_count_check(1, 1, 10.5) == 0.0


def test_count_check_cutoff_is_exact():
    # r^2 = 24.999999999999990... < 25, so the 8 points of norm 25 in
    # [-4, 4]^2 ((+-3, +-4), (+-4, +-3)) lie outside the ball.
    r = 4.999999999999999
    count = sum(1 for x, y in itertools.product(range(-4, 5), repeat=2) if x * x + y * y < 25)
    vol = ball_volume(2, 2, r)
    assert lattice_count_check(2, 2, r) == abs(count - vol) / vol
    assert abs(lattice_count_check(2, 2, r) - 0.1215) < 1e-4


def test_count_check_refuses_a_radius_with_no_finite_discrepancy():
    # The volume of the 1e-200 disk underflows to 0; the 1e-320 interval
    # has a subnormal length whose reciprocal passes the float range.
    for k, r in ((2, 1e-200), (1, 1e-320)):
        with pytest.raises(ValueError, match="no finite discrepancy"):
            lattice_count_check(k, 1, r)
    assert lattice_count_check(1, 1, 1e-300) == (1 - 2e-300) / 2e-300


def test_count_check_shrinks_with_radius():
    assert lattice_count_check(2, 2, 50.0) < lattice_count_check(2, 2, 5.0)
