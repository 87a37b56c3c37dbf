"""Lower-bound coefficients, finite forms and the method crossover table."""

from __future__ import annotations

import itertools
import math

import pytest

from dsslab import (
    METHOD_FIRST,
    METHOD_THIRD,
    METHOD_VARIANCE,
    best_method,
    coeff,
    crossover_table,
    lower_bound,
    pnorm,
    published_regime,
    regime_disagreements,
)
from dsslab.bounds import _finite
from dsslab.combinatorics import scaled_abs_moment_sum
from dsslab.pnorm import radius_for_count

pytest.importorskip("mpmath")
checks = pytest.importorskip("checks")

# Ten-digit reference values computed with 30-digit working precision.
COEFF_TABLE = {
    1: (0.6266570687, 0.5390842586, 0.5773502692),
    2: (0.5908179503, 0.5324691300, 0.5641895835),
    3: (0.5693557321, 0.5273732164, 0.5548583470),
    4: (0.5548080382, 0.5232961395, 0.5478188010),
    5: (0.5441829584, 0.5199416649, 0.5422771201),
    6: (0.5360236865, 0.5171215651, 0.5377766493),
    7: (0.5295275979, 0.5147096917, 0.5340337418),
    20: (0.4956177761, 0.4992147488, 0.5119550963),
}


def test_coefficients_match_reference_table():
    for k, (cf, ct, cv) in COEFF_TABLE.items():
        assert abs(coeff(1, k) - cf) <= 1e-9, k
        assert abs(coeff(3, k) - ct) <= 1e-9, k
        assert abs(coeff(2, k) - cv) <= 1e-9, k


def test_variance_coefficient_at_one_is_inverse_sqrt_three():
    assert abs(coeff(2, 1) - 3.0 ** -0.5) <= 1e-12


def test_coefficients_match_high_precision_recomputation():
    ks = list(range(1, 61)) + [100, 150, 200]
    for k in ks:
        ref = checks.coefficients(k)
        for p, method in ((1, METHOD_FIRST), (3, METHOD_THIRD), (2, METHOD_VARIANCE)):
            assert abs(coeff(p, k) - ref[method]) <= 1e-9 * ref[method], (k, method)


def test_coefficients_positive_and_finite():
    for k in range(1, 201):
        for p in (1, 2, 3):
            c = coeff(p, k)
            assert 0.0 < c < 1.0 and math.isfinite(c), (p, k)
    for k in range(1, 51):
        assert coeff(1, k) > 0.3


def test_variance_coefficient_decreases_to_known_limit():
    # The k -> infinity limit is sqrt(2/(e*pi)); the sequence approaches
    # it strictly from above.
    limit = math.sqrt(2.0 / (math.e * math.pi))
    prev = float("inf")
    for k in range(1, 201):
        c = coeff(2, k)
        assert c < prev, k
        assert c > limit, k
        prev = c


def test_best_method_examples():
    assert best_method(1).argmax == METHOD_FIRST
    assert best_method(5).argmax == METHOD_FIRST
    assert best_method(6).argmax == METHOD_VARIANCE
    assert best_method(20).argmax == METHOD_VARIANCE


def test_best_method_agrees_with_recomputed_argmax():
    for k in range(1, 61):
        cmp = best_method(k)
        recomputed = checks.coefficients(k)
        computed = {METHOD_FIRST: cmp.c_first, METHOD_THIRD: cmp.c_third, METHOD_VARIANCE: cmp.c_variance}
        assert cmp.argmax == max(recomputed, key=recomputed.get), k
        assert abs(computed[cmp.argmax] - recomputed[cmp.argmax]) <= 1e-9


def test_comparison_fields_are_coefficients_by_order():
    # Each method reads the coefficient of its own moment order, in
    # best_method and in lower_bound alike.
    for k in (1, 3, 20):
        cmp = best_method(k)
        assert (cmp.c_first, cmp.c_variance, cmp.c_third) == tuple(coeff(p, k) for p in (1, 2, 3))
        fields = {METHOD_FIRST: cmp.c_first, METHOD_THIRD: cmp.c_third, METHOD_VARIANCE: cmp.c_variance}
        for method, c in fields.items():
            assert lower_bound(4, k, method).coefficient == c, (k, method)


def test_lower_bound_first_moment_base_case_is_exactly_one():
    r = lower_bound(1, 1, METHOD_FIRST)
    assert r.finite_bound == 1.0
    assert r.method == METHOD_FIRST
    # At (2, 1) the bound equals M_min = 2 exactly; one ulp more would flag
    # a finite violation in the report.
    assert lower_bound(2, 1, METHOD_FIRST).finite_bound == 2.0


def test_lower_bound_variance_example():
    r = lower_bound(20, 2, METHOD_VARIANCE)
    assert abs(r.asymptotic_bound - 129.1843851274322) <= 1e-6 * 129.2
    assert r.finite_bound is None


def test_finite_forms_recomputed_from_parts():
    for n in range(1, 61):
        for k, method in itertools.product((1, 2, 3, 5, 8, 20, 200), (METHOD_FIRST, METHOD_THIRD)):
            finite = lower_bound(n, k, method).finite_bound
            alt = checks._finite_bounds(n, k)[method]
            assert abs(finite - alt) <= 1e-12 * alt, (n, k, method)


def test_finite_reference_catches_a_perturbed_radius(monkeypatch):
    # The reference shares no code with dsslab: an R off by 1e-9 inside
    # dsslab moves every finite bound past the 1e-12 tolerance.
    real = pnorm._radius_gammas
    monkeypatch.setattr(pnorm, "_radius_gammas", lambda k, p: (real(k, p)[0] * (1 + 1e-9), real(k, p)[1]))
    for n, k, method in itertools.product((3, 10, 40), (1, 2, 5), (METHOD_FIRST, METHOD_THIRD)):
        alt = checks._finite_bounds(n, k)[method]
        assert abs(lower_bound(n, k, method).finite_bound - alt) > 1e-12 * alt, (n, k, method)


def test_finite_form_approaches_asymptotic():
    r = lower_bound(400, 2, METHOD_FIRST)
    assert abs(r.finite_bound / r.asymptotic_bound - 1.0) <= 0.03
    for k in (1, 2, 3):
        for n in (200, 300, 400):
            for method in (METHOD_FIRST, METHOD_THIRD):
                row = lower_bound(n, k, method)
                assert row.finite_bound <= 1.05 * row.asymptotic_bound, (n, k, method)


def test_finite_form_unchanged_by_scaling_out_two_to_the_n():
    # Dividing T_p(n) by the exact power 2^n changes no rounding. The
    # unscaled form gave 0 where (k + p) * T_p(n) passed the float range.
    for p, k in itertools.product((1, 3), (1, 2, 10, 200)):
        for n in (*range(1, 41), *range(995, 1009)):
            denominator = (k + p) * float(scaled_abs_moment_sum(n, p))
            got = _finite(n, k, p)
            if denominator < math.inf:
                want = radius_for_count(n, k, p) * (2.0 ** (n + p) / denominator) ** (1.0 / p)
                assert got == want, (n, k, p)
            else:
                assert 0 < got < math.inf, (n, k, p)


def test_lower_bound_past_the_float_range_is_a_value_error():
    # T_3(n) passes the float range from n = 1009 and T_1(n) from n = 1020;
    # the bounds there are finite.
    for n in (1009, 1020):
        for method in (METHOD_FIRST, METHOD_THIRD):
            row = lower_bound(n, 1, method)
            assert 0 < row.finite_bound < math.inf
    # 2^(n/k) raises from n / k = 1024 on, and at n / k = 1023.5 the radius
    # 2^1023.5 * sqrt(2) / 2 is inf before its division by 2.
    for n, k, method in ((1024, 1, METHOD_VARIANCE), (5000, 2, METHOD_THIRD), (2047, 2, METHOD_FIRST)):
        with pytest.raises(ValueError, match="passes the float range"):
            lower_bound(n, k, method)


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        lower_bound(0, 1, METHOD_FIRST)
    with pytest.raises(ValueError):
        lower_bound(4, 1, "median")
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        lower_bound(4, 0, METHOD_FIRST)
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        coeff(1, 0)
    with pytest.raises(ValueError):
        coeff(0, 3)


def test_crossover_table_shape_and_determinism():
    rows = crossover_table(1, 30)
    assert [r.k for r in rows] == list(range(1, 31))
    assert rows == crossover_table(1, 30)
    assert all(r.argmax in (METHOD_FIRST, METHOD_THIRD, METHOD_VARIANCE) for r in rows)
    # Once the variance method takes over it never loses the lead again.
    first_var = min(r.k for r in rows if r.argmax == METHOD_VARIANCE)
    assert all(r.argmax == METHOD_VARIANCE for r in rows if r.k >= first_var)


def test_crossover_table_validation():
    with pytest.raises(ValueError):
        crossover_table(0, 5)
    with pytest.raises(ValueError):
        crossover_table(5, 3)
    with pytest.raises(ValueError):
        crossover_table(1, 201)


def test_published_regime_branches():
    assert [published_regime(k) for k in (1, 4)] == [METHOD_FIRST, METHOD_FIRST]
    assert [published_regime(k) for k in (5, 6)] == [METHOD_THIRD, METHOD_THIRD]
    assert published_regime(7) == METHOD_VARIANCE
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        published_regime(0)


def test_regime_disagreements_pinned():
    rows = crossover_table(1, 30)
    assert regime_disagreements(rows) == [
        (5, METHOD_FIRST, METHOD_THIRD),
        (6, METHOD_VARIANCE, METHOD_THIRD),
    ]
