"""The signed-sum power sums T_p(n) and the closed forms of S1, S3."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from conftest import typed_fields
from dsslab import (
    ScaledMomentSum,
    closed_form_s1,
    closed_form_s3,
    scaled_abs_moment_sum,
)


def test_scaled_abs_moment_sum_examples():
    assert scaled_abs_moment_sum(2, 1) == ScaledMomentSum(2, 1, 4)
    assert scaled_abs_moment_sum(3, 3).value == 60
    assert scaled_abs_moment_sum(0, 1).value == 0


def test_scaled_abs_moment_sum_matches_direct_fraction_sum():
    # Same quantity through Fraction arithmetic on the +-1/2 signs.
    for n in range(21):
        for p in (1, 2, 3, 4):
            direct = sum(
                Fraction(math.comb(n, i)) * abs(Fraction(n, 2) - i) ** p
                for i in range(n + 1)
            )
            assert scaled_abs_moment_sum(n, p).scaled == direct, (n, p)


def test_scaled_abs_moment_sum_positive_and_even():
    for n in range(1, 65):
        for p in (1, 2, 3, 4, 5):
            t = scaled_abs_moment_sum(n, p).value
            assert t > 0
            assert t % 2 == 0, (n, p)


def test_scaled_abs_moment_sum_term_symmetry():
    # i and n - i contribute identically, so only half the range matters.
    for n in range(1, 65):
        for p in (1, 3, 5):
            for i in range(n // 2 + 1):
                left = math.comb(n, i) * abs(n - 2 * i) ** p
                right = math.comb(n, n - i) * abs(n - 2 * (n - i)) ** p
                assert left == right


def test_integral_float_p_is_taken_as_int():
    for p in (2, 3):
        assert typed_fields(scaled_abs_moment_sum(5, float(p))) == typed_fields(
            scaled_abs_moment_sum(5, p)
        )
    for bad in (2.5, 0, math.inf):
        with pytest.raises(ValueError, match="positive integer"):
            scaled_abs_moment_sum(5, bad)
    with pytest.raises(ValueError, match="nonnegative"):
        scaled_abs_moment_sum(-1, 1)


def test_scaled_property():
    s = scaled_abs_moment_sum(3, 3)
    assert s.scaled == Fraction(60, 8) == Fraction(15, 2)


def test_closed_form_s1_examples():
    assert closed_form_s1(1) == 1
    assert closed_form_s1(2) == 2
    assert closed_form_s1(3) == 6
    assert closed_form_s1(4) == 12


def test_closed_form_s3_examples():
    assert closed_form_s3(1) == Fraction(1, 4)
    assert closed_form_s3(3) == Fraction(15, 2)
    assert closed_form_s3(4) == 24


def test_closed_forms_reject_n_zero():
    with pytest.raises(ValueError):
        closed_form_s1(0)
    with pytest.raises(ValueError):
        closed_form_s3(0)


def test_closed_forms_match_power_sums_to_64():
    for n in range(1, 65):
        assert closed_form_s1(n) == Fraction(scaled_abs_moment_sum(n, 1).value, 2)
        assert closed_form_s3(n) == Fraction(scaled_abs_moment_sum(n, 3).value, 8)


def test_closed_form_s3_odd_branch_large_n():
    # The odd branch carries the extra (2n - 1) factor; exercise it far
    # beyond the range the identity suite covers.
    for n in range(65, 1000, 2):
        assert closed_form_s3(n) == Fraction(scaled_abs_moment_sum(n, 3).value, 8), n


def test_normalized_mean_abs_sum_nondecreasing():
    # g(n) = S1(n) / 2^n is the expected |signed sum| of n unit entries.
    values = [Fraction(closed_form_s1(n), 2**n) for n in range(1, 65)]
    assert values[0] == Fraction(1, 2)
    assert values[2] == Fraction(3, 4)
    assert values[4] == Fraction(15, 16)
    for a, b in zip(values, values[1:]):
        assert b >= a
