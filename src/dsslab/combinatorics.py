"""Exact absolute central moment sums of the binomial distribution.

Everything in this module is integer or rational arithmetic, no floats.
The central objects are the scaled sums

    T_p(n) = sum_{i=0}^{n} C(n,i) * |n - 2i|^p

which equal 2^p * S_p(n) for the half-integer sums
S_p(n) = sum C(n,i) * |n/2 - i|^p that drive the moment bounds. Keeping
the 2^p scaling inside the integer makes every identity here exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ScaledMomentSum",
    "scaled_abs_moment_sum",
    "closed_form_s1",
    "closed_form_s3",
]


@dataclass(frozen=True)
class ScaledMomentSum:
    """The integer T_p(n) together with its parameters.

    value = T_p(n) = 2^p * S_p(n). The `scaled` property recovers the
    half-integer-grid sum S_p(n) as an exact rational.
    """

    n: int
    p: int
    value: int

    @property
    def scaled(self) -> Fraction:
        return Fraction(self.value, 2**self.p)


def scaled_abs_moment_sum(n: int, p: int) -> ScaledMomentSum:
    """T_p(n) by direct summation.

    Direct O(n) evaluation; n is desk-scale here so no recurrence is
    needed. Accepts any positive integer p, not just the orders the
    bound derivations use; a p equal to one, such as 2.0, is taken as
    that int.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not (1 <= p < math.inf and p == int(p)):
        raise ValueError(f"p must be a positive integer, got {p}")
    p = int(p)
    total = 0
    for i in range(n + 1):
        total += math.comb(n, i) * abs(n - 2 * i) ** p
    return ScaledMomentSum(n=n, p=p, value=total)


def closed_form_s1(n: int) -> Fraction:
    """S_1(n) = n * C(n-1, floor((n-1)/2)), exactly.

    Agrees with scaled_abs_moment_sum(n, 1).value / 2 for every n >= 1.
    """
    if n < 1:
        raise ValueError(f"closed form requires n >= 1, got {n}")
    return Fraction(n * math.comb(n - 1, (n - 1) // 2))


def closed_form_s3(n: int) -> Fraction:
    """S_3(n) in closed form, exactly.

    Even n:  n! / ((n/2 - 1)!)^2
    Odd n:   n! * (2n - 1) / (4 * (((n-1)/2)!)^2)

    Agrees with scaled_abs_moment_sum(n, 3).value / 8 for every n >= 1.
    """
    if n < 1:
        raise ValueError(f"closed form requires n >= 1, got {n}")
    if n % 2 == 0:
        half = math.factorial(n // 2 - 1)
        return Fraction(math.factorial(n), half * half)
    half = math.factorial((n - 1) // 2)
    return Fraction(math.factorial(n) * (2 * n - 1), 4 * half * half)
