"""Exact absolute central moment sums of the binomial distribution.

Everything in this module is integer arithmetic, no floats.
The central objects are the scaled sums

    T_p(n) = sum_{i=0}^{n} C(n,i) * |n - 2i|^p

which equal 2^p * S_p(n) for the half-integer sums
S_p(n) = sum C(n,i) * |n/2 - i|^p that drive the moment bounds. Keeping
the 2^p scaling inside the integer makes every identity here exact.
"""

from __future__ import annotations

import math

__all__ = [
    "scaled_abs_moment_sum",
    "closed_form_sum",
]


def scaled_abs_moment_sum(n: int, p: int) -> int:
    """T_p(n) = 2^p * S_p(n) by direct summation, as an int.

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
    return total


def closed_form_sum(n: int, p: int) -> int:
    """T_p(n) in closed form, as an int, for p in {1, 3}.

    T_1(n)      = 2n * C(n-1, floor((n-1)/2))
    T_3(2m)     = 8m^2 * C(2m, m)
    T_3(2m + 1) = 2(4m + 1)(2m + 1) * C(2m, m)

    Agrees with scaled_abs_moment_sum(n, p) for every n >= 1.
    """
    if p not in (1, 3):
        raise ValueError(f"closed forms exist for p in {{1, 3}}, got {p}")
    if n < 1:
        raise ValueError(f"closed form requires n >= 1, got {n}")
    if p == 1:
        return 2 * n * math.comb(n - 1, (n - 1) // 2)
    m = n // 2
    return (8 * m * m if n % 2 == 0 else 2 * (4 * m + 1) * n) * math.comb(2 * m, m)
