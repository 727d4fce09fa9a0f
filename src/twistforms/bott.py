"""Closed-form cohomology dimensions of twisted differential forms on P^n.

Only h^0, the single middle group at twist zero, and h^n can be nonzero.
The top-degree branch here is the Serre-dual of the h^0 branch; see
``duality_consistency`` for the identity it is required to satisfy.
"""

from __future__ import annotations

import math

__all__ = ["binom", "h_omega", "h_O", "duality_consistency"]


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the zero convention outside 0 <= b <= a.

    The first argument must be nonnegative; callers rewrite formulas so
    this holds on their validity range.
    """
    if a < 0:
        raise ValueError("binom requires a nonnegative first argument, got %d" % a)
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_range(n: int, p: int, i: int) -> None:
    if not 0 <= p <= n:
        raise ValueError("form degree p=%d out of range for P^%d" % (p, n))
    if not 0 <= i <= n:
        raise ValueError("cohomology index i=%d out of range for P^%d" % (i, n))


def h_omega(n: int, p: int, d: int, i: int) -> int:
    """dim H^i(P^n, Omega^p(d)) as an exact integer.

    The top-degree branch uses binom(p-d, -d) * binom(-d-1, n-p); this is
    the form that satisfies Serre duality against the h^0 branch and that
    the closed-form Koszul-contraction kernels of the forms module
    reproduce.
    """
    _check_range(n, p, i)
    if i == 0 and d > p:
        return binom(d + n - p, d) * binom(d - 1, p)
    if d == 0 and i == p:
        return 1
    if i == n and d < p - n:
        return binom(p - d, -d) * binom(-d - 1, n - p)
    return 0


def h_O(n: int, d: int, i: int) -> int:
    """dim H^i(P^n, O(d)): the p = 0 specialization."""
    if not 0 <= i <= n:
        raise ValueError("cohomology index i=%d out of range for P^%d" % (i, n))
    if i == 0 and d >= 0:
        return binom(d + n, d)
    if i == n and d <= -n - 1:
        return binom(-d - 1, -d - 1 - n)
    return 0


def duality_consistency(n: int, p: int, d: int) -> bool:
    """h^n(Omega^p(d)) == h^0(Omega^{n-p}(-d)); an identity of the formula."""
    if not 0 <= p <= n:
        raise ValueError("form degree p=%d out of range for P^%d" % (p, n))
    return h_omega(n, p, d, n) == h_omega(n, n - p, -d, 0)
