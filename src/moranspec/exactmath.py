"""Exact arithmetic for vanishing sums of roots of unity.

A sum of n-th roots of unity with integer exponents,

    S = sum_a zeta_n^a,   zeta_n = exp(2*pi*i/n),

vanishes exactly when the n-th cyclotomic polynomial divides the exponent
polynomial P(x) = sum_a x^(a mod n).  That divisibility is decided with
integer polynomial arithmetic, so every zero/nonzero verdict in this module
is tolerance-free.

Rational quantities throughout the package are plain ``fractions.Fraction``
values (gcd-reduced, positive denominator, canonical zero 0/1).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence, Union

Rational = Fraction
RationalLike = Union[int, Fraction]


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending (trial division)."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials; den must be monic.

    Coefficients are listed lowest degree first.  Monic divisor keeps the
    whole computation in integers.
    """
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dn = len(den) - 1
    if len(rem) - 1 < dn:
        return [0], _poly_trim(rem)
    quot = [0] * (len(rem) - dn)
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        quot[k - dn] = c
        for i, dc in enumerate(den):
            rem[k - dn + i] -= c * dc
    return _poly_trim(quot), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all proper
    divisors of n; exact at every step.
    """
    if n < 1:
        raise ValueError(f"cyclotomic_polynomial requires n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        quot, rem = _poly_divmod_monic(num, list(cyclotomic_polynomial(d)))
        if rem != [0]:
            raise AssertionError(f"cyclotomic division left a remainder at n={n}, d={d}")
        num = quot
    return tuple(num)


@dataclass(frozen=True)
class RootSum:
    """A nonempty multiset of n-th roots of unity, stored as exponents mod n.

    The value depends only on the residues, so exponents are reduced at
    construction and kept sorted (multiplicity preserved).
    """

    order: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.exponents) == 0:
            raise ValueError("exponent multiset must be nonempty")
        reduced = tuple(sorted(e % self.order for e in self.exponents))
        object.__setattr__(self, "exponents", reduced)

    def shifted(self, c: int) -> "RootSum":
        """Add c to every exponent; multiplies the value by zeta^c."""
        return RootSum(self.order, tuple(e + c for e in self.exponents))


def root_sum_is_zero(s: RootSum) -> bool:
    """Exact test of sum_a zeta_n^a == 0 via divisibility by the cyclotomic polynomial."""
    n = s.order
    coeffs = [0] * n
    for e in s.exponents:
        coeffs[e] += 1
    _, rem = _poly_divmod_monic(_poly_trim(coeffs), list(cyclotomic_polynomial(n)))
    return rem == [0]


def digit_sum_vanishes(n: int, digits: Sequence[int], ell: int) -> bool:
    """Exact test of sum_{d in D} zeta_n^(d*ell) == 0 for n >= 1.

    The exponents are divided by their common gcd with n, so the cyclotomic
    test runs at the least order that carries the sum; when every term is 1
    the sum is #D != 0.
    """
    exps = [(d * ell) % n for d in digits]
    g = gcd(n, *exps)
    if g == n:
        return False
    return root_sum_is_zero(RootSum(n // g, tuple(e // g for e in exps)))


def root_sum_value(s: RootSum) -> complex:
    """Double-precision value of the sum; numeric cross-check only."""
    n = s.order
    return sum(cmath.exp(2j * cmath.pi * e / n) for e in s.exponents)


def lcm_all(values) -> int:
    out = 1
    for v in values:
        v = abs(int(v))
        if v == 0:
            raise ValueError("lcm of zero requested")
        out = out * v // gcd(out, v)
    return out
