"""Exact arithmetic for vanishing sums of roots of unity.

A sum of n-th roots of unity with integer exponents,

    S = sum_a zeta_n^a,   zeta_n = exp(2*pi*i/n),

vanishes exactly when P(x) * prod_{prime r | n} (1 - x^(n/r)) is zero modulo
x^n - 1, where P(x) = sum_a x^(a mod n) (the Redei-de Bruijn-Schoenberg
description; Lam-Leung 2000).  That product is formed on the exponent
multiset with integer coefficients, so every zero/nonzero verdict in this
module is tolerance-free and no cyclotomic polynomial is needed.  The
cyclotomic polynomials themselves are built as integer power series.  No
value here is a float; tests/test_exactmath.py sums the roots in floats.

Rational quantities throughout the package are plain ``fractions.Fraction``
values (gcd-reduced, positive denominator, canonical zero 0/1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

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


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending (trial division)."""
    if n < 1:
        raise ValueError(f"prime_factors requires n >= 1, got {n}")
    primes = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    For n > 1, Phi_n is the power series of prod_{d | n} (1 - x^d)^mu(n/d),
    cut at its degree phi(n): one pass per squarefree m = n/d multiplies by
    1 - x^d (mu(m) = 1) or divides by it (mu(m) = -1, adding the series
    sum_j x^(jd)).  Exact in integers, and no polynomial is divided.
    """
    if n < 1:
        raise ValueError(f"cyclotomic_polynomial requires n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    primes = prime_factors(n)
    deg = n
    squarefree = [(1, 1)]  # (m, mu(m)) for the squarefree m | n
    for r in primes:
        deg = deg // r * (r - 1)
        squarefree += [(m * r, -mu) for m, mu in squarefree]
    c = [1] + [0] * deg
    for m, mu in squarefree:
        d = n // m
        if mu == 1:
            for k in range(deg, d - 1, -1):
                c[k] -= c[k - d]
        else:
            for k in range(d, deg + 1):
                c[k] += c[k - d]
    return tuple(c)


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
    """Exact test of sum_a zeta_n^a == 0.

    With P(x) = sum_a x^a, the sum vanishes iff
    P(x) * prod_{prime r | n} (1 - x^(n/r)) == 0 mod x^n - 1: the product
    carries every Phi_d with d | n, d < n, and never Phi_n.  P is kept as a
    map from exponent to coefficient, and each factor subtracts a copy
    rotated by n/r, so the work is #terms * 2^omega(n) integer steps.
    """
    n = s.order
    coeffs: dict[int, int] = {}
    for e in s.exponents:
        coeffs[e] = coeffs.get(e, 0) + 1
    for r in prime_factors(n):
        step = n // r
        rotated = coeffs.copy()
        for e, c in coeffs.items():
            k = (e + step) % n
            c = rotated.get(k, 0) - c
            if c:
                rotated[k] = c
            else:
                del rotated[k]
        if not rotated:
            return True  # further factors keep it zero
        coeffs = rotated
    return False


def digit_sum_vanishes(n: int, digits: Sequence[int], ell: int) -> bool:
    """Exact test of sum_{d in D} zeta_n^(d*ell) == 0 for n >= 1.

    The exponents are divided by their common gcd with n, so the root-sum
    test runs at the least order that carries the sum; when every term is 1
    the sum is #D != 0.
    """
    exps = [(d * ell) % n for d in digits]
    g = gcd(n, *exps)
    if g == n:
        return False
    return root_sum_is_zero(RootSum(n // g, tuple(e // g for e in exps)))


def over_common_denominator(values) -> tuple[list[int], int]:
    """The rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den
