"""Exact translation tilings of the line by finite unions of rational intervals.

Intervals are half-open [a, b), so "overlap of measure zero" becomes exact
disjointness and every endpoint question disappears.  Tiling of the real
line by a period-P translate set reduces to tiling the circle of
circumference P: the translates of the tile by the digit representatives,
taken mod P, must cover [0, P) with multiplicity exactly one; that is
decided by a sweep over all fragment endpoints in rational arithmetic.

The two-stage support is the union over k < p1 of blocks
[k*t*c, (k*t+1)*c) with c = t2/b1 and t = t1/t2, which tiles by
J = c * ({0,...,t-1} + t*p1*Z) exactly when t2 | t1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import RationalLike


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, pairwise disjoint half-open rational intervals [a, b)."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        ivs = sorted((Fraction(a), Fraction(b)) for a, b in self.intervals)
        for a, b in ivs:
            if a >= b:
                raise ValueError(f"empty or reversed interval [{a}, {b})")
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b in ivs:
            if merged and a < merged[-1][1]:
                raise ValueError(f"overlapping intervals near {a}")
            if merged and a == merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def total_length(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def translate(self, shift: RationalLike) -> "IntervalUnion":
        s = Fraction(shift)
        return IntervalUnion(tuple((a + s, b + s) for a, b in self.intervals))

    def contains(self, x: RationalLike) -> bool:
        x = Fraction(x)
        return any(a <= x < b for a, b in self.intervals)


def two_stage_support(p1: int, t1: int, t2: int, b1: int) -> IntervalUnion:
    """Support of the two-stage system: union of p1 blocks of width t2/b1.

    Requires t2 | t1; adjacent blocks merge automatically when t1 = t2.
    """
    if p1 < 2 or b1 < 2 or t1 < 1 or t2 < 1:
        raise ValueError("need p1, b1 >= 2 and t1, t2 >= 1")
    if t1 % t2 != 0:
        raise ValueError(f"t2={t2} does not divide t1={t1}")
    c = Fraction(t2, b1)
    t = t1 // t2
    return IntervalUnion(tuple((k * t * c, (k * t + 1) * c) for k in range(p1)))


@dataclass(frozen=True)
class TilingCertificate:
    """Verdict of a periodic tiling check; on failure, a witness point and its multiplicity."""

    ok: bool
    failure_point: Optional[Fraction] = None
    multiplicity: Optional[int] = None


def tiles_by_periodic_set(tile: IntervalUnion, digits: Sequence[RationalLike],
                          period: RationalLike) -> TilingCertificate:
    """Exact check that {tile + d + period*Z : d in digits} partitions the line.

    Reduces every translated interval mod the period and sweeps the fragment
    endpoints: each elementary segment of [0, period) must be covered exactly
    once.  The first under- or over-covered segment yields the certificate.
    """
    period = Fraction(period)
    if period <= 0:
        raise ValueError("period must be positive")
    reps = [Fraction(d) % period for d in digits]
    if len(set(reps)) != len(reps):
        raise ValueError("digits must be distinct mod the period")
    fragments: list[tuple[Fraction, Fraction]] = []
    for d in reps:
        for a, b in tile.intervals:
            lo = a + d
            while b - a > 0:
                start = lo % period
                span = min(b - a, period - start)
                fragments.append((start, start + span))
                lo += span
                a += span
    points = sorted({Fraction(0), period}
                    | {x for fr in fragments for x in fr})
    for left, right in zip(points, points[1:]):
        if right <= 0 or left >= period:
            continue
        mult = sum(1 for a, b in fragments if a <= left and right <= b)
        if mult != 1:
            return TilingCertificate(False, (left + right) / 2, mult)
    return TilingCertificate(True)


@dataclass(frozen=True)
class TileDecision:
    """Two-stage tiling decision with the constructed tile and translate lattice."""

    tiles: bool
    support: Optional[IntervalUnion]
    digits: Optional[tuple[Fraction, ...]]
    period: Optional[Fraction]
    certificate: Optional[TilingCertificate]
    residue: Optional[int]


def tile_decide(p1: int, p2: int, b1: int, t1: int, t2: int) -> TileDecision:
    """Decide whether the two-stage support tiles the line by translations.

    When t2 | t1 the explicit lattice c*({0,...,t-1} + t*p1*Z) with
    c = t2/b1 and t = t1/t2 is constructed and verified exactly; otherwise
    the residue t1 mod t2 is the certificate (a width-(t2/b1) block can
    never exactly fill the gap between consecutive digit blocks).
    """
    if p1 < 2 or p2 < 2 or b1 < 2 or t1 < 1 or t2 < 1:
        raise ValueError("need p1, p2, b1 >= 2 and t1, t2 >= 1")
    if t1 % t2 != 0:
        return TileDecision(False, None, None, None, None, t1 % t2)
    support = two_stage_support(p1, t1, t2, b1)
    c = Fraction(t2, b1)
    t = t1 // t2
    digits = tuple(c * i for i in range(t))
    period = c * t * p1
    cert = tiles_by_periodic_set(support, digits, period)
    return TileDecision(cert.ok, support, digits, period, cert, None)
