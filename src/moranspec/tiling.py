"""Exact translation tilings of the line by finite unions of rational intervals.

Intervals are half-open [a, b), so "overlap of measure zero" becomes exact
disjointness and every endpoint question disappears.  Tiling of the real
line by a period-P translate set reduces to tiling the circle of
circumference P: the translates of the tile by the digit representatives,
taken mod P, must cover [0, P) with multiplicity exactly one; that is
decided by a sweep over all fragment endpoints, in integers over one common
denominator.

The two-stage support is the union over k < p1 of blocks
[k*t*c, (k*t+1)*c) with c = t2/b1 and t = t1/t2, which tiles by
J = c * ({0,...,t-1} + t*p1*Z) exactly when t2 | t1; ``tile_decide``
builds and sweeps it in units of c, so all of it is integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import RationalLike, over_common_denominator
from .measure import DEFAULT_ATOM_CAP, AtomCapExceeded


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

    Puts the period, the digits and the interval endpoints over one common
    denominator and hands the integers to the coverage sweep (``_sweep``).
    """
    ends = [x for iv in tile.intervals for x in iv]
    scaled, den = over_common_denominator([period, *digits, *ends])
    period, shifts, ends = scaled[0], scaled[1:len(digits) + 1], scaled[len(digits) + 1:]
    return _sweep(list(zip(ends[::2], ends[1::2])), shifts, period, Fraction(1, den))


def _sweep(blocks: Sequence[tuple[int, int]], shifts: Sequence[int], period: int,
           unit: Fraction) -> TilingCertificate:
    """Whether the integer blocks [a, b), moved by each shift, cover the circle of
    circumference period exactly once; unit scales the failure point.

    Reduces every translated block mod the period into fragments; each
    fragment adds +1 at its start and -1 at its end to a coverage-change
    map, and the running sum over its sorted points is the multiplicity of
    each segment of [0, period).  The first under- or over-covered segment
    yields the certificate, with its midpoint as the failure point.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    reps = [d % period for d in shifts]
    if len(set(reps)) != len(reps):
        raise ValueError("digits must be distinct mod the period")
    change = {0: 0, period: 0}
    for d in reps:
        for a, b in blocks:
            lo, length = a + d, b - a
            while length > 0:
                start = lo % period
                span = min(length, period - start)
                change[start] = change.get(start, 0) + 1
                change[start + span] = change.get(start + span, 0) - 1
                lo += span
                length -= span
    points = sorted(change)
    mult = 0
    for left, right in zip(points, points[1:]):
        mult += change[left]
        if mult != 1:
            return TilingCertificate(False, unit * Fraction(left + right, 2), mult)
    return TilingCertificate(True)


def _two_stage_blocks(p1: int, t: int) -> list[tuple[int, int]]:
    """The two-stage support in units of c: [k*t, k*t + 1) for k < p1, merged
    into the one block [0, p1) when t = 1."""
    return [(0, p1)] if t == 1 else [(k * t, k * t + 1) for k in range(p1)]


@dataclass(frozen=True)
class TileDecision:
    """Two-stage tiling decision with the constructed tile and translate lattice.

    When t2 | t1 the tile is kept in integers, in units of c = t2/b1 (unit):
    the swept support ``blocks``, the digits 0..t-1 and the period t*p1.
    support, digits and period are their Fraction views, built on request
    (None when t2 does not divide t1).
    """

    tiles: bool
    certificate: Optional[TilingCertificate]
    residue: Optional[int]
    unit: Optional[Fraction] = None
    p1: int = 0
    t: int = 0

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """The support blocks the sweep checked, in units of c, sorted and
        pairwise apart (empty when t2 does not divide t1)."""
        return [] if self.unit is None else _two_stage_blocks(self.p1, self.t)

    @functools.cached_property
    def support(self) -> Optional[IntervalUnion]:
        if self.unit is None:
            return None
        c = self.unit
        return IntervalUnion(tuple((a * c, b * c) for a, b in self.blocks))

    @functools.cached_property
    def digits(self) -> Optional[tuple[Fraction, ...]]:
        if self.unit is None:
            return None
        return tuple(self.unit * i for i in range(self.t))

    @functools.cached_property
    def period(self) -> Optional[Fraction]:
        return None if self.unit is None else self.unit * (self.t * self.p1)


def tile_decide(p1: int, p2: int, b1: int, t1: int, t2: int) -> TileDecision:
    """Decide whether the two-stage support tiles the line by translations.

    When t2 | t1 the explicit lattice c*({0,...,t-1} + t*p1*Z) with
    c = t2/b1 and t = t1/t2 is constructed and verified exactly, in units
    of c: the support blocks [k*t, k*t + 1) for k < p1 merge into the one
    block [0, p1) when t = 1, so the sweep then has a single fragment.
    Otherwise the residue t1 mod t2 is the certificate (a width-(t2/b1)
    block can never exactly fill the gap between consecutive digit blocks).
    Raises AtomCapExceeded, before any sweep, when t2 | t1 and p1*t1/t2
    passes DEFAULT_ATOM_CAP.
    """
    if p1 < 2 or p2 < 2 or b1 < 2 or t1 < 1 or t2 < 1:
        raise ValueError("need p1, p2, b1 >= 2 and t1, t2 >= 1")
    if t1 % t2 != 0:
        return TileDecision(False, None, t1 % t2)
    t = t1 // t2
    if p1 * t > DEFAULT_ATOM_CAP:
        raise AtomCapExceeded(f"two-stage tiling needs {p1 * t} fragments (p1*t1/t2); "
                              f"cap is {DEFAULT_ATOM_CAP}")
    unit = Fraction(t2, b1)
    cert = _sweep(_two_stage_blocks(p1, t), range(t), t * p1, unit)
    return TileDecision(cert.ok, cert, None, unit, p1, t)
