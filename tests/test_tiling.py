from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspec.tiling import (IntervalUnion, TilingCertificate, tile_decide,
                              tiles_by_periodic_set, two_stage_support)


def test_interval_union_normalization():
    u = IntervalUnion(((F(1), F(2)), (F(0), F(1))))
    assert u.intervals == ((F(0), F(2)),)       # touching intervals merge
    assert sum(b - a for a, b in u.intervals) == 2
    with pytest.raises(ValueError):
        IntervalUnion(((F(0), F(2)), (F(1), F(3))))
    with pytest.raises(ValueError):
        IntervalUnion(((F(1), F(1)),))


def test_two_stage_support_examples():
    assert two_stage_support(2, 2, 1, 4).intervals == (
        (F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    # t1 = t2 collapses to a single block
    assert two_stage_support(3, 5, 5, 4).intervals == ((F(0), F(15, 4)),)
    assert two_stage_support(3, 6, 2, 6).intervals == (
        (F(0), F(1, 3)), (F(1), F(4, 3)), (F(2), F(7, 3)))
    with pytest.raises(ValueError):
        two_stage_support(2, 1, 3, 4)


def test_tiles_by_periodic_set_examples():
    k = IntervalUnion(((F(0), F(1)), (F(2), F(3))))
    assert tiles_by_periodic_set(k, (0, 1), 4).ok
    failed = tiles_by_periodic_set(k, (0,), 2)
    assert not failed.ok and failed.multiplicity == 2
    assert 0 <= failed.failure_point < 2
    # the constructed lattice of the (2, 2, 1, 4) support
    support = two_stage_support(2, 2, 1, 4)
    assert tiles_by_periodic_set(support, (0, F(1, 4)), 1).ok


def test_tiles_certificate_reports_gaps():
    k = IntervalUnion(((F(0), F(1)),))
    cert = tiles_by_periodic_set(k, (0,), 2)
    assert not cert.ok and cert.multiplicity == 0
    assert 1 <= cert.failure_point < 2


def test_tiles_validates_digits():
    k = IntervalUnion(((F(0), F(1)),))
    with pytest.raises(ValueError):
        tiles_by_periodic_set(k, (0, 2), 2)


def test_tile_decide_examples():
    yes = tile_decide(2, 3, 5, 6, 2)
    assert yes.tiles and yes.residue is None
    assert yes.digits == (F(0), F(2, 5), F(4, 5))
    assert yes.period == F(12, 5)
    no = tile_decide(2, 2, 4, 1, 3)
    assert not no.tiles and no.residue == 1
    trivial = tile_decide(3, 2, 4, 5, 5)
    assert trivial.tiles and trivial.support.intervals == ((F(0), F(15, 4)),)


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=-5, max_value=5),
       st.integers(min_value=0, max_value=3))
def test_tiling_invariant_under_translation_and_digit_rotation(shift, rot):
    k = two_stage_support(2, 2, 1, 4).translate(shift)
    digits = [F(0), F(1, 4)]
    rotated = [(d + rot * F(1, 4)) % 1 for d in digits]
    assert tiles_by_periodic_set(k, rotated, 1).ok


def test_length_conservation_when_tiling():
    for p1, t1, t2, b1 in ((2, 2, 1, 4), (3, 6, 2, 6), (4, 6, 3, 5), (2, 5, 5, 3)):
        k = two_stage_support(p1, t1, t2, b1)
        t = t1 // t2
        c = F(t2, b1)
        digits = [c * i for i in range(t)]
        period = c * t * p1
        cert = tiles_by_periodic_set(k, digits, period)
        assert cert.ok
        assert sum(b - a for a, b in k.intervals) * len(digits) == period


def fragment_count_tiling(tile, digits, period):
    """The Fraction sweep that counts every fragment against every segment."""
    period = F(period)
    if period <= 0:
        raise ValueError("period must be positive")
    reps = [F(d) % period for d in digits]
    if len(set(reps)) != len(reps):
        raise ValueError("digits must be distinct mod the period")
    fragments = []
    for d in reps:
        for a, b in tile.intervals:
            lo = a + d
            while b - a > 0:
                start = lo % period
                span = min(b - a, period - start)
                fragments.append((start, start + span))
                lo += span
                a += span
    points = sorted({F(0), period} | {x for fr in fragments for x in fr})
    for left, right in zip(points, points[1:]):
        mult = sum(1 for a, b in fragments if a <= left and right <= b)
        if mult != 1:
            return TilingCertificate(False, (left + right) / 2, mult)
    return TilingCertificate(True)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


SMALL_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(SMALL_FRACTIONS, min_size=0, max_size=8, unique=True),
       st.lists(SMALL_FRACTIONS, min_size=0, max_size=4, unique=True),
       st.one_of(st.fractions(min_value=F(1, 12), max_value=8, max_denominator=12),
                 st.sampled_from((0, -1, F(-1, 2)))))
def test_sweep_matches_the_fragment_count_on_random_unions(ends, digits, period):
    ends = sorted(ends)[:len(ends) // 2 * 2]
    tile = IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
    assert outcome(tiles_by_periodic_set, tile, digits, period) == outcome(
        fragment_count_tiling, tile, digits, period)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 6), st.integers(2, 8),
       st.fractions(min_value=-3, max_value=3, max_denominator=7), st.integers(-2, 2),
       st.integers(0, 2))
def test_sweep_matches_the_fragment_count_near_tilings(p1, t, t2, b1, shift, skew, drop):
    # the two-stage tiling, moved, with its period or digit count perturbed
    c = F(t2, b1)
    tile = two_stage_support(p1, t * t2, t2, b1).translate(shift)
    digits = [c * i + shift for i in range(t)][:max(t - drop, 0)]
    period = c * t * p1 + F(skew, b1 * 2)
    got = outcome(tiles_by_periodic_set, tile, digits, period)
    assert got == outcome(fragment_count_tiling, tile, digits, period)
    if skew == drop == 0:
        assert got == TilingCertificate(True)


def fraction_tile_decide(p1, p2, b1, t1, t2):
    """The two-stage decision composed in Fractions: support, lattice, then the sweep."""
    if t1 % t2:
        return False, None, None, None, None, t1 % t2
    c, t = F(t2, b1), t1 // t2
    support = two_stage_support(p1, t1, t2, b1)
    digits = tuple(c * i for i in range(t))
    period = c * t * p1
    cert = tiles_by_periodic_set(support, digits, period)
    return cert.ok, support, digits, period, cert, None


def decision_fields(dec):
    return dec.tiles, dec.support, dec.digits, dec.period, dec.certificate, dec.residue


def test_tile_decide_matches_the_fraction_composition_on_the_acceptance_grid():
    for p1, p2, b1, t1, t2 in product(range(2, 6), range(2, 6), range(2, 9),
                                      range(1, 7), range(1, 7)):
        assert decision_fields(tile_decide(p1, p2, b1, t1, t2)) == fraction_tile_decide(
            p1, p2, b1, t1, t2), (p1, p2, b1, t1, t2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(2, 9), st.integers(2, 60), st.integers(1, 12),
       st.one_of(st.builds(lambda k: ("mult", k), st.integers(1, 8)),
                 st.builds(lambda t1: ("t1", t1), st.integers(1, 60))))
def test_tile_decide_matches_the_fraction_composition(p1, p2, b1, t2, draw):
    # t1 a multiple of t2, or drawn freely (mostly not a multiple)
    kind, value = draw
    t1 = t2 * value if kind == "mult" else value
    assert decision_fields(tile_decide(p1, p2, b1, t1, t2)) == fraction_tile_decide(
        p1, p2, b1, t1, t2)
