import math
import random
import time
import tracemalloc
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moranspec import spectra
from moranspec.hadamard import canonical_dual_digits
from moranspec.measure import (DEFAULT_ATOM_CAP, INT64_SPAN, MU_HAT_BLOCK, RECURRENCE_MAX_P,
                               AtomCapExceeded, DiscreteMeasure, SymbolicWord, SystemConfig,
                               dirichlet_amplitude, float_quotients, int_width,
                               mask_zero_contains, mask_zero_moduli, mu_hat_many,
                               reduced_amplitude, reduced_quotients, runs, stage_walk, sumset,
                               support_hull, truncate)
from moranspec.oracle import search_spectra
from moranspec.spectra import (VERIFY_ATOM_BOUND, Decomposition,
                               SpectrumCandidate,
                               build_tower_spectrum, decompose_spectrum, default_lattice_modulus,
                               extract_tail_spectrum, q_function,
                               tower_q, tower_stages,
                               verify_spectrum_finite, weighted_matrix_residual)
from test_measure import FIFTY_DIGITS, UNIT, load_pairs, stage_bound, words_over

QUARTER = SystemConfig.of((4, 2, 1))
ONES = SymbolicWord.constant(1)


def unitary_residual_oracle(measure, lams):
    # independent numeric check of orthonormality of the exponential family
    xs = np.array([float(x) for x in measure.points])
    ws = np.array([float(w) for w in measure.weights])
    n = len(lams)
    g = np.zeros((n, n), dtype=complex)
    for a, la in enumerate(lams):
        for b, lb in enumerate(lams):
            g[a, b] = np.sum(ws * np.exp(2j * np.pi * (float(lb) - float(la)) * xs))
    return float(np.linalg.norm(g - np.eye(n)))


def test_tower_examples():
    assert build_tower_spectrum(QUARTER, ONES, 2).points == (0, 2, 8, 10)
    assert build_tower_spectrum(QUARTER, ONES, 0).points == (F(0),)
    assert build_tower_spectrum(SystemConfig.of((2, 2, 3)), ONES, 1).points == (0, 1)


def test_tower_is_orthonormal_by_the_numeric_oracle():
    cand = build_tower_spectrum(QUARTER, ONES, 2)
    m = truncate(QUARTER, ONES, 2)
    assert unitary_residual_oracle(m, cand.points) < 1e-12


def test_tower_rejects_non_admissible_stage():
    with pytest.raises(ValueError):
        build_tower_spectrum(SystemConfig.of((2, 3, 4)), ONES, 1)


def test_towers_handle_negative_bases_and_strides():
    for triple in ((-4, 2, 1), (4, 2, -3), (-6, 3, -5)):
        cfg = SystemConfig.of(triple)
        cand = build_tower_spectrum(cfg, ONES, 2)
        meas = truncate(cfg, ONES, 2)
        ver = verify_spectrum_finite(meas, cand, cfg, ONES, 2)
        assert ver.ok and ver.unitarity_residual < 1e-9, triple
        assert unitary_residual_oracle(meas, cand.points) < 1e-9


def test_spectrum_candidate_forms():
    with pytest.raises(ValueError):
        SpectrumCandidate(nums=(1, 1))
    assert len(SpectrumCandidate.finite(())) == 0


def test_verify_examples():
    m = truncate(QUARTER, ONES, 2)
    good = verify_spectrum_finite(m, SpectrumCandidate.finite((0, 2, 8, 10)),
                                  QUARTER, ONES, 2)
    assert good.ok and good.unitarity_residual < 1e-9
    short = verify_spectrum_finite(m, SpectrumCandidate.finite((0, 1)),
                                   QUARTER, ONES, 2)
    assert not short.ok and short.reason == "cardinality"
    wrong = verify_spectrum_finite(m, SpectrumCandidate.finite((0, 1, 2, 3)),
                                   QUARTER, ONES, 2)
    assert not wrong.ok and wrong.reason == "orthogonality"
    assert wrong.offending == 1


def test_verify_matches_oracle_on_three_letter_towers():
    cfg = SystemConfig.of((4, 2, 1), (6, 3, 1), (2, 2, 3))
    for prefix in product((1, 2, 3), repeat=3):
        word = SymbolicWord(prefix[:-1], (prefix[-1],))
        cand = build_tower_spectrum(cfg, word, 3)
        m = truncate(cfg, word, 3)
        ver = verify_spectrum_finite(m, cand, cfg, word, 3)
        assert ver.ok and ver.unitarity_residual < 1e-9
        assert unitary_residual_oracle(m, cand.points) < 1e-9


def reference_verdict(measure, candidate, config, word, k):
    """(ok, reason, least offender) from every pair, as Fractions, stage by stage."""
    pts = candidate.points
    if len(pts) != len(measure.atoms):
        return False, "cardinality", None
    stages, base = [], 1
    for n in range(1, k + 1):
        pr = config.pair(word.letter(n))
        base *= pr.b
        stages.append((pr.p, pr.t, base))
    offenders = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            for p, t, base in stages:
                y = (b - a) * p * t / base   # (b - a)/base in (Z \ pZ)/(pt)
                if y.denominator == 1 and y.numerator % p != 0:
                    break
            else:
                offenders.add(b - a)
    if offenders:
        return False, "orthogonality", min(offenders)
    return True, None, None


def moved(cand, rng, count):
    """Candidates with one point replaced by a nearby rational not already in it."""
    pts, out = list(cand.points), []
    while len(out) < count:
        i = rng.randrange(len(pts))
        new = pts[i] + F(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 6)))
        if new not in pts:
            out.append(SpectrumCandidate.finite(pts[:i] + [new] + pts[i + 1:]))
    return out


def assert_matches_reference(measure, cand, cfg, word, k):
    ver = verify_spectrum_finite(measure, cand, cfg, word, k)
    assert (ver.ok, ver.reason, ver.offending) == reference_verdict(measure, cand, cfg, word, k)
    return ver


def assert_residual_matches_the_dense_one(ver, measure, cand, tower):
    # weighted_matrix_residual builds the N x N matrix from the atoms: on a
    # spectrum it rounds near the exact 0 that verify reports, and elsewhere
    # verify's sum of mu_hat over the distinct differences matches it
    dense = weighted_matrix_residual(measure, cand.points)
    if tower:
        assert ver.unitarity_residual == 0.0 and dense < 1e-9
    else:
        assert abs(ver.unitarity_residual - dense) <= 1e-9 * dense


def test_verify_matches_a_pairwise_reference():
    rng = random.Random(2002)
    outcomes = set()
    three = SystemConfig.of((4, 2, 1), (6, 3, 1), (2, 2, 3))
    signed = SystemConfig.of((-4, 2, -1), (-6, 3, 5), (4, 2, -3))
    for cfg, depth in ((three, 3), (signed, 3)):
        for prefix in product(range(1, cfg.m + 1), repeat=depth):
            word = SymbolicWord(prefix[:-1], (prefix[-1],))
            cand = build_tower_spectrum(cfg, word, depth)
            m = truncate(cfg, word, depth)
            for c in [cand] + moved(cand, rng, 3):
                ver = assert_matches_reference(m, c, cfg, word, depth)
                outcomes.add(ver.ok)
                assert_residual_matches_the_dense_one(ver, m, c, tower=c is cand)
    # rational tail spectra, as extracted from tower decompositions
    cfg = SystemConfig.of((12, 2, 1), (12, 3, 4))
    for prefix in product((1, 2), repeat=3):
        word = SymbolicWord(prefix[:-1], (prefix[-1],))
        first = cfg.pair(word.letter(1))
        dec = decompose_spectrum(build_tower_spectrum(cfg, word, 3), first.b,
                                 default_lattice_modulus(cfg))
        tail = truncate(cfg, word.shift(1), 2)
        for choice in product(range(first.p), repeat=dec.q // (first.p * first.t)):
            gamma = extract_tail_spectrum(dec, choice, first.p, first.t)
            if gamma.points:
                for c in [gamma] + moved(gamma, rng, 1):
                    ver = assert_matches_reference(tail, c, cfg, word.shift(1), 2)
                    assert_residual_matches_the_dense_one(ver, tail, c, tower=c is gamma)
    assert outcomes == {True, False}


def test_verify_verdicts_do_not_depend_on_the_block_size(monkeypatch):
    # orthogonality tests the distinct differences one MU_HAT_BLOCK at a
    # time; blocks of 3 must find the same least offender
    rng = random.Random(77)
    cfg = SystemConfig.of((4, 2, 1), (6, 3, 1), (2, 2, 3))
    cases = []
    for prefix in ((1, 2, 3), (3, 1, 2), (2, 2, 1)):
        word = SymbolicWord(prefix[:-1], (prefix[-1],))
        cand = build_tower_spectrum(cfg, word, 3)
        cases += [(truncate(cfg, word, 3), c, word) for c in [cand] + moved(cand, rng, 4)]
    wide = [verify_spectrum_finite(m, c, cfg, w, 3) for m, c, w in cases]
    monkeypatch.setattr(spectra, "MU_HAT_BLOCK", 3)
    for (m, c, w), before in zip(cases, wide):
        ver = assert_matches_reference(m, c, cfg, w, 3)
        assert (ver.ok, ver.reason, ver.offending) == (before.ok, before.reason, before.offending)
        assert math.isclose(ver.unitarity_residual, before.unitarity_residual,
                            rel_tol=1e-9, abs_tol=1e-12)
    assert {v.ok for v in wide} == {True, False}


def admissible_letters(multiplier, stride, ps=(2, 3)):
    """Signed letters (+-p*m, p, +-t), p from ps and t coprime to p: every stage is admissible."""
    signs = st.sampled_from((1, -1))
    return st.tuples(st.sampled_from(ps), multiplier, stride, signs, signs).filter(
        lambda v: math.gcd(v[0], v[2]) == 1).map(
        lambda v: (v[3] * v[0] * v[1], v[0], v[4] * v[2]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_on_signed_towers_matches_the_reference(data):
    pairs = data.draw(st.lists(admissible_letters(st.integers(1, 4), st.integers(1, 7)),
                               min_size=1, max_size=3))
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(1, 4))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    cand = build_tower_spectrum(cfg, word, depth)
    meas = truncate(cfg, word, depth)
    assert assert_matches_reference(meas, cand, cfg, word, depth).ok
    for c in moved(cand, rng, 2):
        assert_matches_reference(meas, c, cfg, word, depth)


def shifted_partner_tower(cfg, word, depth, stage, digit, by):
    """The depth tower with one digit of one stage's canonical partner moved by by*|b|.

    Every difference keeps its residue mod b_1...b_n at the stage where its
    digits first differ, so this is still a spectrum, but in general not a
    translate of the canonical tower.
    """
    pts, lead = [0], 1
    for n, (pr, base) in enumerate(stage_walk(cfg, word, depth), start=1):
        partner = list(canonical_dual_digits(pr.b, pr.p, pr.t))
        if n == stage:
            partner[digit % pr.p] += by * abs(pr.b)
        pts = [x + lead * l for x, l in product(pts, partner)]
        lead = base
    return SpectrumCandidate.finite(pts)


def tower_size(cfg, word, depth):
    return math.prod(pr.p for pr, _ in stage_walk(cfg, word, depth))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_tower_is_the_reference_sumset_at_either_width(data):
    # towers whose span passes INT64_SPAN (50-digit bases) are built on Python
    # integers, and INT64_SPAN = 0 sends every tower there
    small = admissible_letters(st.integers(1, 4), st.integers(1, 7))
    big = admissible_letters(st.integers(10**49, 2 * 10**49), FIFTY_DIGITS)
    pairs = data.draw(st.lists(st.one_of(small, big), min_size=1, max_size=3))
    cfg, _ = load_pairs(pairs, [1])
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 6))
    forced = data.draw(st.booleans())
    reference = shifted_partner_tower(cfg, word, depth, 0, 0, by=0)
    wide = forced or reference.nums[-1] - reference.nums[0] >= INT64_SPAN
    widths = []

    def spy(stages):
        sums = sumset(stages)
        widths.append(sums.dtype)
        return sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "sumset", spy)
        if forced:
            mp.setattr("moranspec.measure.INT64_SPAN", 0)
        cand = build_tower_spectrum(cfg, word, depth)
    assert cand == reference and len(cand) == tower_size(cfg, word, depth)
    assert all(type(x) is int for x in cand.nums)
    assert widths == [np.dtype(object if wide else np.int64)]


def takes_the_tower_path(cand, cfg, word, depth):
    return spectra.tower_translate(cand, cfg, word, depth)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_the_tower_path_and_the_pairwise_path_agree(data):
    # towers and their translates, integer or rational, take the tower path;
    # a tower over another denominator, moved towers and non-canonical towers
    # fall back to every pair.  Both paths give the same verdict, and where
    # either proves the candidate orthogonal its residual is exactly 0.0.
    pairs = data.draw(st.lists(admissible_letters(st.integers(1, 3), st.integers(1, 7)),
                               min_size=1, max_size=3))
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 6))
    assume(tower_size(cfg, word, depth) <= 300)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    cand = build_tower_spectrum(cfg, word, depth)
    meas = truncate(cfg, word, depth)
    shift = F(rng.randint(-10**6, 10**6), rng.choice((1, 1, 2, 5)))
    cases = [cand, SpectrumCandidate.finite(x + shift for x in cand.points),
             # the numerators of a tower translate, but over 3: (lambda + 1)/3, the
             # tower scaled by 1/3 and not a translate of it
             SpectrumCandidate(nums=tuple(x + 1 for x in cand.nums), den=3)] + moved(cand, rng, 1)
    if depth:
        cases.append(shifted_partner_tower(cfg, word, depth, rng.randint(1, depth),
                                           rng.randrange(6), rng.choice((-1, 1, 2))))
    for c in cases:
        ver = assert_matches_reference(meas, c, cfg, word, depth)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "tower_translate", lambda *args: False)
            pairwise = verify_spectrum_finite(meas, c, cfg, word, depth)
        assert (ver.ok, ver.reason, ver.offending) == (pairwise.ok, pairwise.reason,
                                                      pairwise.offending)
        if ver.ok:
            assert ver.unitarity_residual == pairwise.unitarity_residual == 0.0
        elif takes_the_tower_path(c, cfg, word, depth):
            assert ver.unitarity_residual == 0.0
        else:
            assert ver == pairwise
    assert verify_spectrum_finite(meas, cand, cfg, word, depth).ok
    assert all(takes_the_tower_path(c, cfg, word, depth) for c in cases[:2])


def test_verify_checks_a_tower_stage_by_stage(monkeypatch):
    # on a tower, mask_zero_moduli is asked once per stage, on Python
    # integers, and no difference table is built; falling back to every
    # distinct difference would sort thousands of them (about 265,000 for the
    # depth-12 tower of (4, 2, 1))
    moduli, seen = [], []

    def spy(p, t, den):
        assert not any(isinstance(x, np.ndarray) for x in (p, t, den))
        moduli.append(den)
        return mask_zero_moduli(p, t, den)

    def table_spy(values):
        seen.append(len(values))
        return runs(values)

    monkeypatch.setattr(spectra, "mask_zero_moduli", spy)
    monkeypatch.setattr(spectra, "runs", table_spy)
    three = SystemConfig.of((4, 2, 1), (6, 3, 1), (2, 2, 3))
    signed = SystemConfig.of((-4, 2, -1), (-6, 3, 5), (4, 2, -3))
    cases = [(QUARTER, ONES, 12), (three, SymbolicWord((1, 2), (3, 2)), 5),
             (signed, SymbolicWord((3,), (2, 1)), 5)]
    for cfg, word, depth in cases:
        cand = build_tower_spectrum(cfg, word, depth)
        meas = truncate(cfg, word, depth)
        far = SpectrumCandidate(nums=tuple(x - 3 * 10**9 for x in cand.nums))
        # the tower translated by 1/3: its numerators over 3 are 3 lambda + 1
        third = SpectrumCandidate(nums=tuple(3 * x + 1 for x in cand.nums), den=3)
        for c in (cand, far, third):
            moduli.clear()
            seen.clear()
            assert verify_spectrum_finite(meas, c, cfg, word, depth).ok
            assert moduli == [base for _, base in stage_walk(cfg, word, depth)]
            assert not seen
    # a moved point leaves the tower path: every distinct difference is tested
    seen.clear()
    cfg, word, depth = cases[1]
    moved_tower = moved(build_tower_spectrum(cfg, word, depth), random.Random(5), 1)[0]
    verify_spectrum_finite(truncate(cfg, word, depth), moved_tower, cfg, word, depth)
    assert sum(seen) > 100


# nonzero integers of both signs, small and far past 2**63
SIGNED_WIDE = (st.integers(-10**4, 10**4) | st.integers(-2**200, 2**200)).filter(bool)


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 40), SIGNED_WIDE, SIGNED_WIDE, SIGNED_WIDE, st.booleans())
@example(4, 1, 4, 1, False)  # every digit hits: Q = 1, P = 4
@example(4, 1, 4, 2, False)  # j = 2 misses: P / gcd(P, 2) = 2 < p
@example(2, 1, 4, 1, False)  # j = 1 misses: Q = 2 does not divide 1
@example(3, -5, -30, 1, True)  # Q = 2, P = 6, both signs negative: every digit hits
def test_the_per_stage_tower_test_is_the_per_digit_definition(p, t, base, j, of_q):
    # tower_translate proves a stage's differences step*d, 0 < d < p, over
    # B_n in its zero set by one test on its moduli (Q, P): Q | step and
    # P / gcd(P, step) >= p; half the steps are multiples of Q, which pass
    # unless P / gcd(P, step) < p
    q, big = mask_zero_moduli(p, t, base)
    step = j * q if of_q else j
    per_digit = all(mask_zero_contains(p, t, F(step * d, base)) for d in range(1, p))
    assert (step % q == 0 and big // math.gcd(big, step) >= p) == per_digit


def test_a_moved_point_inside_the_span_is_rejected_before_any_point_is_built(monkeypatch):
    # a tower translate is symmetric about its centre, so moving one point
    # strictly inside the span changes the sum the span fixes: tower_translate
    # refuses it with no sumset call, and the tower itself still builds one
    calls = []

    def spy(stages):
        calls.append(len(stages))
        return sumset(stages)

    monkeypatch.setattr(spectra, "sumset", spy)
    three = SystemConfig.of((4, 2, 1), (6, 3, 1), (2, 2, 3))
    for cfg, word, depth in ((QUARTER, ONES, 6), (three, SymbolicWord((1, 2), (3, 2)), 5)):
        cand = build_tower_spectrum(cfg, word, depth)
        nums = list(cand.nums)
        i = len(nums) // 2
        nums[i] = next(x for x in range(nums[i] + 1, nums[-1]) if x not in cand.nums)
        inside = SpectrumCandidate(nums=tuple(sorted(nums)), den=cand.den)
        assert inside.nums[0] == cand.nums[0] and inside.nums[-1] == cand.nums[-1]
        calls.clear()
        assert not spectra.tower_translate(inside, cfg, word, depth)
        assert calls == []
        assert spectra.tower_translate(cand, cfg, word, depth) and len(calls) == 1
        assert verify_spectrum_finite(truncate(cfg, word, depth), cand, cfg, word, depth).ok


def hits_a_stage(d, stages):
    """Whether the integer d hits some stage's zero set (Z \\ pZ)/(p*t) at d/den.

    The zero set's definition in Fractions: d/den = m/(p*t), m an integer
    not divisible by p.
    """
    return any((m := F(d * pr.p * pr.t, den)).denominator == 1 and m.numerator % pr.p != 0
               for pr, den in stages)


def row_by_row_pairwise(candidate, config, word, k, complete):
    """The pairwise path stated one row and one stage at a time: (residual, least offender).

    The difference table is written one np.subtract per row; the distinct
    differences are tested in increasing order against every stage by the
    zero set's definition (hits_a_stage), and each block's residual takes
    one reduced_quotients and dirichlet_amplitude call per stage, multiplied
    in stage order.
    """
    nums, scale = candidate.nums, candidate.den
    stages = [(pr, scale * base) for pr, base in stage_walk(config, word, k)]
    reach = max((pr.p * abs(pr.t) for pr, _ in stages), default=1)
    bound = (nums[-1] - nums[0] if nums else 0) * reach
    arr = np.array([v - nums[0] for v in nums], dtype=int_width(bound))
    table = np.concatenate([np.empty(0, dtype=arr.dtype)]
                           + [arr[i + 1:] - arr[i] for i in range(len(nums) - 1)])
    table.sort()
    diffs, counts = runs(table)
    block_size, offending = spectra.MU_HAT_BLOCK, None
    if complete:
        offending = next((F(int(d), scale) for d in diffs if not hits_a_stage(int(d), stages)),
                         None)
        if offending is None:
            return 0.0, None
    total = 0.0
    for i in range(0, len(diffs), block_size):
        block = diffs[i:i + block_size]
        amp = np.ones(len(block))
        for pr, den in stages:
            amp *= dirichlet_amplitude(pr.p, reduced_quotients(pr.t, block, abs(den),
                                                               int(block[-1])))
        total += float(np.sum(counts[i:i + block_size] * (amp * amp)))
    return math.sqrt(2 * total), offending


def row_by_row_cases():
    """(measure, candidate, config, word, depth) off the tower path, of every kind and width."""
    rng = random.Random(3838)
    three = SystemConfig.of((4, 2, 1), (6, 3, 1), (2, 2, 3))
    signed = SystemConfig.of((-4, 2, -1), (-6, 3, 5), (4, 2, -3))
    cases = []
    for cfg, prefix in product((three, signed), ((1, 2, 3), (3, 1, 2), (2, 2, 1), (1, 1, 1))):
        word = SymbolicWord(prefix[:-1], (prefix[-1],))
        for depth in (3, 4):
            cand, meas = build_tower_spectrum(cfg, word, depth), truncate(cfg, word, depth)
            third = SpectrumCandidate.finite(x + F(1, 3) for x in cand.points)
            cands = moved(cand, rng, 2) + moved(third, rng, 1) + [
                shifted_partner_tower(cfg, word, depth, 2, 1, by=1),  # a spectrum, no translate
                SpectrumCandidate(nums=tuple(x + 1 for x in cand.nums), den=3),  # scaled by 1/3
                SpectrumCandidate(nums=cand.nums[1:]),  # incomplete: a point short
                SpectrumCandidate(nums=cand.nums + (cand.nums[-1] + 1,))]  # and one over
            cases += [(meas, c, cfg, word, depth) for c in cands]
    # Python-integer differences: (10**350, 2, 1) at depth 4 with its top point moved
    wide = SystemConfig.of((10**350, 2, 1))
    cand = build_tower_spectrum(wide, ONES, 4)
    cases.append((truncate(wide, ONES, 4), SpectrumCandidate(nums=cand.nums[:-1] + (
        cand.nums[-1] + 1,)), wide, ONES, 4))
    # int64 differences against stages of either width: |B_3| = 2**60 takes Python's
    # int / int, and (4, 2, 1)^oo at depth 40 Python integers past 2**62
    mixed = SystemConfig.of((2**20, 2, 1))
    cand = build_tower_spectrum(mixed, ONES, 3)
    cases += [(truncate(mixed, ONES, 3), c, mixed, ONES, 3) for c in moved(cand, rng, 2)]
    cases.append((DiscreteMeasure.point_mass(), SpectrumCandidate.finite(range(10)),
                  QUARTER, ONES, 40))
    return cases


@pytest.mark.parametrize("block", [MU_HAT_BLOCK, 100, 3])
def test_verify_gives_the_row_by_row_bits(monkeypatch, block):
    # the block-at-a-time pairwise path reports the least offender and the
    # residual's bits of the row-by-row, stage-by-stage loop, at any block size
    monkeypatch.setattr(spectra, "MU_HAT_BLOCK", block)
    outcomes = set()
    for meas, cand, cfg, word, depth in row_by_row_cases():
        assert not takes_the_tower_path(cand, cfg, word, depth)
        ver = verify_spectrum_finite(meas, cand, cfg, word, depth)
        resid, offending = row_by_row_pairwise(cand, cfg, word, depth,
                                               len(cand) == len(meas.nums))
        assert (ver.offending, ver.unitarity_residual.hex()) == (offending, resid.hex()), cand
        outcomes.add((ver.reason, resid == 0.0))
    assert outcomes == {("orthogonality", False), ("cardinality", False), (None, True)}


def test_a_proven_orthogonal_candidate_takes_no_stage_factor(monkeypatch):
    # a tower, and a spectrum that is no tower translate (one partner digit
    # moved by a multiple of b), are proven orthogonal in integers, so their
    # residual is exactly 0.0 and no stage factor is taken; a moved point
    # takes all k stages at each distinct difference, a block's stages in one call
    evals = []

    def spy(ps, ts, nums, mods, reach):
        evals.append(len(ps) * len(nums))
        return reduced_amplitude(ps, ts, nums, mods, reach)

    monkeypatch.setattr(spectra, "reduced_amplitude", spy)
    signed = SystemConfig.of((-4, 2, -1), (-6, 3, 5), (4, 2, -3))
    # stage 2 is (-6, 3, 5) in both signed words, whose middle digit moved by
    # 6 leaves no progression; (2, 2, 1)'s stage-2 digits {0, 1} become {0, 3}
    for cfg, word, depth in ((signed, SymbolicWord((3,), (2, 1)), 4),
                             (signed, SymbolicWord((1, 2), (3, 2)), 5),
                             (SystemConfig.of((2, 2, 1)), ONES, 4)):
        cand = build_tower_spectrum(cfg, word, depth)
        meas = truncate(cfg, word, depth)
        partner = shifted_partner_tower(cfg, word, depth, 2, 1, by=1)
        assert not takes_the_tower_path(partner, cfg, word, depth)
        for c in (cand, partner):
            evals.clear()
            ver = verify_spectrum_finite(meas, c, cfg, word, depth)
            assert ver.ok and ver.unitarity_residual == 0.0 and not evals
        moved_tower = moved(cand, random.Random(depth), 1)[0]
        evals.clear()
        verify_spectrum_finite(meas, moved_tower, cfg, word, depth)
        assert evals and sum(evals) == depth * len(distinct_differences(moved_tower))


def distinct_differences(cand):
    return {b - a for i, a in enumerate(cand.nums) for b in cand.nums[i + 1:]}


def test_tower_path_keeps_the_sumset_width_past_the_mask_product_bound(monkeypatch):
    # spans about 2**39, below INT64_SPAN, but span * p|t| passes 2**62: the
    # stage tests take Python integers, so the tower's sumset stays int64
    cfg, word = SystemConfig.of((2**20, 2, 2**25 + 1)), ONES
    cand = build_tower_spectrum(cfg, word, 2)
    third = SpectrumCandidate.finite(x + F(1, 3) for x in cand.points)
    meas = truncate(cfg, word, 2)
    widths = []

    def spy(stages):
        sums = sumset(stages)
        widths.append(sums.dtype)
        return sums

    monkeypatch.setattr(spectra, "sumset", spy)
    for c in (cand, third):
        span = c.nums[-1] - c.nums[0]
        assert span < INT64_SPAN < span * 2 * (2**25 + 1)
        widths.clear()
        ver = assert_matches_reference(meas, c, cfg, word, 2)
        assert widths == [np.dtype(np.int64)]
        assert ver.ok and ver.unitarity_residual == 0.0


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_verify_with_fifty_digit_decimal_strings_matches_the_reference(data):
    # products of 50-digit bases pass 2**62, so verification runs on object arrays
    big = admissible_letters(st.integers(10**49, 2 * 10**49), st.one_of(st.integers(1, 7),
                                                                        FIFTY_DIGITS))
    small = admissible_letters(st.integers(1, 4), st.integers(1, 7))
    pairs = data.draw(st.lists(st.one_of(big, small), min_size=1, max_size=3))
    assume(any(len(str(abs(b))) == 50 for b, _, _ in pairs))
    cfg, word = load_pairs(pairs, data.draw(st.lists(st.integers(1, len(pairs)),
                                                     min_size=1, max_size=3)))
    depth = data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    cand = build_tower_spectrum(cfg, word, depth)
    meas = truncate(cfg, word, depth)
    for c in [cand] + moved(cand, rng, 2):
        assert_matches_reference(meas, c, cfg, word, depth)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.one_of(admissible_letters(st.integers(1, 4), st.integers(1, 7)),
                          admissible_letters(st.integers(10**49, 2 * 10**49), FIFTY_DIGITS)),
                min_size=1, max_size=3), st.data())
def test_depth_5000_is_refused_before_anything_is_built(pairs, data):
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    tracemalloc.start()
    try:
        with pytest.raises(AtomCapExceeded, match=f"cap is {DEFAULT_ATOM_CAP}"):
            truncate(cfg, word, 5000)
        with pytest.raises(AtomCapExceeded, match=f"cap is {DEFAULT_ATOM_CAP}"):
            build_tower_spectrum(cfg, word, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_verify_verdicts_do_not_depend_on_the_integer_width(monkeypatch):
    # the difference table is int64 below INT64_SPAN and object past it;
    # forcing object tables must give the same verdicts and residuals
    rng = random.Random(404)
    cases = []
    signed = SystemConfig.of((-4, 2, -1), (-6, 3, 5), (4, 2, -3))
    for prefix in ((1, 2, 3), (3, 1, 2), (2, 2, 1)):
        word = SymbolicWord(prefix[:-1], (prefix[-1],))
        cand = build_tower_spectrum(signed, word, 3)
        # a rational translate runs the tower path's steps scaled by its denominator
        sevenths = SpectrumCandidate.finite(x + F(5, 7) for x in cand.points)
        cases += [(truncate(signed, word, 3), c, signed, word, 3)
                  for c in [cand, sevenths] + moved(cand, rng, 3)]
    tails = SystemConfig.of((12, 2, 1), (12, 3, 4))
    word = SymbolicWord((1,), (2,))
    dec = decompose_spectrum(build_tower_spectrum(tails, word, 3), 12,
                             default_lattice_modulus(tails))
    for choice in product(range(2), repeat=dec.q // 2):
        gamma = extract_tail_spectrum(dec, choice, 2, 1)
        if gamma.points:
            cases += [(truncate(tails, word.shift(1), 2), c, tails, word.shift(1), 2)
                      for c in [gamma] + moved(gamma, rng, 1)]
    # distinct differences 2, 6, 8, 10, 12, ...: the least offender 12 is in the
    # second block of 3
    late = SpectrumCandidate.finite((-4, 2, 8, 10, 32, 34, 40, 42))
    cases.append((truncate(QUARTER, ONES, 3), late, QUARTER, ONES, 3))
    widths = set()

    def spy(table):  # the tower path builds no table
        widths.add(table.dtype)
        return runs(table)

    def verdicts():
        return [verify_spectrum_finite(*case) for case in cases]

    monkeypatch.setattr(spectra, "runs", spy)
    narrow = verdicts()
    assert widths == {np.dtype(np.int64)}
    assert {v.ok for v in narrow} == {True, False}
    assert (narrow[-1].reason, narrow[-1].offending) == ("orthogonality", 12)
    monkeypatch.setattr("moranspec.measure.INT64_SPAN", 0)
    widths.clear()
    for block in (MU_HAT_BLOCK, 3):
        monkeypatch.setattr(spectra, "MU_HAT_BLOCK", block)
        wide = verdicts()
        for before, after in zip(narrow, wide):
            assert (after.ok, after.reason, after.offending) == (before.ok, before.reason,
                                                                before.offending)
            if block == MU_HAT_BLOCK:
                assert after.unitarity_residual == before.unitarity_residual
    assert widths == {np.dtype(object)}


def test_float_quotients_round_like_fractions():
    for nums, den in (((-7, 0, 3, 2**52), 3),
                      ((-(2**60) - 1, 5, 2**70 + 3), 7),
                      ((1, 2, 3), 3 * 2**60),
                      ((), 5)):
        assert float_quotients(nums, den).tolist() == [float(F(n, den)) for n in nums]


def test_verify_past_the_int64_span():
    # L_1 + 4 L_2 = {0, 2, 8, 10} shifted by 16 * 2**62 keeps every difference
    # in 2 + 4Z or 8 + 16Z; the span passes 2**62, so object integers are used.
    m = truncate(QUARTER, ONES, 2)
    far = 2**66
    for pts in ((0, 2, 8 + far, 10 + far), (0, 2, 8 + far, 11 + far),
                (F(1, 3), F(7, 3), F(1, 3) + 8 + far, F(1, 3) + 11 + far)):
        cand = SpectrumCandidate.finite(pts)
        assert cand.points[-1] - cand.points[0] > 2**62
        assert_matches_reference(m, cand, QUARTER, ONES, 2)
    assert verify_spectrum_finite(m, SpectrumCandidate.finite((0, 2, 8 + far, 10 + far)),
                                  QUARTER, ONES, 2).ok


def test_verify_at_the_width_boundary(monkeypatch):
    # spans 2**61 + 2 and 2**61 + 1 are below INT64_SPAN, but times p|t| = 2 they
    # are not, so the differences are Python integers from the start
    m = truncate(QUARTER, ONES, 1)
    widths = set()

    def spy(table):
        widths.add(table.dtype)
        return runs(table)

    monkeypatch.setattr(spectra, "runs", spy)
    verdicts = []
    for top in (2**61 + 2, 2**61 + 1):
        assert top < INT64_SPAN <= 2 * top
        ver = assert_matches_reference(m, SpectrumCandidate.finite((0, top)), QUARTER, ONES, 1)
        verdicts.append((ver.ok, ver.offending))
    assert verdicts == [(True, None), (False, 2**61 + 1)]
    assert widths == {np.dtype(object)}
    # the 4 * 2**66 stage has Q = 2**67, past the span 3, so it can hit no
    # difference: it is skipped, and the table, whose width the span sets,
    # stays on int64
    huge, word = SystemConfig.of((4, 2, 1), (2**66, 2, 1)), SymbolicWord((1,), (2,))
    widths.clear()
    ver = assert_matches_reference(truncate(huge, word, 2), SpectrumCandidate.finite((0, 1, 2, 3)),
                                   huge, word, 2)
    assert (ver.ok, ver.offending) == (False, 1) and widths == {np.dtype(np.int64)}


@pytest.mark.parametrize("depth,nums,expected", [
    (0, (), (False, "cardinality", None)),
    (0, (0,), (True, None, None)),
    (0, (5,), (True, None, None)),
    (1, (0, 2), (True, None, None)),
    (1, (0, 1), (False, "orthogonality", F(1))),
    (1, (0, 2, 6), (False, "cardinality", None)),
])
def test_verify_with_no_or_one_difference(depth, nums, expected):
    # the difference table holds N(N-1)/2 = 0, 0, 0, 1, 1 and 3 entries
    meas = truncate(QUARTER, ONES, depth)
    ver = verify_spectrum_finite(meas, SpectrumCandidate(nums=nums), QUARTER, ONES, depth)
    assert (ver.ok, ver.reason, ver.offending) == expected
    if len(nums) < 2:
        assert ver.unitarity_residual == 0.0


def test_verify_reports_the_least_offending_difference():
    # differences 3, 7 and 13 hit no zero set of (4, 2, 1) at depth 2; 10 does
    m = truncate(QUARTER, ONES, 2)
    ver = verify_spectrum_finite(m, SpectrumCandidate.finite((0, 3, 10, 13)), QUARTER, ONES, 2)
    assert (ver.ok, ver.reason, ver.offending) == (False, "orthogonality", 3)


def test_verify_refuses_past_the_atom_bound():
    cand = SpectrumCandidate.finite(range(VERIFY_ATOM_BOUND + 1))
    with pytest.raises(AtomCapExceeded, match=f"verify atom bound {VERIFY_ATOM_BOUND}"):
        verify_spectrum_finite(DiscreteMeasure.point_mass(), cand, QUARTER, ONES, 0)


def test_verify_weighs_wide_differences_against_the_atom_bound():
    # depth 9 of (10**350, 2, 1) with its top point moved: 512 points whose
    # span times p|t| is about 10**3150, 10,465 bits, so each of their
    # 130,816 differences weighs 15 + 10,465 // 48 int64 ones, 30,480,128 in
    # all, and the pairwise path refuses before building one; depth 8's 256
    # points weigh 6,789,120 and run
    cfg = SystemConfig.of((10**350, 2, 1))
    cand = build_tower_spectrum(cfg, ONES, 9)
    moved_tower = SpectrumCandidate(nums=cand.nums[:-1] + (cand.nums[-1] + 1,))
    meas = truncate(cfg, ONES, 9)
    started = time.perf_counter()
    with pytest.raises(AtomCapExceeded, match=f"512 points need 30480128 weighted differences, "
                                              f"past the verify atom bound {VERIFY_ATOM_BOUND}"):
        verify_spectrum_finite(meas, moved_tower, cfg, ONES, 9)
    assert time.perf_counter() - started < 1


def test_verify_takes_the_tower_path_past_the_atom_bound():
    # depth 14 of (4, 2, 1): 16,384 points, which the atom bound refused on
    # either path; the tower and its translate by 1/3 take the tower path,
    # while a moved point, at the end or inside, still gets the pairwise refusal
    cand = build_tower_spectrum(QUARTER, ONES, 14)
    meas = truncate(QUARTER, ONES, 14)
    third = SpectrumCandidate(nums=tuple(3 * x + 1 for x in cand.nums), den=3)
    for c in (cand, third):
        assert len(c) == 16384 > VERIFY_ATOM_BOUND and takes_the_tower_path(c, QUARTER, ONES, 14)
        ver = verify_spectrum_finite(meas, c, QUARTER, ONES, 14)
        assert ver.ok and ver.unitarity_residual == 0.0
    for c in (SpectrumCandidate(nums=cand.nums[:-1] + (cand.nums[-1] + 1,)),
              moved(cand, random.Random(14), 1)[0]):
        with pytest.raises(AtomCapExceeded, match=f"verify atom bound {VERIFY_ATOM_BOUND}"):
            verify_spectrum_finite(meas, c, QUARTER, ONES, 14)


def test_the_pairwise_bound_counts_points_not_atoms():
    # 10 points against the 8,192 atoms of (4, 2, 1)^oo at depth 13: the
    # pairwise path builds their 45 differences, where weighing the atoms'
    # 33.5 million refused the candidate
    meas = truncate(QUARTER, ONES, 13)
    assert len(meas.nums) == 8192
    ver = verify_spectrum_finite(meas, SpectrumCandidate.finite(range(10)), QUARTER, ONES, 13)
    assert (ver.ok, ver.reason, ver.offending) == (False, "cardinality", None)
    assert ver.unitarity_residual > 0


def test_q_function_examples():
    cand = SpectrumCandidate.finite((0, 2))
    # cos^2(pi x/4) + cos^2(pi (x+2)/4) = 1
    assert q_function(QUARTER, ONES, 1, cand, 0.3) == pytest.approx(1.0, abs=1e-10)
    assert q_function(QUARTER, ONES, 1, cand, 0.0) == pytest.approx(1.0, abs=1e-10)
    bad = SpectrumCandidate.finite((0, 1))
    assert q_function(QUARTER, ONES, 1, bad, 0.0) == pytest.approx(1.5, abs=1e-10)


def test_q_identity_on_a_grid_for_a_verified_tower():
    cand = build_tower_spectrum(QUARTER, ONES, 3)
    worst = max(abs(q_function(QUARTER, ONES, 3, cand, i / 64) - 1)
                for i in range(64))
    assert worst < 1e-9


def test_q_function_on_an_array_matches_the_scalar_calls_bitwise():
    mixed = SystemConfig.of((4, 2, 1), (2, 2, 3))
    xs = np.arange(64) / 64
    for cfg, word in ((QUARTER, ONES), (mixed, SymbolicWord((1,), (2,)))):
        for depth in range(1, 7):
            cand = build_tower_spectrum(cfg, word, depth)
            many = q_function(cfg, word, depth, cand, xs)
            assert many.shape == xs.shape
            single = [q_function(cfg, word, depth, cand, x) for x in xs]
            assert all(isinstance(q, float) for q in single)
            assert many.tolist() == single, (word, depth)


def tower_q_bound(stages):
    """tower_q's stated rounding bound on |Q(x) - 1|, the same at every x."""
    total = 0.0
    for pr, _, _ in stages:
        factor = stage_bound(pr.p, 2) + (1.3 * (pr.p**2 - 1) * UNIT + 2 * math.pi * pr.p * UNIT
                                         if pr.p <= RECURRENCE_MAX_P else math.pi * pr.p * UNIT)
        total += 2 * math.sqrt(pr.p) * factor + 3 * pr.p * UNIT
    return total


def q_function_bound(cfg, word, depth, cand, x):
    """A rounding bound on q_function(x), point by point.

    Per point, mu_hat_amplitude's stated bound plus the error of the float
    stage argument (x + lambda) t_n / B_n, within 5 units of it, through
    |D_p'| <= pi p / 2; then the square and the sum.
    """
    total = 0.0
    for lam in cand.nums:
        y = F(x) + F(lam, cand.den)
        amp = sum(stage_bound(pr.p, float(abs(y * pr.t / base))) + UNIT
                  + math.pi * pr.p / 2 * 5 * UNIT * float(abs(y * pr.t / base))
                  for pr, base in stage_walk(cfg, word, depth))
        total += 2 * amp + amp * amp + UNIT
    return total + len(cand) * UNIT


def grid_nums(data):
    """Sorted distinct integer numerators below 4 * den in magnitude, over a drawn den."""
    den = data.draw(st.integers(1, 1000))
    nums = data.draw(st.lists(st.integers(-4 * den, 4 * den), min_size=1, max_size=8))
    return np.unique(nums), den


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tower_q_is_one_within_its_stated_bound(data):
    # the tree's Q is within its docstring bound of 1; where the tower's
    # span is small enough for q_function to be accurate, the two agree to
    # the sum of their bounds
    pairs = data.draw(st.lists(admissible_letters(st.integers(1, 4), st.integers(1, 7)),
                               min_size=1, max_size=3))
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 6))  # at most 3**6 points
    stages = tower_stages(cfg, word, depth, DEFAULT_ATOM_CAP)
    nums, den = grid_nums(data)
    qs = tower_q_over(stages, nums, den)
    assert qs.shape == nums.shape
    assert np.all(np.abs(qs - 1) <= tower_q_bound(stages)), (nums, den, qs)
    cand = build_tower_spectrum(cfg, word, depth)
    if len(cand) <= 512 and cand.nums[-1] - cand.nums[0] < 2**12:
        xs = nums / den
        for x, q, ref in zip(xs.tolist(), qs.tolist(),
                             q_function(cfg, word, depth, cand, xs).tolist()):
            assert abs(q - ref) <= (tower_q_bound(stages)
                                    + q_function_bound(cfg, word, depth, cand, x)), (x, q, ref)


# digit counts on both sides of RECURRENCE_MAX_P: angle addition below, the sine quotient past it
BRANCH_PS = (2, 3, 5, 8, 16, 31, 32, 33, 37)


def tower_q_over(stages, nums, den=1):
    """tower_q's blocks joined into one array."""
    return np.concatenate([np.empty(0), *tower_q(stages, nums, den)])


def branch_tower(data, points):
    """A signed tower whose first two stages take p on each side of RECURRENCE_MAX_P.

    The alphabet's first letter has p <= RECURRENCE_MAX_P, its second p past
    it; the word starts with both, in a drawn order, and the depth is the
    deepest of at most six whose tower has at most points points.  Bases
    and strides are small or past 2**60, so a stage's residues may be int64
    or Python integers.
    """
    low = [p for p in BRANCH_PS if p <= RECURRENCE_MAX_P]
    high = [p for p in BRANCH_PS if p > RECURRENCE_MAX_P]
    multiplier = st.one_of(st.integers(1, 3), st.integers(2**60, 2**70))
    stride = st.one_of(st.integers(1, 7), st.integers(2**60, 2**200))
    pairs = [data.draw(admissible_letters(multiplier, stride, ps)) for ps in (low, high)]
    pairs += data.draw(st.lists(admissible_letters(multiplier, stride, BRANCH_PS), max_size=2))
    cfg = SystemConfig.of(*pairs)
    rest = data.draw(words_over(cfg.m))
    word = SymbolicWord(tuple(data.draw(st.permutations((1, 2)))) + rest.preperiod, rest.period)
    depth = 6
    while math.prod(pr.p for pr, _ in stage_walk(cfg, word, depth)) > points:
        depth -= 1
    return cfg, tower_stages(cfg, word, depth, points)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tower_q_is_within_its_stated_bound_on_both_sides_of_the_branch(data):
    # a recurrence stage takes angle addition and a larger p the sine
    # quotient at the summed argument; either way the stated bound holds
    _, stages = branch_tower(data, 2**14)
    assert {pr.p <= RECURRENCE_MAX_P for pr, _, _ in stages} == {True, False}
    nums, den = grid_nums(data)
    qs = tower_q_over(stages, nums, den)
    assert np.all(np.abs(qs - 1) <= tower_q_bound(stages)), (nums, den, qs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tower_q_does_not_depend_on_the_block_split(data):
    # every x's Q is the same bits over the whole grid and over any split
    # of it, blocks of one x included (numpy sums a single column pairwise)
    _, stages = branch_tower(data, 2**12)
    nums = np.unique(data.draw(st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=200)))
    den = data.draw(st.integers(1, 1000))
    cuts = sorted(data.draw(st.lists(st.integers(1, len(nums)), max_size=6)))
    whole = tower_q_over(stages, nums, den)
    pieces = [tower_q_over(stages, nums[a:b], den)
              for a, b in zip([0, *cuts], [*cuts, len(nums)])]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


def test_tower_q_at_depth_zero_is_exactly_one():
    # the point mass has one leaf of weight 1
    assert tower_q_over([], range(8), 8).tolist() == [1.0] * 8


def test_tower_q_does_not_depend_on_the_integer_width(monkeypatch):
    # stage n's digit offsets j*step_n are an int64 progression below
    # INT64_SPAN and Python integers (object arrays) past it; odd steps past
    # 2**53, of either sign, round to the same floats either way
    cfg = SystemConfig.of((-3 * (2**54 + 1), 3, -2), (-9, 3, 1), (4, 2, -1))
    towers = [tower_stages(cfg, word, depth, DEFAULT_ATOM_CAP)
              for word, depth in ((SymbolicWord((1,), (2,)), 5),
                                  (SymbolicWord((3, 1), (2, 3)), 5),
                                  (SymbolicWord((), (3, 2)), 6))]
    steps = [step for stages in towers for _, step, _ in stages]
    assert any(step > 2**53 and step % 2 for step in steps)
    assert any(step < -(2**53) and step % 2 for step in steps)
    nums = np.arange(-8, 8)
    widths = []

    def spy(bound):
        widths.append(int_width(bound))
        return widths[-1]

    monkeypatch.setattr(spectra, "int_width", spy)
    narrow = [tower_q_over(stages, nums, 5).tolist() for stages in towers]
    assert set(widths) == {np.int64, object}
    monkeypatch.setattr("moranspec.measure.INT64_SPAN", 1)
    widths.clear()
    assert [tower_q_over(stages, nums, 5).tolist() for stages in towers] == narrow
    assert set(widths) == {object}


@pytest.mark.parametrize("refuse", [
    lambda: truncate(QUARTER, ONES, -1),
    lambda: tower_stages(QUARTER, ONES, -1, DEFAULT_ATOM_CAP),
    lambda: build_tower_spectrum(QUARTER, ONES, -1),
    lambda: mu_hat_many(QUARTER, ONES, np.zeros(4), -1),
    lambda: verify_spectrum_finite(DiscreteMeasure.point_mass(), SpectrumCandidate.finite([0]),
                                   QUARTER, ONES, -1),
    lambda: search_spectra(truncate(QUARTER, ONES, 1), [0, 2], config=QUARTER, word=ONES,
                           depth=-1),
], ids=["truncate", "tower_stages", "build_tower_spectrum", "mu_hat_many",
        "verify_spectrum_finite", "search_spectra"])
def test_a_negative_depth_is_refused_by_the_stage_walk(refuse):
    with pytest.raises(ValueError, match="^depth k must be >= 0$"):
        refuse()


def test_tower_refuses_past_the_atom_cap():
    # 2**20 points would pass the cap; stage 20 is refused before it is built
    started = time.perf_counter()
    with pytest.raises(AtomCapExceeded, match=f"cap is {DEFAULT_ATOM_CAP}"):
        build_tower_spectrum(QUARTER, ONES, 10**9)
    assert time.perf_counter() - started < 5.0
    assert len(build_tower_spectrum(QUARTER, ONES, 12).points) == 4096


def test_decompose_examples():
    dec = decompose_spectrum(SpectrumCandidate.finite((0, 2, 8, 10)), 4, 2)
    assert dec.q == 2
    assert dec.classes == {0: frozenset({0, 2}), 1: frozenset({0, 2})}
    single = decompose_spectrum(SpectrumCandidate.finite((0,)), 5, 3)
    assert single.classes == {0: frozenset({0})}
    two = decompose_spectrum(SpectrumCandidate.finite((0, 6)), 12, 2)
    assert two.classes == {0: frozenset({0}), 1: frozenset({0})}


def test_decompose_reports_offending_point():
    with pytest.raises(ValueError, match="1/3"):
        decompose_spectrum(SpectrumCandidate.finite((0, F(1, 3))), 2, 2)


def test_extract_examples():
    dec = decompose_spectrum(SpectrumCandidate.finite((0, 2, 8, 10)), 4, 2)
    g0 = extract_tail_spectrum(dec, [0], 2, 1)
    assert g0.points == (0, 2)
    g1 = extract_tail_spectrum(dec, [1], 2, 1)
    assert g1.points == (F(1, 2), F(5, 2))
    empty_dec = Decomposition(2, {0: frozenset({0})})
    assert extract_tail_spectrum(empty_dec, [1], 2, 1).points == ()


def test_extracted_tail_spectra_verify_against_the_tail_truncation():
    cand = build_tower_spectrum(QUARTER, ONES, 3)
    dec = decompose_spectrum(cand, 4, default_lattice_modulus(QUARTER))
    tail = truncate(QUARTER, ONES.shift(1), 2)
    for choice in ([0], [1]):
        gamma = extract_tail_spectrum(dec, choice, 2, 1)
        assert len(gamma.points) == len(tail.atoms)
        ver = verify_spectrum_finite(tail, gamma, QUARTER, ONES.shift(1), 2)
        assert ver.ok and ver.unitarity_residual < 1e-9


def test_default_lattice_modulus():
    assert default_lattice_modulus(QUARTER) == 2
    assert default_lattice_modulus(SystemConfig.of((12, 2, 1), (12, 3, 4))) == 12


def test_structured_candidate_q_approaches_one():
    # three-part system whose full integer lattice is a spectrum: first a
    # two-digit unit stage with base 2, then digits {0,10,20} with base 6,
    # then doubled binary digits forever (tail is Lebesgue on [0, 2]).
    cfg = SystemConfig.of((2, 2, 1), (6, 3, 10), (2, 2, 2))
    word = SymbolicWord((1, 2), (3,))
    depth = 45
    x = 0.37
    values = []
    for window in (25, 100, 200):
        q = q_function(cfg, word, depth, SpectrumCandidate(tuple(range(-2 * window, 2 * window + 2))), x)
        # Lebesgue tail factor gives |mu_hat(y)| <= 6/(pi |y|); summing the
        # missed lattice points bounds the deficit by 2*(6/pi)^2/(2W - 2)
        tail = 2 * (6 / math.pi) ** 2 / (2 * window - 2)
        assert q <= 1 + 1e-6
        assert q >= 1 - tail - 1e-6
        values.append(q)
    assert values[0] <= values[1] <= values[2] <= 1 + 1e-6


def test_weighted_matrix_residual_flags_non_orthogonal_families():
    m = truncate(QUARTER, ONES, 1)
    assert weighted_matrix_residual(m, (F(0), F(2))) < 1e-12
    assert weighted_matrix_residual(m, (F(0), F(1))) > 0.5
