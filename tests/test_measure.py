import cmath
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction as F
from itertools import count
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranspec.cli import load_config
from moranspec.measure import (INT64_SPAN, RECURRENCE_MAX_P, SUMSET_BIT_BOUND, AtomCapExceeded,
                               DiscreteMeasure, StagePair, SymbolicWord, SystemConfig, WordFacts,
                               dirichlet_amplitude, float_quotients, mask_zero_contains,
                               mask_zero_moduli, mu_hat_amplitude, mu_hat_eval,
                               mu_hat_many, reduced_amplitude,
                               reduced_quotients, scale_digits,
                               stage_walk, sumset, support_hull, truncate, zero_flags,
                               zero_set_contains)
from moranspec.spectra import (SpectrumCandidate, build_tower_spectrum, q_function,
                               verify_spectrum_finite)

QUARTER = SystemConfig.of((4, 2, 1))
ONES = SymbolicWord.constant(1)


def test_stage_pair_validation():
    with pytest.raises(ValueError):
        StagePair(1, 2, 1)
    with pytest.raises(ValueError):
        StagePair(4, 1, 1)
    with pytest.raises(ValueError):
        StagePair(4, 2, 0)
    assert StagePair(-4, 2, -3).digits() == (0, -3)


def test_word_canonicalization():
    # trailing preperiod letters absorb into a rotated period
    w = SymbolicWord((1, 2), (3, 2))
    assert w.preperiod == (1,) and w.period == (2, 3)
    assert [w.letter(n) for n in range(1, 7)] == [1, 2, 3, 2, 3, 2]
    # a power of a shorter word collapses
    assert SymbolicWord((), (2, 1, 2, 1)).period == (2, 1)
    # fully absorbable preperiod
    w2 = SymbolicWord((1, 2), (1, 2))
    assert w2.preperiod == () and w2.period == (1, 2)
    assert SymbolicWord((1,), (2,)) == SymbolicWord((1, 2), (2,))
    with pytest.raises(ValueError):
        SymbolicWord((1,), ())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=5),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
def test_word_canonicalization_preserves_the_sequence(pre, per):
    w = SymbolicWord(tuple(pre), tuple(per))
    n = len(pre) + 3 * len(per)
    naive = (pre + per * 3)[:n]
    assert [w.letter(k) for k in range(1, n + 1)] == naive
    # and no last preperiod letter is left to absorb
    assert not w.preperiod or w.preperiod[-1] != w.period[-1]


def test_a_long_absorbed_preperiod_is_one_rotation():
    # each absorbed letter rotated the whole period: a preperiod and period
    # of 40,000 letters each took 10 s, 65,000 each (a 256 KB config) 28 s
    per = (1,) + (2,) * 29_999
    started = time.perf_counter()
    w = SymbolicWord((3,) + per[-7:] + per, per)
    assert time.perf_counter() - started < 1
    assert w.preperiod == (3,) and w.period == per[-7:] + per[:-7]


def test_word_shift_and_letter_queries():
    w = SymbolicWord((1,), (2, 3))
    assert w.shift(1) == SymbolicWord((), (2, 3))
    assert w.shift(2) == SymbolicWord((), (3, 2))
    assert w.shift(0) == w and w.shift(4) == SymbolicWord((), (3, 2))
    assert SymbolicWord((1, 2, 3), (4, 5, 6)).shift(2) == SymbolicWord((3,), (4, 5, 6))
    with pytest.raises(ValueError, match="shift must be >= 0"):
        w.shift(-1)
    # letter sets are bitmasks, bit l for letter l
    assert w.top == 3 and w.facts == WordFacts(1, 0b1110, 0b1100, 0b1100, {2: 2, 3: 3}, None)
    assert SymbolicWord((1, 3), (2,)).facts.first_position == {3: 2, 2: 3}
    assert SymbolicWord((1, 3), (2,)).facts.tail_entry == (2, 2, 3)
    # with an empty preperiod, positions 2, 3, ... read the period rotated by one
    assert SymbolicWord((), (2, 3, 1)).facts.first_position == {3: 2, 1: 3, 2: 4}
    assert SymbolicWord.constant(2).facts.tail_entry is None


def word_positions(word):
    """(r, s, the letters at positions 1..r + 2s), read with word.letter(n) alone.

    Every letter of the word occurs among them, every letter at a position
    >= 2 occurs at one of the positions 2..r + 2s, and positions r + 1..r + 2s
    run the period twice.
    """
    r, s = len(word.preperiod), len(word.period)
    return r, s, [word.letter(n) for n in range(1, r + 2 * s + 1)]


def letter_mask(letters):
    """The bitmask of a collection of letters, bit l for letter l."""
    return sum(1 << l for l in set(letters))


def facts_letter_by_letter(word):
    """The word's top letter and WordFacts, read off word.letter(n) for n <= r + 2s,
    position by position."""
    r, s, seq = word_positions(word)
    first_position = {}
    for n in range(2, r + 2 * s + 1):
        first_position.setdefault(seq[n - 1], n)
    eventually_constant = len(set(seq[r:])) == 1
    return max(seq), WordFacts(seq[0], letter_mask(seq), letter_mask(seq[r:]),
                               letter_mask(first_position), first_position,
                               (r, seq[r], seq[r - 1]) if r and eventually_constant else None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=4), st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.integers(0, 6))
@example([], [1, 2, 3], 0)
@example([2, 3], [1, 2, 3], 0)
@example([1, 3], [2], 0)
@example([], [1, 2, 3], 4)
def test_word_facts_match_the_letters(pre, per, shift):
    # shifting past the preperiod rotates the period
    word = SymbolicWord(tuple(pre), tuple(per)).shift(shift)
    assert (word.top, word.facts) == facts_letter_by_letter(word)
    assert [word.letter(n) for n in range(1, 9)] == [
        SymbolicWord(tuple(pre), tuple(per)).letter(n + shift) for n in range(1, 9)]


def test_a_shift_by_10_to_the_18_is_quick():
    # dropping one letter a step took 0.22 s at 10**6 letters, so 10**18 would
    # never end; 10**18 - 2 = 2 mod 3 rotates (4, 5, 6) by two
    code = ("from moranspec.measure import SymbolicWord; "
            "print(SymbolicWord((1, 2), (4, 5, 6)).shift(10**18))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [";6,4,5"]


def test_truncate_depth_one_and_zero():
    m = truncate(QUARTER, ONES, 1)
    assert m.atoms == ((F(0), F(1, 2)), (F(1, 4), F(1, 2)))
    z = truncate(QUARTER, ONES, 0)
    assert z.atoms == ((F(0), F(1)),)


def test_truncate_merges_rewritten_stages():
    # two mixed stages collapse to one six-digit stage
    left = truncate(SystemConfig.of((12, 2, 1), (2, 3, 4)), SymbolicWord((1,), (2,)), 2)
    right = truncate(SystemConfig.of((12, 6, 1)), ONES, 1)
    assert left == right
    # digits {0, 1, 2} over base 2: 3**4 digit strings land on 2**5 - 1 atoms
    merged = truncate(SystemConfig.of((2, 3, 1)), ONES, 4)
    assert len(merged.atoms) == 2**5 - 1
    assert dict(merged.atoms)[F(1, 2)] == F(4, 81)   # four digit strings meet at 1/2


def test_truncate_four_stage_rewrite():
    cfg = SystemConfig.of((6, 6, 1), (6, 2, 3), (2, 6, 1))
    word = SymbolicWord((1, 2), (3, 2))
    left = truncate(cfg, word, 4)
    right = truncate(SystemConfig.of((12, 12, 1)), ONES, 2)
    assert left == right


def test_measures_equal_rejects_different_measures():
    a = DiscreteMeasure.point_mass(0)
    b = DiscreteMeasure((0, 1), 1, (1, 1), 2)
    assert a != b
    assert a == DiscreteMeasure.point_mass(0)


def test_measures_equal_across_base_products():
    # the rewrite of the golden "rw" config: b_1...b_4 = 288 against b_1 b_2 = 144
    rw = SystemConfig.of((12, 2, 1), (2, 3, 4), (6, 2, 1))
    word = SymbolicWord((1, 2), (3, 2))
    right = truncate(SystemConfig.of((12, 6, 1)), ONES, 2)
    left = truncate(rw, word, 4)
    assert left == right
    assert (left.den, left.total) == (right.den, right.total) == (144, 36)
    assert truncate(rw, word, 3) != right
    # b_1 b_2 = -24 against 12 and -12: (j_1 + 2 j_2)/12 = j/12 for j < 6
    neg = truncate(SystemConfig.of((12, 2, 1), (-2, 3, -4)), SymbolicWord((1,), (2,)), 2)
    assert (neg.nums, neg.den, neg.counts, neg.total) == (tuple(range(6)), 12, (1,) * 6, 6)
    for other in (SystemConfig.of((12, 6, 1)), SystemConfig.of((-12, 6, -1))):
        assert neg == truncate(other, ONES, 1)
    flipped = truncate(SystemConfig.of((12, 2, 1), (-2, 3, 4)), SymbolicWord((1,), (2,)), 2)
    assert neg != flipped
    # the constructor reduces the points and the weights by their gcds
    assert DiscreteMeasure((0, 4), 8, (3, 3), 6) == DiscreteMeasure((0, 1), 2, (1, 1), 2)


def test_measure_constructor_checks_its_invariants():
    with pytest.raises(ValueError, match="at least one atom"):
        DiscreteMeasure((), 1, (), 0)
    with pytest.raises(ValueError, match="pairwise distinct and sorted"):
        DiscreteMeasure((1, 0), 2, (1, 1), 2)
    with pytest.raises(ValueError, match="pairwise distinct and sorted"):
        DiscreteMeasure.from_dict({0: F(1, 2), "0": F(1, 2)})
    with pytest.raises(ValueError, match="denominator must be positive"):
        DiscreteMeasure((0, 1), -2, (1, 1), 2)
    with pytest.raises(ValueError, match="positive"):
        DiscreteMeasure((0, 1), 2, (0, 2), 2)
    with pytest.raises(ValueError, match="sum to exactly 1"):
        DiscreteMeasure.from_dict({0: F(1, 2), 1: F(1, 3)})
    with pytest.raises(ValueError, match="1 weights for 2 atoms"):
        DiscreteMeasure((0, 1), 2, (1,), 1)
    with pytest.raises(TypeError):
        DiscreteMeasure((F(1, 2),), 1, (1,), 1)
    m = DiscreteMeasure.from_dict({F(1, 3): F(1, 4), -1: F(3, 4)})
    assert (m.nums, m.den, m.counts, m.total) == ((-3, 1), 3, (3, 1), 4)
    assert m.atoms == ((F(-1), F(3, 4)), (F(1, 3), F(1, 4)))
    assert DiscreteMeasure.point_mass(F(-2, 6)).atoms == ((F(-1, 3), F(1)),)


def test_truncate_cap():
    with pytest.raises(AtomCapExceeded):
        truncate(QUARTER, ONES, 10, cap=100)
    # the cap is checked stage by stage, before any atom is built or the rest of the walk stored
    tracemalloc.start()
    try:
        with pytest.raises(AtomCapExceeded, match="cap is 100"):
            truncate(QUARTER, ONES, 10**9, cap=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_sumset_one_bit_either_side_of_the_bit_bound():
    # 4,096 sums whose largest has SUMSET_BIT_BOUND / 4,096 bits are at the
    # bound and build; one bit more is past it and is refused before any sum
    bits = SUMSET_BIT_BOUND // 4096
    assert bits * 4096 == SUMSET_BIT_BOUND
    step = 2 ** (bits - 12)  # 4,095 * step has exactly `bits` bits
    for s, width in ((step // 2, bits - 1), (step, bits)):
        sums = sumset([(64, s), (64, 64 * s)])
        assert sums.tolist() == [j * s for j in range(4096)]
        assert int(sums[-1]).bit_length() == width
    tracemalloc.start()
    try:
        with pytest.raises(AtomCapExceeded, match=f"sumset needs 4096 values of {bits + 1} "
                                                  f"bits; bound is {SUMSET_BIT_BOUND} bits"):
            sumset([(64, 2 * step), (64, 128 * step)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def reference_truncate(config, word, k):
    """Stage-by-stage convolution with a Fraction per atom and per weight."""
    atoms, base = {F(0): F(1)}, 1
    for n in range(1, k + 1):
        pr = config.pair(word.letter(n))
        base *= pr.b
        nxt = {}
        for x, w in atoms.items():
            for j in range(pr.p):
                y = x + F(j * pr.t, base)
                nxt[y] = nxt.get(y, F(0)) + w / pr.p
        atoms = nxt
    return DiscreteMeasure.from_dict(atoms)


@pytest.mark.parametrize("cfg, word, depth", [
    (QUARTER, ONES, 5),
    # the negative-b/t config of the golden CLI tests
    (SystemConfig.of((-4, 2, -1), (-6, 3, 5)), SymbolicWord((1,), (2, 1)), 6),
    # digits {0, 1, 2} over base 2: atoms coincide and merge at every stage
    (SystemConfig.of((2, 3, 1)), ONES, 6),
    (SystemConfig.of((12, 2, 1), (-2, 3, 4), (3, 2, -5)), SymbolicWord((1, 2), (3, 2)), 5),
])
def test_truncate_matches_a_reference_fraction_convolution(cfg, word, depth):
    for k in range(depth + 1):
        assert truncate(cfg, word, k).atoms == reference_truncate(cfg, word, k).atoms, k


SIGNED_B = st.integers(-12, 12).filter(lambda b: abs(b) >= 2)
SIGNED_T = st.integers(-7, 7).filter(bool)


def words_over(m: int, length: int = 2):
    letters = st.integers(1, m)
    return st.builds(SymbolicWord, st.lists(letters, max_size=length).map(tuple),
                     st.lists(letters, min_size=1, max_size=length).map(tuple))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signed_truncations_match_the_reference(data):
    pairs = data.draw(st.lists(st.tuples(SIGNED_B, st.sampled_from((2, 3)), SIGNED_T),
                               min_size=1, max_size=3))
    word = data.draw(words_over(len(pairs)))
    depth = data.draw(st.integers(0, 6))
    cfg = SystemConfig.of(*pairs)
    assert truncate(cfg, word, depth).atoms == reference_truncate(cfg, word, depth).atoms


def load_pairs(pairs, period):
    """A config with every field a decimal string, read back through cli.load_config."""
    doc = {"pairs": [{"b": str(b), "p": str(p), "t": str(t)} for b, p, t in pairs],
           "word": {"period": [str(x) for x in period]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        config, word, _ = load_config(str(path))
    return config, word


FIFTY_DIGITS = st.integers(10**49, 10**50 - 1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(FIFTY_DIGITS, st.sampled_from((2, 3)), FIFTY_DIGITS,
                          st.sampled_from((1, -1)), st.sampled_from((1, -1))),
                min_size=1, max_size=2),
       st.integers(0, 4))
def test_fifty_digit_decimal_strings_truncate_like_the_reference(letters, depth):
    pairs = [(sign_b * b, p, sign_t * t) for b, p, t, sign_b, sign_t in letters]
    cfg, word = load_pairs(pairs, range(1, len(pairs) + 1))
    assert cfg == SystemConfig.of(*pairs)
    assert truncate(cfg, word, depth).atoms == reference_truncate(cfg, word, depth).atoms


SIGNED_FIFTY = FIFTY_DIGITS.flatmap(lambda v: st.sampled_from((v, -v)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.one_of(SIGNED_B, SIGNED_FIFTY), st.sampled_from((2, 3)),
                          st.one_of(SIGNED_T, SIGNED_FIFTY)), min_size=1, max_size=3),
       st.data())
def test_truncate_is_the_reference_at_either_width(pairs, data):
    # the sumset of j*t*(b_1...b_k)/(b_1...b_n) is built on Python integers once
    # the sum of its stages' max|j*t*(b_1...b_k)/(b_1...b_n)| reaches INT64_SPAN
    # (50-digit letters), and INT64_SPAN = 0 sends every truncation there
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 4))
    forced = data.draw(st.booleans())
    letters = [cfg.pair(word.letter(n)) for n in range(1, depth + 1)]
    final = math.prod(pr.b for pr in letters)
    span = sum((pr.p - 1) * abs(pr.t * final // math.prod(q.b for q in letters[:n]))
               for n, pr in enumerate(letters, start=1))
    widths = []

    def spy(stages):
        sums = sumset(stages)
        widths.append(sums.dtype)
        return sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("moranspec.measure.sumset", spy)
        if forced:
            mp.setattr("moranspec.measure.INT64_SPAN", 0)
        meas = truncate(cfg, word, depth)
    assert meas == reference_truncate(cfg, word, depth)
    assert all(type(x) is int for x in meas.nums + meas.counts)
    assert widths == [np.dtype(object if forced or span >= INT64_SPAN else np.int64)]


def test_factor_order_does_not_change_the_measure():
    # convolving the same scaled digit factors in any order gives one measure
    rng = random.Random(7)
    factors = [(F(1, 4), (0, 1)), (F(1, 8), (0, 3)), (F(1, 32), (0, 1, 2))]

    def convolve(order):
        atoms = {F(0): F(1)}
        for scale, digits in order:
            nxt = {}
            for x, w in atoms.items():
                for d in digits:
                    pt = x + scale * d
                    nxt[pt] = nxt.get(pt, F(0)) + w / len(digits)
            atoms = nxt
        return DiscreteMeasure.from_dict(atoms)

    base = convolve(factors)
    for _ in range(5):
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert base == convolve(shuffled)


def test_atom_count_can_drop_below_the_stage_product():
    # colliding atoms merge with unequal multiplicities, so the atom count
    # need not divide the digit-count product: 6 atoms from a product of 8
    cfg = SystemConfig.of((2, 2, 1), (2, 4, 1))
    m = truncate(cfg, SymbolicWord((1,), (2,)), 2)
    assert len(m.atoms) == 6
    assert sum(m.weights) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=6))
def test_truncation_weights_sum_to_one(depth, seed):
    rng = random.Random(seed)
    pairs = tuple(StagePair(rng.choice([2, 3, 4, -4, 12]), rng.choice([2, 3]),
                            rng.choice([1, 3, 5, -1])) for _ in range(2))
    word = SymbolicWord((), (1, 2))
    m = truncate(SystemConfig(pairs), word, depth)
    assert sum(m.weights) == 1
    assert len(m.atoms) <= math.prod(cfgp.p for cfgp in pairs) ** (depth // 2 + 1)


def test_mask_zero_membership():
    assert mask_zero_contains(3, 4, F(1, 12))
    assert not mask_zero_contains(3, 4, F(1, 4))     # 3/12 has numerator in 3Z
    assert not mask_zero_contains(3, 4, 0)
    assert not mask_zero_contains(2, 1, F(1, 3))
    assert mask_zero_contains(2, 1, F(1, 2))
    # integer translates stay inside the zero set
    assert mask_zero_contains(3, 4, F(1, 12) + 5)


def closed_form_quarter(x, depth):
    # independent oracle: the two-digit mask is exp(i pi y) cos(pi y)
    val = 1 + 0j
    for k in range(1, depth + 1):
        y = x / 4 ** k
        val *= cmath.exp(1j * math.pi * y) * math.cos(math.pi * y)
    return val


def test_zero_set_examples_match_numeric_products():
    assert zero_set_contains(QUARTER, ONES, 2)
    assert abs(closed_form_quarter(2.0, 20)) < 1e-12
    assert not zero_set_contains(QUARTER, ONES, F(1, 2))
    assert abs(closed_form_quarter(0.5, 20)) > 0.1
    assert not zero_set_contains(QUARTER, ONES, 0)


def test_zero_set_verdicts_match_magnitudes_on_a_range():
    for num in range(-40, 41):
        x = F(num, 2)
        if x == 0:
            continue
        mag = abs(closed_form_quarter(float(x), 25))
        if zero_set_contains(QUARTER, ONES, x):
            assert mag < 1e-9
        else:
            tail = math.pi * 1 * abs(float(x)) / 4 ** 25
            assert mag > tail


def fraction_zero(config, word, x):
    """Zero-set membership walked in Fractions, one stage at a time."""
    if x == 0:
        return False
    reach = max(pr.p * abs(pr.t) for pr in config.pairs)
    base = 1
    for n in count(1):
        pr = config.pair(word.letter(n))
        base *= pr.b
        y = x / base
        if abs(y) * reach < 1:
            return False
        z = y * pr.p * pr.t          # y in (Z \ pZ)/(pt)
        if z.denominator == 1 and z.numerator % pr.p:
            return True


SIGNED_LETTERS = st.lists(st.tuples(st.integers(2, 12), st.integers(2, 5), st.integers(1, 7),
                                     st.sampled_from((1, -1)), st.sampled_from((1, -1))),
                           min_size=1, max_size=3)


def signed_config(letters):
    return SystemConfig.of(*[(sb * b, p, st_ * t) for b, p, t, sb, st_ in letters])


@settings(max_examples=150, deadline=None)
@given(SIGNED_LETTERS, st.data())
def test_zero_scan_matches_the_fraction_walk(letters, data):
    cfg = signed_config(letters)
    word = data.draw(words_over(cfg.m))
    den = data.draw(st.one_of(st.integers(1, 60), st.integers(1, 10**30)))
    nums = data.draw(st.lists(st.integers(-400, 400), min_size=1, max_size=30))
    zeros = [fraction_zero(cfg, word, F(n, den)) for n in nums]
    assert [zero_set_contains(cfg, word, F(n, den)) for n in nums] == zeros
    # numerators need not be in lowest terms over den
    assert [zero_flags(cfg, word, n, 1, 1, den)[0] for n in nums] == zeros


# integers small, past 2**63 and far past it
WIDE_INTS = st.integers(-10**4, 10**4) | st.integers(-2**70, 2**70) | st.integers(-2**200, 2**200)


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 40) | st.integers(-40, -2), WIDE_INTS.filter(bool), WIDE_INTS.filter(bool),
       st.data())
def test_mask_zero_moduli_match_the_zero_set_definition(p, t, den, data):
    q, big = mask_zero_moduli(p, t, den)
    assert q > 0 and big % q == 0
    # a random numerator, or a multiple of Q, which hits unless P divides it
    num = data.draw(WIDE_INTS | st.builds(lambda j: j * q, WIDE_INTS))
    # num/den is in (Z \ pZ)/(p*t) iff m = num*p*t/den is an integer not in pZ
    m = F(num, den) * p * t
    assert (num % q == 0 and num % big != 0) == (m.denominator == 1 and m.numerator % p != 0)


@settings(max_examples=200, deadline=None)
@given(SIGNED_LETTERS, st.data())
def test_zero_flags_match_the_fraction_walk_entry_by_entry(letters, data):
    cfg = signed_config(letters)
    word = data.draw(words_over(cfg.m))
    den = data.draw(st.one_of(st.integers(1, 60), st.integers(1, 10**30)))
    step = data.draw(st.one_of(st.sampled_from((den, -den)), st.integers(-50, 50).filter(bool),
                               st.integers(-10**20, 10**20).filter(bool)))
    size = data.draw(st.integers(0, 300))
    reach = max(pr.p * abs(pr.t) for pr in cfg.pairs)
    bases = [abs(base) for _, base in stage_walk(cfg, word, 8)]
    # a start that crosses 0 at entry j, or whose |num| straddles stage n's reach cutoff there
    start = data.draw(st.one_of(
        st.integers(-400, 400),
        st.integers(-10**32, 10**32),
        st.builds(lambda j, r: r - j * step, st.integers(0, size), st.integers(-3, 3)),
        st.builds(lambda base, j, r, s: s * -(-den * base // reach) - j * step + r,
                  st.sampled_from(bases), st.integers(0, size), st.integers(-3, 3),
                  st.sampled_from((1, -1)))))
    flags = zero_flags(cfg, word, start, step, size, den)
    assert list(flags) == [fraction_zero(cfg, word, F(start + k * step, den)) for k in range(size)]


def test_zero_flags_refuse_a_denominator_below_one_and_a_zero_step():
    # scaled by den <= 0 the reach bound is never passed, and den < 0 once
    # scanned forever, its stage list growing by hundreds of MB a second; the
    # child runs under a timeout and a 1 GiB address-space limit, so a hang
    # fails here instead of stalling the suite or exhausting memory
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from moranspec.measure import SymbolicWord, SystemConfig, zero_flags\n"
            "cfg, word = SystemConfig.of((4, 2, 1)), SymbolicWord.constant(1)\n"
            "for start, step, den in ((0, 1, -1), (3, 1, -1), (1, 1, 0), (1, 0, 1), (3, 0, 2)):\n"
            "    try:\n"
            "        zero_flags(cfg, word, start, step, 4, den)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["den must be positive, got den=-1"] * 2 + [
        "den must be positive, got den=0"] + ["step must be nonzero"] * 2


def test_mu_hat_examples():
    val, err = mu_hat_eval(QUARTER, ONES, 0.0, 5)
    assert val == pytest.approx(1 + 0j)
    assert err == 0
    val2, _ = mu_hat_eval(QUARTER, ONES, 2.0, 20)
    assert abs(val2) < 1e-12
    val3, _ = mu_hat_eval(QUARTER, ONES, 1 / 3, 30)
    assert abs(val3 - closed_form_quarter(1 / 3, 30)) < 1e-10


def test_mu_hat_tail_bound_dominates_truncation_error():
    x = 0.7
    deep, _ = mu_hat_eval(QUARTER, ONES, x, 40)
    for depth in range(1, 10):
        val, err = mu_hat_eval(QUARTER, ONES, x, depth)
        assert abs(val - deep) <= err + 1e-12


def test_mu_hat_eval_at_depth_zero_is_one_with_the_whole_tail_as_its_bound():
    # B_0 = 1, so the bound is pi * max((p - 1)|t|) * |x|, and it covers every factor
    x = 0.7
    val, err = mu_hat_eval(QUARTER, ONES, x, 0)
    assert (val, err) == (1, math.pi * x)
    deep, _ = mu_hat_eval(QUARTER, ONES, x, 40)
    assert abs(val - deep) <= err
    signed = SystemConfig.of((-6, 3, 5), (4, 2, -3))
    assert mu_hat_eval(signed, SymbolicWord((1,), (2,)), -1.5, 0) == (1, math.pi * 10 * 1.5)


UNIT = 2.0 ** -53  # unit roundoff of a float
P = RECURRENCE_MAX_P
# both sides of the recurrence/quotient branch, odd and even p
BRANCH_PS = (2, 3, 5, P - 1, P, P + 1, 1000, 10**6)


def summed_mask(p, t, ys):
    """The stage mask as the mean of p complex exponentials exp(2 pi i j t y).

    The form the package evaluated before the Dirichlet amplitude, kept as
    the reference; j runs in chunks of 2**14 so that p = 10**6 stays quick.
    """
    acc = np.zeros(len(ys), dtype=complex)
    for j0 in range(0, p, 1 << 14):
        js = np.arange(j0, min(p, j0 + (1 << 14)))
        acc += np.exp(2j * np.pi * float(t) * np.multiply.outer(ys, js)).sum(axis=-1)
    return acc / p


def summed_mu_hat(config, word, xs, depth):
    out = np.ones(len(xs), dtype=complex)
    for pr, base in stage_walk(config, word, depth):
        out *= summed_mask(pr.p, pr.t, xs / float(base))
    return out


def mp_dirichlet(p, v):
    """D_p at v (a float or an mpf), in the working precision."""
    v = mpmath.mpf(v)
    s = mpmath.sinpi(v)
    return (-1) ** (int(v) * (p - 1)) if s == 0 else mpmath.sinpi(p * v) / (p * s)


def mp_mu_hat(config, word, x, depth):
    """Product of the stage masks at the float x, to 200 bits."""
    with mpmath.workprec(200):
        val = mpmath.mpc(1)
        for pr, base in stage_walk(config, word, depth):
            v = pr.t * mpmath.mpf(float(x)) / base
            val *= mpmath.expjpi((pr.p - 1) * v) * mp_dirichlet(pr.p, v)
        return complex(val)


def stage_bound(p, v):
    """The rounding bound dirichlet_amplitude states, at the float argument v."""
    return (p * p + np.pi * p * np.abs(v)) * UNIT if p <= P else 2.0 ** -50


def stated_bound(config, word, xs, depth):
    """mu_hat_many's stated bound: amplitude plus phase angle, per x."""
    amp, slope_sum = np.zeros_like(xs), 0.0
    for pr, base in stage_walk(config, word, depth):
        amp += stage_bound(pr.p, xs * pr.t / base) + UNIT
        slope_sum += (pr.p - 1) * abs(pr.t) / abs(base)
    return amp + (depth + 3) * UNIT * np.pi * np.abs(xs) * slope_sum


def branch_arguments(p, rng):
    """Stage arguments v: spread, near integers, exact zeros j/p and far out."""
    near = rng.integers(-6, 7, 40) + rng.uniform(-1, 1, 40) * 10.0 ** -rng.integers(1, 12, 40)
    zeros = rng.integers(-3 * p, 3 * p, 40) / p
    return np.concatenate([rng.uniform(-4, 4, 80), near, zeros, rng.uniform(-300, 300, 20)])


@pytest.mark.parametrize("p", BRANCH_PS)
def test_dirichlet_amplitude_is_within_its_bound_on_both_sides_of_the_branch(p):
    rng = np.random.default_rng(p)
    vs = branch_arguments(p, rng)
    got = dirichlet_amplitude(p, vs)
    with mpmath.workprec(200):
        exact = [float(mp_dirichlet(p, v)) for v in vs.tolist()]
    for v, d, e in zip(vs.tolist(), got.tolist(), exact):
        assert abs(d - e) <= stage_bound(p, v), (p, v)
    # the sign (-1)^{k(p-1)} at the integers
    ks = np.arange(-5.0, 6.0)
    assert dirichlet_amplitude(p, ks).tolist() == [(-1.0) ** (k * (p - 1)) for k in range(-5, 6)]


def two_digit_recurrence(v):
    """What the recurrence returns at p = 2: U_1(c)/2 = (2c)/2."""
    return (2 * np.cos(np.pi * v)) / 2


TINY = float(np.finfo(float).smallest_subnormal)


@pytest.mark.parametrize("p", BRANCH_PS)
def test_dirichlet_amplitude_is_one_to_its_bound_at_subnormal_arguments(p):
    # sin(pi u) of a subnormal u keeps too few bits for the sine quotient,
    # which read D_33(5e-324) = 1.05; D_p(v) = 1 - O(p**2 v**2) here
    normal = float(np.finfo(float).smallest_normal)
    vs = np.array([TINY, -TINY, 1000 * TINY, 2.2250738585e-313 / 74, normal / 2, normal, 1e-300])
    assert np.all(np.abs(dirichlet_amplitude(p, vs) - 1) <= stage_bound(p, vs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e15, 1e15), min_size=1, max_size=40))
@example([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, -2.5, TINY, -TINY, 1000 * TINY,
          float(np.finfo(float).smallest_normal), 1e15, -1e15, 1e15 - 0.5, 2.0 ** 49 + 0.5])
def test_dirichlet_amplitude_at_two_digits_is_the_recurrence_bitwise(vs):
    vs = np.array(vs)
    assert dirichlet_amplitude(2, vs).tobytes() == two_digit_recurrence(vs).tobytes()


@pytest.mark.parametrize("p", BRANCH_PS)
@pytest.mark.parametrize("b,t", [(2, 1), (-2, -1), (4, -2), (-8, 1)])
def test_mu_hat_many_matches_the_summed_mask_and_mpmath(p, b, t):
    # bases are powers of two and strides +-1 or +-2, so every stage
    # argument x t / b_1...b_n is exact in floats and mpmath sees the
    # argument the kernel sees
    depth = 1 if p > 1000 else 3
    config, word = SystemConfig.of((b, p, t)), ONES
    rng = np.random.default_rng(p + abs(b))
    xs = np.concatenate([[0.0], rng.uniform(-3, 3, 12) * abs(b), np.arange(-4, 5) * b / (2 * p)])
    vals = mu_hat_many(config, word, xs, depth)
    bound = stated_bound(config, word, xs, depth)
    exact = np.array([mp_mu_hat(config, word, x, depth) for x in xs])
    assert np.all(np.abs(vals - exact) <= bound)
    # the summed form is itself off by up to 3 pi p |v| + log2 chunk + p / chunk units per stage
    summed_err = sum(3 * np.pi * pr.p * np.abs(xs * pr.t / base) + 16 + pr.p / 2**14
                     for pr, base in stage_walk(config, word, depth)) * UNIT
    assert np.all(np.abs(vals - summed_mu_hat(config, word, xs, depth)) <= bound + summed_err)


@pytest.mark.parametrize("p", (3, 5, P + 1, 1000))
def test_mu_hat_many_is_zero_to_its_bound_at_the_mask_zeros(p):
    # x = B j / (p t) with p not dividing j is a zero of the depth-1 product;
    # the float x is within |x| 2**-53 of it and |D_p'| <= pi (p - 1) / 2
    for b, t in ((1 << 10, 1), (-(1 << 10), -1)):
        config = SystemConfig.of((b, p, t))
        xs = np.array([b * j / (p * t) for j in range(-2 * p - 1, 2 * p + 2) if j % p])
        vals = mu_hat_many(config, ONES, xs, 1)
        exact = np.array([mp_mu_hat(config, ONES, x, 1) for x in xs])
        bound = stated_bound(config, ONES, xs, 1)
        assert np.all(np.abs(vals - exact) <= bound)
        assert np.all(np.abs(vals) <= bound + np.pi * (p - 1) / 2 * np.abs(xs * t / b) * UNIT)


def test_mu_hat_many_at_zero_is_exactly_one():
    for config, word, depth in ((QUARTER, ONES, 5), (SystemConfig.of((-4, 2, -1), (-6, 3, 5)),
                                                     SymbolicWord((1,), (2, 1)), 40),
                                (SystemConfig.of((10**6, 10**6, 1)), ONES, 1),
                                (SystemConfig.of((-3, 33, -7)), ONES, 600)):
        val = mu_hat_many(config, word, np.array([0.0, 0.5]), depth)[0]
        assert val == 1 + 0j and not math.copysign(1, val.imag) < 0
        amp, _ = mu_hat_amplitude(config, word, np.zeros(3), depth)
        assert amp.tolist() == [1.0] * 3


def test_mu_hat_many_stops_at_the_float_overflow_of_the_base_product():
    # 4**511 = 2**1022 is the last base product a float holds.  The walk stops
    # long before it, where no later stage changes a float: at max|x| = 50 every
    # factor is 1.0 from stage 18 on and every drift a no-op from stage 29 on,
    # so depth 28 gives the bits of depth 511, and depth 600 is finite
    xs = np.linspace(-50, 50, 101)
    deep = mu_hat_many(QUARTER, ONES, xs, 600)
    for depth in (511, 28):
        assert np.array_equal(deep, mu_hat_many(QUARTER, ONES, xs, depth))
    assert np.all(np.isfinite(deep))
    with pytest.raises(OverflowError):
        float(4**512)


def test_q_and_the_residual_are_the_squared_modulus_of_mu_hat_many():
    # |mu_hat_many|**2 = A**2 |exp(i theta)|**2 with each of the phase, the
    # product, abs and the square rounding by a few units: the squares agree
    # to 16 units each, so sums of N terms, each at most 1, agree to 16 N units
    cfg, word, depth = SystemConfig.of((-4, 2, -1), (-6, 3, 5)), SymbolicWord((1,), (2, 1)), 4
    tower = build_tower_spectrum(cfg, word, depth)
    moved = SpectrumCandidate(tower.nums[:-1] + (tower.nums[-1] + 1,), tower.den)
    xs = np.linspace(-2, 2, 17)
    for cand in (tower, moved):
        lams = float_quotients(cand.nums, cand.den)
        ref = np.sum(np.abs(mu_hat_many(cfg, word, np.add.outer(xs, lams), depth)) ** 2, axis=-1)
        assert np.all(np.abs(q_function(cfg, word, depth, cand, xs) - ref) <= 16 * UNIT * len(cand))
        ver = verify_spectrum_finite(truncate(cfg, word, depth), cand, cfg, word, depth)
        if cand is tower:
            # proven orthogonal in integers: every term is exactly 0
            assert ver.unitarity_residual == 0.0
            continue
        diffs = [b - a for i, a in enumerate(cand.nums) for b in cand.nums[i + 1:]]
        vals = mu_hat_many(cfg, word, np.array([d / cand.den for d in diffs]), depth)
        total = float(np.sum(np.abs(vals) ** 2))
        assert abs(ver.unitarity_residual ** 2 - 2 * total) <= 32 * UNIT * (2 * total + 1e-300)


def reduced_reference(p, t, nums, mod):
    """D_p at t*num/mod reduced mod 1 exactly in Fractions, then rounded once to a float."""
    return dirichlet_amplitude(p, np.array([float(F(t * n, mod) % 1) for n in nums], dtype=float))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 2 * RECURRENCE_MAX_P),
                          st.one_of(st.integers(-60, 60), st.integers(-2**200, 2**200)).filter(bool),
                          st.one_of(st.integers(1, 2**20),
                                    st.sampled_from((2**53 - 1, 2**53, 2**53 + 1, 2**62)),
                                    st.integers(1, 2**200))), max_size=4),
       st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(-2**61, 2**61)), max_size=8))
@example([(3, 2**40 + 1, 3 * 2**40)], [2**21, -(2**21) - 1])  # |t num| passes INT64_SPAN
@example([(2, -1, 7)], [])
@example([(2, 2**63, 1)], [])  # t alone past int64
@example([(2, 1, 5), (3, 2**40 + 1, 2**60), (40, -3, 2**52)], [7, -(2**41)])  # mixed widths
def test_reduced_amplitude_is_dirichlet_at_the_exactly_reduced_argument(stages, nums):
    # int64 and Python-integer arrays alike, on both sides of RECURRENCE_MAX_P
    # and of 2**53 in mod, stages of either width in one call: the same bits
    # as the Fraction reductions' factors multiplied in stage order
    expected = np.ones(len(nums))
    for p, t, mod in stages:
        expected *= reduced_reference(p, t, nums, mod)
    reach = max(map(abs, nums), default=0)
    ps, ts, mods = ([stage[i] for stage in stages] for i in range(3))
    for width in (np.int64, object):
        got = reduced_amplitude(ps, ts, np.array(nums, dtype=width), mods, reach)
        assert got.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-60, 60), st.integers(-2**200, 2**200)),
                          st.one_of(st.integers(1, 2**20), st.sampled_from((2**53, 2**62)),
                                    st.integers(1, 2**200))), max_size=4),
       st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(-2**61, 2**61)), max_size=8))
@example([(2**64 + 1, 3 * 2**10), (5, 7)], [2**40, -3])  # t past int64, its residue not
def test_reduced_quotients_rows_are_the_correctly_rounded_quotients(pairs, nums):
    # a table of (t, mod) rows, whatever their widths, holds each pair's own
    # quotients, the Fraction reduction rounded once, bit for bit
    reach = max(map(abs, nums), default=0)
    expected = [[float(F(t * n, mod) % 1) for n in nums] for t, mod in pairs]
    for width in (np.int64, object):
        table = reduced_quotients([t for t, _ in pairs], np.array(nums, dtype=width),
                                  [mod for _, mod in pairs], reach)
        assert table.shape == (len(pairs), len(nums)) and table.tolist() == expected
        for (t, mod), row in zip(pairs, expected):
            assert reduced_quotients(t, np.array(nums, dtype=width), mod, reach).tolist() == row


@pytest.mark.parametrize("p", BRANCH_PS)
def test_reduced_amplitude_is_within_the_stage_bound_past_the_float_point(p):
    # t num/mod runs to 2**100 and 10**340, where a float point keeps no
    # fractional digit; the exactly reduced argument v < 1 keeps
    # dirichlet_amplitude's bound at v, plus pi p u/2 for rounding v itself
    # (|D_p'| <= pi (p - 1))
    rng = random.Random(p)
    nums = [rng.randrange(-2**40, 2**40) for _ in range(60)] + [0, 1, -1]
    for t, mod in ((2**60 + 1, 4 * 3**5), (-(10**300 + 1), 2**66 * p)):
        got = reduced_amplitude([p], [t], np.array(nums, dtype=np.int64), [mod], 2**40).tolist()
        with mpmath.workprec(200):
            for n, d in zip(nums, got):
                v = F(t * n, mod) % 1
                exact = float(mp_dirichlet(p, mpmath.mpf(v.numerator) / v.denominator))
                assert abs(abs(d) - abs(exact)) <= stage_bound(p, float(v)) + np.pi * p * UNIT


def test_support_hull_examples():
    assert support_hull(QUARTER, ONES) == (F(0), F(1, 3))
    assert support_hull(SystemConfig.of((2, 2, 1)), ONES) == (F(0), F(1))
    # first stage (b1, p1, t1), then (p2, p2, t2) forever: ((p1-1) t1 + t2) / b1
    cfg = SystemConfig.of((5, 2, 6), (3, 3, 2))
    word = SymbolicWord((1,), (2,))
    assert support_hull(cfg, word) == (F(0), F((2 - 1) * 6 + 2, 5))


def test_support_hull_contains_every_truncation_atom():
    cfg = SystemConfig.of((4, 2, 3), (6, 3, 1))
    word = SymbolicWord((2,), (1, 2))
    lo, hi = support_hull(cfg, word)
    for depth in range(5):
        for pt in truncate(cfg, word, depth).points:
            assert lo <= pt <= hi


def test_support_hull_rejects_negative_signs():
    with pytest.raises(ValueError):
        support_hull(SystemConfig.of((-4, 2, 1)), ONES)


def test_support_hull_closed_form_matches_partial_sums_randomized():
    rng = random.Random(271828)
    for _ in range(120):
        m = rng.randint(1, 3)
        pairs = tuple(StagePair(rng.choice([2, 3, 5, 12]), rng.choice([2, 3, 6]),
                                rng.choice([1, 4, 7])) for _ in range(m))
        cfg = SystemConfig(pairs)
        word = SymbolicWord(tuple(rng.randint(1, m) for _ in range(rng.randint(0, 3))),
                            tuple(rng.randint(1, m) for _ in range(rng.randint(1, 3))))
        _, hi = support_hull(cfg, word)
        partial = F(0)
        base = 1
        for n in range(1, 81):
            pr = cfg.pair(word.letter(n))
            base *= pr.b
            partial += F((pr.p - 1) * pr.t, base)
        assert partial <= hi
        assert abs(float(hi - partial)) < 1e-18, (pairs, str(word))


def test_normalized_truncations_have_equal_fourier_moduli():
    rng = random.Random(99)
    cfg = SystemConfig.of((-4, 2, 1), (2, 3, -5))
    word = SymbolicWord((2,), (1, 2))
    norm = SystemConfig(tuple(StagePair(abs(pr.b), pr.p, abs(pr.t)) for pr in cfg.pairs))
    for depth in (1, 4, 8, 12):
        a = truncate(cfg, word, depth)
        b = truncate(norm, word, depth)
        xs = np.array([rng.uniform(-20, 20) for _ in range(100)])
        assert np.max(np.abs(np.abs(a.fourier_many(xs)) - np.abs(b.fourier_many(xs)))) < 1e-12


def test_scale_digits():
    assert scale_digits(QUARTER, 1) == QUARTER
    assert scale_digits(SystemConfig.of((2, 2, 1)), 3) == SystemConfig.of((2, 2, 3))
    with pytest.raises(ValueError):
        scale_digits(QUARTER, 0)
    with pytest.raises(ValueError, match="scaled stride 1/2 is not an integer"):
        scale_digits(QUARTER, F(1, 2))
    assert scale_digits(SystemConfig.of((4, 2, 6)), F(1, 2)) == SystemConfig.of((4, 2, 3))


def test_scaling_by_base_ratio_replaces_the_first_base():
    # scaling all digits by b1/b gives the system whose first base is b:
    # [(4,2,1)] scaled by 2 matches [(2,2,1),(4,2,1)] with word 1 2^inf
    scaled = scale_digits(QUARTER, 2)
    left = truncate(scaled, ONES, 3)
    right = truncate(SystemConfig.of((2, 2, 1), (4, 2, 1)), SymbolicWord((1,), (2,)), 3)
    assert left == right
