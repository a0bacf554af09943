import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspec.measure import (AtomCapExceeded, DiscreteMeasure, StagePair,
                               SymbolicWord, SystemConfig, mask_zero_contains,
                               measures_equal, mu_hat_eval, normalize_signs,
                               scale_digits, support_hull, truncate,
                               zero_set_contains)

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
    assert w.prefix(6) == (1, 2, 3, 2, 3, 2)
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
    assert list(w.prefix(n)) == naive


def test_word_shift_and_letter_queries():
    w = SymbolicWord((1,), (2, 3))
    assert w.shift(1) == SymbolicWord((), (2, 3))
    assert w.shift(2) == SymbolicWord((), (3, 2))
    assert w.letters_from(2) == frozenset({2, 3})
    assert SymbolicWord((1, 3), (2,)).letters_from(2) == frozenset({2, 3})
    assert w.tail_letters == frozenset({2, 3})
    assert not w.is_eventually_constant
    assert SymbolicWord((1,), (2,)).is_eventually_constant


def test_truncate_depth_one_and_zero():
    m = truncate(QUARTER, ONES, 1)
    assert m.atoms == ((F(0), F(1, 2)), (F(1, 4), F(1, 2)))
    z = truncate(QUARTER, ONES, 0)
    assert z.atoms == ((F(0), F(1)),)


def test_truncate_merges_rewritten_stages():
    # two mixed stages collapse to one six-digit stage
    left = truncate(SystemConfig.of((12, 2, 1), (2, 3, 4)), SymbolicWord((1,), (2,)), 2)
    right = truncate(SystemConfig.of((12, 6, 1)), ONES, 1)
    assert measures_equal(left, right)


def test_truncate_four_stage_rewrite():
    cfg = SystemConfig.of((6, 6, 1), (6, 2, 3), (2, 6, 1))
    word = SymbolicWord((1, 2), (3, 2))
    left = truncate(cfg, word, 4)
    right = truncate(SystemConfig.of((12, 12, 1)), ONES, 2)
    assert measures_equal(left, right)


def test_measures_equal_rejects_different_measures():
    a = DiscreteMeasure.point_mass(0)
    b = DiscreteMeasure(((F(0), F(1, 2)), (F(1), F(1, 2))))
    assert not measures_equal(a, b)
    assert measures_equal(a, DiscreteMeasure.point_mass(0))


def test_truncate_cap():
    with pytest.raises(AtomCapExceeded):
        truncate(QUARTER, ONES, 10, cap=100)


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
        assert measures_equal(base, convolve(shuffled))


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


def test_normalize_signs_examples():
    cfg, gamma = normalize_signs(QUARTER, ONES)
    assert gamma == 0 and cfg == QUARTER
    cfg2, gamma2 = normalize_signs(SystemConfig.of((-4, 2, 1)), ONES)
    assert gamma2 == F(4, 15)       # sum over odd k of 4^(-k)
    assert cfg2 == QUARTER


def test_normalize_signs_negative_stride_and_mixed_period():
    # odd-length period with negative period base product exercises the
    # doubled sign-period tail
    cfg = SystemConfig.of((-2, 2, 3), (3, 2, -1))
    word = SymbolicWord((), (1, 2, 1))
    _, gamma = normalize_signs(cfg, word)
    # independent oracle: partial sums of gamma_k converge to gamma
    partial = F(0)
    base = 1
    for n in range(1, 60):
        pr = cfg.pair(word.letter(n))
        base *= pr.b
        if base * pr.t < 0:
            partial += F(-(pr.p - 1) * pr.t, base)
    assert abs(float(gamma - partial)) < 1e-15


def test_normalize_signs_closed_form_matches_partial_sums_randomized():
    # the closed form sums one sign-period with a geometric tail; cross-check
    # against 80-stage partial sums on random signed alphabets and words
    rng = random.Random(314159)
    for _ in range(120):
        m = rng.randint(1, 3)
        pairs = tuple(StagePair(rng.choice([2, 3, 4, 5, 12]) * rng.choice([1, -1]),
                                rng.choice([2, 3, 4]),
                                rng.choice([1, 2, 5]) * rng.choice([1, -1]))
                      for _ in range(m))
        cfg = SystemConfig(pairs)
        word = SymbolicWord(tuple(rng.randint(1, m) for _ in range(rng.randint(0, 3))),
                            tuple(rng.randint(1, m) for _ in range(rng.randint(1, 3))))
        _, gamma = normalize_signs(cfg, word)
        partial = F(0)
        base = 1
        for n in range(1, 81):
            pr = cfg.pair(word.letter(n))
            base *= pr.b
            if base * pr.t < 0:
                partial += F(-(pr.p - 1) * pr.t, base)
        assert abs(float(gamma - partial)) < 1e-18, (pairs, str(word))


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
    norm, _ = normalize_signs(cfg, word)
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
    assert measures_equal(left, right)
