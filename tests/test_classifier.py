import ast
import random
from fractions import Fraction as F
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspec.classifier import (CLAUSE_DIVISIBILITY, CLAUSE_TAIL_EXCEPTION,
                                  CLAUSE_HYPOTHESIS, NOT_SPECTRAL, OUT_OF_SCOPE,
                                  SPECTRAL, SpectralVerdict, ZeroSetStatus,
                                  alternating_family_decide, decide_spectrality,
                                  integral_zero_set_probe,
                                  integral_zero_set_status,
                                  necessity_violations, two_stage_decide,
                                  validate_config)
from moranspec.hadamard import is_admissible
from moranspec.measure import StagePair, SymbolicWord, SystemConfig, scale_digits, truncate

from test_exactmath import SRC
from test_measure import fraction_zero, word_positions, words_over
from test_tiling import outcome

MIXED = SystemConfig.of((4, 2, 1), (2, 2, 3))


def test_validate_examples():
    assert validate_config(MIXED) == []
    bad = validate_config(SystemConfig.of((4, 2, 2), (2, 2, 3)))
    assert any("p_1=2" in v and "t_1=2" in v for v in bad)
    bad2 = validate_config(SystemConfig.of((4, 2, 3), (2, 2, 6)))
    assert any("t_1=3" in v and "t_2=6" in v for v in bad2)


def listed_violations(config):
    """Every violation, listed pair by pair, whatever the alphabet."""
    violations = []
    for k, pk in enumerate(config.pairs, start=1):
        for j, pj in enumerate(config.pairs, start=1):
            if gcd(pk.p, abs(pj.t)) != 1:
                violations.append(f"gcd(p_{k}={pk.p}, t_{j}={pj.t}) != 1")
    for i, pi in enumerate(config.pairs, start=1):
        for j in range(i + 1, config.m + 1):
            pj = config.pair(j)
            if gcd(abs(pi.t), abs(pj.t)) != 1:
                violations.append(f"gcd(t_{i}={pi.t}, t_{j}={pj.t}) != 1")
    return violations


SIGNS = st.sampled_from((1, -1))
SIGNED_LETTERS = st.builds(lambda b, p, t, b_sign, t_sign: (b_sign * b, p, t_sign * t),
                           st.integers(2, 30), st.integers(2, 12), st.integers(1, 35),
                           SIGNS, SIGNS)


@settings(max_examples=300, deadline=None)
@given(st.lists(SIGNED_LETTERS, min_size=1, max_size=5))
def test_validate_matches_the_pairwise_listing(letters):
    cfg = SystemConfig.of(*letters)
    assert validate_config(cfg) == listed_violations(cfg)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 25)), min_size=1, max_size=5),
       st.data())
def test_validate_matches_the_listing_on_clean_alphabets(strides, data):
    # digit counts drawn coprime to every stride: only stride pairs can clash
    cfg = SystemConfig.of(*[(data.draw(st.integers(2, 40)),
                             data.draw(st.integers(2, 40).filter(
                                 lambda p: all(gcd(p, t) == 1 for t in strides))),
                             t * data.draw(SIGNS)) for t in strides])
    listed = listed_violations(cfg)
    assert validate_config(cfg) == listed
    assert (listed == []) == all(gcd(a, b) == 1 for i, a in enumerate(strides)
                                 for b in strides[i + 1:])


def test_word_letters_past_the_alphabet_are_rejected():
    with pytest.raises(ValueError, match="outside the alphabet"):
        decide_spectrality(MIXED, SymbolicWord((3,), (1,)))
    with pytest.raises(ValueError, match="outside the alphabet"):
        decide_spectrality(MIXED, SymbolicWord((), (1, 2, 3)))


def test_decide_examples():
    tail = decide_spectrality(MIXED, SymbolicWord((1,), (2,)))
    assert tail.kind == NOT_SPECTRAL and tail.clause == CLAUSE_TAIL_EXCEPTION
    assert dict(tail.detail)["l"] == 1 and dict(tail.detail)["j"] == 2
    assert decide_spectrality(MIXED, SymbolicWord.constant(2)).kind == SPECTRAL
    div = decide_spectrality(SystemConfig.of((4, 2, 1), (9, 2, 3)),
                             SymbolicWord((), (1, 2)))
    assert div.kind == NOT_SPECTRAL and div.clause == CLAUSE_DIVISIBILITY
    assert dict(div.detail)["letter"] == 2
    scope = decide_spectrality(SystemConfig.of((4, 2, 2), (2, 2, 3)),
                               SymbolicWord.constant(1))
    assert scope.kind == OUT_OF_SCOPE


def test_position_one_is_exempt_from_divisibility():
    # letter 1 fails p | b but is only used at position 1
    cfg = SystemConfig.of((9, 2, 1), (4, 2, 3))
    verdict = decide_spectrality(cfg, SymbolicWord((1,), (2,)))
    assert verdict.kind == SPECTRAL
    # the same letter recurring later trips the divisibility clause
    verdict2 = decide_spectrality(cfg, SymbolicWord((1,), (1, 2)))
    assert verdict2.kind == NOT_SPECTRAL and verdict2.clause == CLAUSE_DIVISIBILITY


def test_verdicts_are_sign_invariant():
    rng = random.Random(4)
    for _ in range(40):
        t2 = rng.choice([3, 5, 7])
        cfg = SystemConfig.of((rng.choice([4, 6, 9, 12]), 2, 1),
                              (rng.choice([2, 4, 10]), 2, t2))
        word = SymbolicWord(tuple(rng.choice([1, 2]) for _ in range(rng.randint(0, 2))),
                            tuple(rng.choice([1, 2]) for _ in range(rng.randint(1, 2))))
        base = decide_spectrality(cfg, word)
        flipped = SystemConfig(tuple(
            StagePair(pr.b * rng.choice([1, -1]), pr.p, pr.t * rng.choice([1, -1]))
            for pr in cfg.pairs))
        other = decide_spectrality(flipped, word)
        assert (base.kind, base.clause) == (other.kind, other.clause)


def test_necessity_examples():
    remark_stages = [StagePair(12, 2, 1), StagePair(2, 3, 4),
                     StagePair(6, 2, 1), StagePair(2, 3, 4)]
    # the guard p_k | t_{k+1} silences the k=1 check; later ks pass
    assert necessity_violations(remark_stages, 3) == []
    merged_stages = [StagePair(6, 6, 1), StagePair(6, 2, 3),
                     StagePair(2, 6, 1), StagePair(6, 2, 3)]
    assert necessity_violations(merged_stages, 3) == []
    unit = [StagePair(4, 2, 1), StagePair(8, 2, 1), StagePair(6, 3, 1)]
    assert necessity_violations(unit, 2) == []
    bad = [StagePair(4, 2, 1), StagePair(9, 2, 3)]
    violations = necessity_violations(bad, 1)
    assert len(violations) == 1 and violations[0].index == 1
    with pytest.raises(ValueError):
        necessity_violations(bad, 2)


def test_two_stage_examples():
    full = two_stage_decide(2, 3, 5, 6, 2)
    assert (full.divides, full.spectral, full.tiles) == (True, True, True)
    none = two_stage_decide(2, 2, 4, 1, 3)
    assert (none.divides, none.spectral, none.tiles) == (False, False, False)
    assert none.residue == 1
    same = two_stage_decide(3, 4, 7, 5, 5)
    assert same.divides and same.tiles


def test_zero_set_status_examples():
    assert integral_zero_set_status(MIXED, SymbolicWord((), (1, 2))).status == "empty"
    pure = integral_zero_set_status(SystemConfig.of((2, 2, 3)), SymbolicWord.constant(1))
    assert pure.status == "nonempty"
    proper = integral_zero_set_status(SystemConfig.of((4, 2, 3)), SymbolicWord.constant(1))
    assert proper.status == "empty"
    with pytest.raises(ValueError):
        integral_zero_set_status(SystemConfig.of((4, 2, 2)), SymbolicWord.constant(1))


def test_zero_set_status_head_routes():
    # unit-stride head with p | b throughout (tail strides share a factor 5)
    cfg = SystemConfig.of((4, 2, 1), (6, 3, 5))
    head_a = integral_zero_set_status(cfg, SymbolicWord((1,), (2,)))
    assert head_a.status == "empty"
    # nonunit head that never recurs, p | b throughout, tail gcd not 1
    cfg2 = SystemConfig.of((6, 3, 5), (14, 2, 7))
    head_b = integral_zero_set_status(cfg2, SymbolicWord((1,), (2,)))
    assert head_b.status == "empty"


def test_zero_set_unknown_without_any_criterion():
    # single non-admissible letter with p not dividing b: nothing applies
    status = integral_zero_set_status(SystemConfig.of((9, 2, 3)),
                                      SymbolicWord.constant(1))
    assert status.status == "unknown"


def test_zero_set_emptiness_does_not_decide_spectrality():
    # the full-word measure can have an empty integral periodic zero set and
    # still fail to be spectral: emptiness feeds the tail-limit sufficiency
    # argument, not the word itself
    cfg = SystemConfig.of((2, 2, 1), (2, 2, 3))
    word = SymbolicWord((1,), (2,))
    assert integral_zero_set_status(cfg, word).status == "empty"
    verdict = decide_spectrality(cfg, word)
    assert verdict.kind == NOT_SPECTRAL and verdict.clause == CLAUSE_TAIL_EXCEPTION


def test_empty_status_system_yields_witnesses_across_a_grid():
    cfg = SystemConfig.of((4, 2, 3))
    ones = SymbolicWord.constant(1)
    assert integral_zero_set_status(cfg, ones).status == "empty"
    for num in range(-12, 13):
        for den in (1, 2, 3, 5, 12):
            probe = integral_zero_set_probe(cfg, ones, F(num, den), 200)
            assert probe.witness is not None, (num, den)


def test_probe_examples():
    narrow = SystemConfig.of((2, 2, 3))
    ones = SymbolicWord.constant(1)
    assert integral_zero_set_probe(narrow, ones, F(1, 3), 200).witness is None
    found = integral_zero_set_probe(SystemConfig.of((4, 2, 3)), ones, F(1, 3), 200)
    assert found.witness is not None
    assert integral_zero_set_probe(narrow, ones, 0, 10).witness == 0


def test_nonempty_status_implies_probe_exhaustion():
    narrow = SystemConfig.of((2, 2, 3))
    ones = SymbolicWord.constant(1)
    status = integral_zero_set_status(narrow, ones)
    assert status.status == "nonempty"
    for window in (10, 50):
        assert integral_zero_set_probe(narrow, ones, F(1, 3), window).witness is None


def per_translate_probe(config, word, xi, window):
    """The probe that builds a Fraction and walks the stages per translate."""
    for k in range(window + 1):
        for cand in ((k,) if k == 0 else (k, -k)):
            if not fraction_zero(config, word, xi + cand):
                return cand
    return None


def probe_letter(p, mult, b_sign, t, t_sign):
    """(b, p, t) with b = p * mult, or b = p + 1 (not a multiple of p) when mult is 0."""
    return b_sign * (p * mult if mult else p + 1), p, t_sign * t


PROBE_LETTERS = st.builds(probe_letter, st.integers(2, 5), st.sampled_from((0, 1, 1, 2, 3)),
                          SIGNS, st.integers(1, 7), SIGNS)


@settings(max_examples=150, deadline=None)
@given(st.lists(PROBE_LETTERS, min_size=1, max_size=3), st.data())
def test_probe_matches_the_per_translate_walk(letters, data):
    cfg = SystemConfig.of(*letters)
    word = data.draw(words_over(cfg.m))
    strides = [abs(pr.t) for pr in cfg.pairs]
    xi = data.draw(st.one_of(
        st.builds(F, st.integers(-50, 50), st.sampled_from(strides)),
        st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
        st.builds(lambda a, t, p, e: F(a, t * p * 2 ** e), st.integers(-99, 99),
                  st.sampled_from(strides), st.integers(2, 5), st.integers(0, 6))))
    window = data.draw(st.integers(0, 300))
    if window == 0:
        with pytest.raises(ValueError):
            integral_zero_set_probe(cfg, word, xi, window)
        return
    probe = integral_zero_set_probe(cfg, word, xi, window)
    assert (probe.xi, probe.window) == (xi, window)
    assert probe.witness == per_translate_probe(cfg, word, xi, window)


def test_probe_witnesses_on_the_unit_interval():
    # (2,2,1)^oo is Lebesgue measure on [0, 1]: its transform vanishes at every
    # nonzero integer, so the first non-zero translate of an integer xi is -xi
    lebesgue = SystemConfig.of((2, 2, 1))
    ones = SymbolicWord.constant(1)
    for xi in range(-12, 13):
        for window in (1, 5, 12):
            expected = -xi if abs(xi) <= window else None
            assert integral_zero_set_probe(lebesgue, ones, xi, window).witness == expected


def test_alternating_family_examples():
    assert alternating_family_decide(2, 3, [4], [1]).kind == SPECTRAL
    neg = alternating_family_decide(3, 2, [4], [1])
    assert neg.kind == NOT_SPECTRAL
    assert alternating_family_decide(2, 3, [2], [2]).kind == SPECTRAL
    mixed = alternating_family_decide(2, 3, [4, 3], [1])
    assert mixed.kind == NOT_SPECTRAL and dict(mixed.detail)["b_odd"] == 3


def test_alternating_family_rewrite_cross_check():
    # p1=2, p2=3, strides 2 at even stages, base 6=p2*t there, odd bases 2:
    # scaling digits by p2 merges stage pairs into {0..5} stages
    p1, p2, t = 2, 3, 2
    cfg = SystemConfig.of((2, p1, 1), (p2 * t, p2, t))
    word = SymbolicWord((), (1, 2))
    scaled = scale_digits(cfg, p2)
    merged = SystemConfig.of((2, p1 * p2, 1), (p2 * t * 2, p1 * p2, 1))
    merged_word = SymbolicWord((1,), (2,))
    for k in (1, 2):
        left = truncate(scaled, word, 2 * k)
        right = truncate(merged, merged_word, k)
        assert left == right


def test_eventually_constant_verdicts_align_with_two_stage_divisibility():
    # on 2-letter coprime alphabets, a tail-exception verdict forces the
    # corresponding two-stage system to have non-dividing strides
    letters = [(4, 2, 1), (2, 2, 3), (2, 2, 5), (12, 3, 5), (3, 3, 1), (6, 3, 5)]
    for la, lb in product(letters, repeat=2):
        if la == lb:
            continue
        cfg = SystemConfig(tuple(StagePair(*x) for x in (la, lb)))
        if validate_config(cfg):
            continue
        word = SymbolicWord((1,), (2,))
        verdict = decide_spectrality(cfg, word)
        b2, p2, t2 = lb
        divisible = abs(b2) % p2 == 0
        expected_not = (not divisible) or (abs(b2) == p2 and abs(t2) != 1)
        assert (verdict.kind == NOT_SPECTRAL) == expected_not
        if verdict.kind == NOT_SPECTRAL and verdict.clause == CLAUSE_TAIL_EXCEPTION:
            two = two_stage_decide(cfg.pair(1).p, p2, 5, abs(cfg.pair(1).t), abs(t2))
            assert not two.divides


def reference_decide(config, word):
    """The per-word classification that re-derives every alphabet fact."""
    violations = listed_violations(config)
    if violations:
        return SpectralVerdict(OUT_OF_SCOPE, CLAUSE_HYPOTHESIS, (("violations", tuple(violations)),))
    r, s, seq = word_positions(word)
    if max(seq) > config.m:
        raise ValueError("word letters outside the alphabet")
    for letter in sorted(set(seq[1:])):
        pr = config.pairs[letter - 1]
        if abs(pr.b) % pr.p != 0:
            pos = seq.index(letter, 1) + 1
            return SpectralVerdict(
                NOT_SPECTRAL, CLAUSE_DIVISIBILITY,
                (("letter", letter), ("p", pr.p), ("b", pr.b), ("position", pos)))
    if s == 1 and r:
        j = seq[r]
        pr = config.pair(j)
        if abs(pr.b) == pr.p and abs(pr.t) != 1:
            return SpectralVerdict(
                NOT_SPECTRAL, CLAUSE_TAIL_EXCEPTION,
                (("l", r), ("j", j), ("last_other", seq[r - 1])))
    return SpectralVerdict(SPECTRAL)


def reference_zero_set_status(config, word):
    """The zero-set criteria as first written: admissibility and p | b tested
    letter by letter, and recurrence of the head read from positions >= 2."""
    if listed_violations(config):
        raise ValueError("config violates the coprime-alphabet hypothesis")
    r, s, seq = word_positions(word)
    pairs = {l: config.pair(l) for l in sorted(set(seq))}
    if all(is_admissible(pr.b, pr.p, pr.t) for pr in pairs.values()):
        g = 0
        for l in set(seq[r:]):
            g = gcd(g, abs(pairs[l].t))
        if g == 1:
            return ZeroSetStatus("empty", "tail stride gcd is 1 over admissible letters")
    if r == 0 and s == 1:
        pj = pairs[seq[0]]
        if abs(pj.b) == pj.p and abs(pj.t) != 1:
            return ZeroSetStatus("nonempty",
                                 f"constant word, |b|=p={pj.p}, stride {pj.t}: "
                                 f"1/{abs(pj.t)} + Z consists of zeros")
        if abs(pj.b) % pj.p == 0 and abs(pj.b) != pj.p:
            return ZeroSetStatus("empty", "constant word with p | b and p != |b|")
    divisible = all(abs(pr.b) % pr.p == 0 for pr in pairs.values())
    first = pairs[seq[0]]
    if divisible and abs(first.t) == 1:
        return ZeroSetStatus("empty", "unit-stride head with p | b throughout")
    if divisible and abs(first.t) != 1 and seq[0] not in seq[1:]:
        return ZeroSetStatus("empty", "nonunit-stride head never recurs, p | b throughout")
    return ZeroSetStatus("unknown", "no criterion applies")


@st.composite
def coprime_alphabets(draw):
    """Up to four letters with pairwise coprime strides and digit counts coprime to them."""
    strides = draw(st.lists(st.sampled_from((1, 1, 3, 5, 7, 11)), min_size=1, max_size=4)
                   .filter(lambda ts: all(gcd(a, b) == 1 for i, a in enumerate(ts)
                                          for b in ts[i + 1:])))
    p_values = st.integers(2, 9).filter(lambda p: all(gcd(p, t) == 1 for t in strides))
    return [probe_letter(draw(p_values), draw(st.sampled_from((0, 1, 1, 2, 3))),
                         draw(SIGNS), t, draw(SIGNS)) for t in strides]


ALPHABETS = st.one_of(coprime_alphabets(), st.lists(PROBE_LETTERS, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(ALPHABETS, ALPHABETS, st.data())
def test_decide_matches_the_per_word_reference(letters, other_letters, data):
    # one config object decides every word, as a caller sweeping words does;
    # a fresh equal config per word must agree with it.  Letter m + 1 is
    # drawn in about half the examples.  The zero-set criteria, which read the
    # same alphabet facts, must agree with their letter-by-letter reference.
    # Each word object is also decided over a second alphabet, before the
    # first on an equal fresh word, so its cached facts carry no verdict.
    cfg, other = SystemConfig.of(*letters), SystemConfig.of(*other_letters)
    top = cfg.m + data.draw(st.sampled_from((0, 1)))
    def references(alphabet, word):
        return (outcome(reference_decide, SystemConfig.of(*alphabet), word),
                outcome(reference_zero_set_status, SystemConfig.of(*alphabet), word))

    for word in data.draw(st.lists(words_over(top, 3), min_size=1, max_size=12)):
        answers = [(cfg, *references(letters, word)), (other, *references(other_letters, word))]
        assert outcome(decide_spectrality, SystemConfig.of(*letters), word) == answers[0][1]
        twin = SymbolicWord(word.preperiod, word.period)
        for w, order in ((word, answers), (twin, answers[::-1])):
            for config, verdict, status in order:
                assert outcome(decide_spectrality, config, w) == verdict, (w, config)
                assert outcome(integral_zero_set_status, config, w) == status, (w, config)


def test_cached_facts_leave_equality_hash_and_repr_alone():
    used, fresh = SystemConfig.of((4, 2, 1), (2, 2, 3)), SystemConfig.of((4, 2, 1), (2, 2, 3))
    before = repr(used), hash(used)
    decide_spectrality(used, SymbolicWord((1,), (2,)))
    assert "facts" in vars(used) and "facts" not in vars(fresh)
    assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
    assert used == fresh and len({used, fresh}) == 1
    assert validate_config(used) == [] and used.facts.pi_tails == frozenset({2})


def test_cached_word_facts_leave_equality_hash_and_repr_alone():
    used, fresh = SymbolicWord((1,), (2,)), SymbolicWord((1,), (2,))
    before = repr(used), hash(used), str(used)
    decide_spectrality(MIXED, used)
    integral_zero_set_status(MIXED, used)
    assert "facts" in vars(used) and "facts" not in vars(fresh)
    assert (repr(used), hash(used), str(used)) == before == (repr(fresh), hash(fresh), str(fresh))
    assert used == fresh and len({used, fresh}) == 1
    assert used.facts.tail_entry == (1, 2, 1)


def test_decisions_read_the_word_only_through_its_facts():
    # the word's side of every test is computed once, in SymbolicWord.facts;
    # neither decision rebuilds it from the preperiod and period per call
    tree = ast.parse((Path(SRC) / "moranspec" / "classifier.py").read_text(encoding="utf-8"))
    read = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in (
                "decide_spectrality", "integral_zero_set_status"):
            read[node.name] = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
    assert sorted(read) == ["decide_spectrality", "integral_zero_set_status"]
    for name, attrs in read.items():
        assert "facts" in attrs and not attrs & {"preperiod", "period"}, name
