"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and elapsed times.
"""

import random
import time
from fractions import Fraction as F
from itertools import product
from math import gcd

import numpy as np

from moranspec.classifier import (CLAUSE_TAIL_EXCEPTION, NOT_SPECTRAL, SPECTRAL,
                                  decide_spectrality, integral_zero_set_probe,
                                  two_stage_decide, validate_config)
from moranspec.hadamard import (canonical_dual_digits, is_admissible,
                                is_compatible_pair)
from moranspec.measure import (StagePair, SymbolicWord, SystemConfig,
                               scale_digits, truncate, zero_set_contains)
from moranspec.oracle import search_compatible_partners, weighted_mean_rigidity
from moranspec.spectra import (SpectrumCandidate, build_tower_spectrum,
                               decompose_spectrum, default_lattice_modulus,
                               extract_tail_spectrum, q_function,
                               verify_spectrum_finite)

ONES = SymbolicWord.constant(1)


def _report(number: int, started: float, limit: float, text: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its runtime target"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {text}")


def test_acceptance_1_two_stage_equivalence_sweep():
    started = time.perf_counter()
    cases = 0
    for p1, p2, b1, t1, t2 in product(range(2, 6), range(2, 6), range(2, 9),
                                      range(1, 7), range(1, 7)):
        dec = two_stage_decide(p1, p2, b1, t1, t2)
        expected = (t1 % t2 == 0)
        assert dec.divides == dec.spectral == dec.tiles == expected, \
            (p1, p2, b1, t1, t2)
        if expected:
            assert dec.tiling.certificate.ok
            length = sum(b - a for a, b in dec.tiling.support.intervals)
            assert length * len(dec.tiling.digits) == dec.tiling.period
        else:
            assert dec.residue == t1 % t2
            assert dec.tiling.residue == t1 % t2
        cases += 1
    _report(1, started, 60.0,
            f"two-stage equivalence holds on all {cases} parameter tuples")


def test_acceptance_2_admissibility_oracle_agreement():
    started = time.perf_counter()
    limit = 10000
    cache = {}
    fully_enumerated = 0
    truncated = 0
    for b in range(2, 13):
        for p in range(2, 7):
            for t in (*range(-6, 0), *range(1, 7)):
                window = b * p * abs(t)
                key = (b, p, abs(t))
                if key not in cache:
                    cache[key] = search_compatible_partners(b, p, abs(t),
                                                            window, limit=limit)
                results = cache[key]
                adm = is_admissible(b, p, t)
                assert bool(results) == adm, (b, p, t)
                if not adm:
                    continue
                canonical = canonical_dual_digits(b, p, t)
                assert max(canonical) < b
                if len(results) < limit:
                    fully_enumerated += 1
                    assert canonical in results, (b, p, t)
                else:
                    # the search was truncated at a combinatorial corner;
                    # membership in the full enumeration is by definition the
                    # search predicate, which is checked directly instead
                    truncated += 1
                    digits = tuple(j * abs(t) for j in range(p))
                    assert canonical[0] == 0 and len(canonical) == p
                    assert max(canonical) < window
                    assert is_compatible_pair(b, digits, canonical), (b, p, t)
    _report(2, started, 300.0,
            f"oracle agrees with the divisibility criterion "
            f"({fully_enumerated} full enumerations, {truncated} truncated)")


def _admissible_letter_pool():
    return [(b, p, t)
            for b in (2, 4, 6, 12) for p in (2, 3) for t in (1, 3, 5)
            if is_admissible(b, p, t)]


def test_acceptance_3_tower_spectrum_validity():
    started = time.perf_counter()
    letters = _admissible_letter_pool()
    grid = np.arange(256) / 256.0
    alphabets = 0
    towers = 0
    for i, la in enumerate(letters):
        for lb in letters[i + 1:]:
            cfg = SystemConfig.of(la, lb)
            if validate_config(cfg):
                continue
            alphabets += 1
            for k in range(1, 5):
                for prefix in product((1, 2), repeat=k):
                    word = SymbolicWord(prefix[:-1], (prefix[-1],))
                    cand = build_tower_spectrum(cfg, word, k)
                    meas = truncate(cfg, word, k)
                    ver = verify_spectrum_finite(meas, cand, cfg, word, k)
                    assert ver.ok, (la, lb, prefix, ver.reason)
                    assert ver.unitarity_residual < 1e-9
                    qs = q_function(cfg, word, k, cand, grid)
                    assert float(np.max(np.abs(qs - 1.0))) < 1e-9, (la, lb, prefix)
                    towers += 1
    _report(3, started, 120.0,
            f"{towers} towers over {alphabets} two-letter alphabets verified "
            f"with exact orthogonality and grid identity")


def test_acceptance_4_rewrite_reproduction():
    started = time.perf_counter()
    mixed = SystemConfig.of((12, 2, 1), (2, 3, 4), (6, 2, 1))
    word = SymbolicWord((1, 2), (3, 2))
    six = SystemConfig.of((12, 6, 1))
    for k in (1, 2, 3):
        assert truncate(mixed, word, 2 * k) == truncate(six, ONES, k)
    merged = SystemConfig.of((6, 6, 1), (6, 2, 3), (2, 6, 1))
    twelve = SystemConfig.of((12, 12, 1))
    for k in (1, 2, 3):
        assert truncate(merged, word, 2 * k) == truncate(twelve, ONES, k)
    _report(4, started, 10.0,
            "both exact measure rewrites reproduce at depths 2, 4 and 6")


def _all_words(max_pre: int, max_per: int):
    words = set()
    for r in range(max_pre + 1):
        for pre in product((1, 2), repeat=r):
            for s in range(1, max_per + 1):
                for per in product((1, 2), repeat=s):
                    words.add(SymbolicWord(pre, per))
    return sorted(words, key=str)


def test_acceptance_5_regression_against_the_two_letter_family():
    started = time.perf_counter()
    words = _all_words(3, 3)
    decided = 0
    for p in (2, 3):
        for t in (3, 5):
            if gcd(p, t) != 1:
                continue
            for k in (1, 2):
                cfg = SystemConfig.of((k * p, p, 1), (k * p, p, t))
                assert validate_config(cfg) == []
                for word in words:
                    verdict = decide_spectrality(cfg, word)
                    decided += 1
                    if k >= 2:
                        assert verdict.kind == SPECTRAL, (p, t, k, str(word))
                        continue
                    if 1 in word.period:
                        assert verdict.kind == SPECTRAL, (p, t, str(word))
                    elif word.preperiod == ():
                        assert word.period == (2,)
                        assert verdict.kind == SPECTRAL, (p, t, str(word))
                    else:
                        assert verdict.kind == NOT_SPECTRAL, (p, t, str(word))
                        assert verdict.clause == CLAUSE_TAIL_EXCEPTION
                        assert dict(verdict.detail)["j"] == 2
                        assert dict(verdict.detail)["l"] == len(word.preperiod)
    _report(5, started, 10.0,
            f"{decided} classifier verdicts match the two-letter family "
            f"(k=1 exceptional words, k=2 all spectral)")


def test_acceptance_6_integral_zero_set_probes():
    started = time.perf_counter()
    narrow = SystemConfig.of((2, 2, 3))
    for k in range(-200, 201):
        assert zero_set_contains(narrow, ONES, F(1, 3) + k), k
    wide = SystemConfig.of((4, 2, 3))
    numerators = [r for r in range(1, 20) if r % 3 != 0]
    grid = [F(r, 3) for r in numerators] + [F(-r, 3) for r in numerators[:12]]
    assert len(grid) == 25
    for xi in grid:
        probe = integral_zero_set_probe(wide, ONES, xi, 200)
        assert probe.witness is not None, xi
    _report(6, started, 10.0,
            "1/3 + Z is all zeros for the tight system; 25 witnesses found "
            "for the proper-divisor system")


def test_acceptance_7_tail_spectra_from_decompositions():
    started = time.perf_counter()
    systems = [SystemConfig.of((4, 2, 1)),
               SystemConfig.of((12, 2, 1), (12, 3, 4)),
               SystemConfig.of((6, 2, 1), (6, 3, 4))]
    verified = 0
    for cfg in systems:
        q = default_lattice_modulus(cfg)
        for prefix in product(range(1, cfg.m + 1), repeat=3):
            word = SymbolicWord(prefix[:-1], (prefix[-1],))
            cand = build_tower_spectrum(cfg, word, 3)
            first = cfg.pair(word.letter(1))
            p1, t1 = first.p, abs(first.t)
            dec = decompose_spectrum(cand, first.b, q)
            tau1 = q // (p1 * t1)
            tail_word = word.shift(1)
            tail = truncate(cfg, tail_word, 2)
            nonempty = 0
            for choice in product(range(p1), repeat=tau1):
                gamma = extract_tail_spectrum(dec, choice, p1, t1)
                if not gamma.points:
                    continue
                nonempty += 1
                ver = verify_spectrum_finite(tail, gamma, cfg, tail_word, 2)
                assert ver.ok, (prefix, choice, ver.reason)
                verified += 1
            assert nonempty >= 1, prefix
    _report(7, started, 60.0,
            f"{verified} extracted tail spectra verified against depth-2 tails")


def test_acceptance_8_rigidity_property_suite():
    started = time.perf_counter()
    rng = random.Random(60103)
    for trial in range(10_000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        p_rows = []
        for _ in range(m):
            nums = [rng.randint(1, 9) for _ in range(n)]
            total = sum(nums)
            p_rows.append([F(a, total) for a in nums])
        mode = trial % 4
        if mode in (0, 1):
            caps = [rng.randint(0, 9) for _ in range(m)]
            if sum(caps) == 0:
                caps[0] = 1
            denom = sum(caps) + (0 if mode == 0 else rng.randint(1, 5))
            maxima = [F(c, denom) for c in caps]
            x_rows = [[maxima[i]] * n for i in range(m)]
        else:
            caps = [rng.randint(0, 9) for _ in range(m)]
            denom = sum(caps) + rng.randint(0, 5) + 1
            maxima = [F(c, denom) for c in caps]
            x_rows = []
            for i in range(m):
                d = rng.randint(1, 8)
                x_rows.append([maxima[i] * F(rng.randint(0, d), d) for _ in range(n)])
        report = weighted_mean_rigidity(p_rows, x_rows)
        assert report.equivalent, (trial, p_rows, x_rows)
    _report(8, started, 30.0,
            "10000 exact-rational instances all report the equivalence")


def _random_valid_config(rng: random.Random):
    stride_pool = (1, 3, 5, 7, 11)
    while True:
        m = rng.randint(1, 3)
        ts = rng.sample(stride_pool, m)
        candidates = [p for p in (2, 3, 4, 5, 9)
                      if all(gcd(p, abs(s)) == 1 for s in ts)]
        if not candidates:
            continue
        pairs = [StagePair(rng.randint(2, 12), rng.choice(candidates), t)
                 for t in ts]
        cfg = SystemConfig(tuple(pairs))
        if validate_config(cfg) == []:
            return cfg


def _random_word(rng: random.Random, m: int):
    pre = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 2)))
    per = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 2)))
    return SymbolicWord(pre, per)


def test_acceptance_9_invariance_suite():
    started = time.perf_counter()
    rng = random.Random(424242)

    # sign normalization leaves every verdict unchanged
    for _ in range(100):
        cfg = _random_valid_config(rng)
        word = _random_word(rng, cfg.m)
        base = decide_spectrality(cfg, word)
        flipped = SystemConfig(tuple(
            StagePair(pr.b * rng.choice((1, -1)), pr.p, pr.t * rng.choice((1, -1)))
            for pr in cfg.pairs))
        other = decide_spectrality(flipped, word)
        assert (base.kind, base.clause) == (other.kind, other.clause)

    # the verdict never depends on the base at position 1
    replacements = (2, 3, 5, 7, 9, 12, -4, -6)
    swept = 0
    while swept < 100:
        cfg = _random_valid_config(rng)
        if cfg.m < 2:
            continue
        # the last alphabet letter heads the word and never recurs
        tail_word = _random_word(rng, cfg.m - 1)
        word = SymbolicWord((cfg.m,) + tail_word.preperiod, tail_word.period)
        assert cfg.m not in word.shift(1).letters()
        verdicts = set()
        for b_new in replacements:
            pairs = list(cfg.pairs)
            head = pairs[cfg.m - 1]
            pairs[cfg.m - 1] = StagePair(b_new, head.p, head.t)
            v = decide_spectrality(SystemConfig(tuple(pairs)), word)
            verdicts.add((v.kind, v.clause))
        assert len(verdicts) == 1, (cfg, str(word), verdicts)
        swept += 1

    # digit scaling maps verified spectra to verified spectra of the scaled system
    pool = _admissible_letter_pool()
    scaled_checked = 0
    for _ in range(100):
        la, lb = rng.choice(pool), rng.choice(pool)
        cfg = SystemConfig.of(la, lb)
        k = rng.randint(1, 3)
        word = SymbolicWord(tuple(rng.randint(1, 2) for _ in range(k - 1)),
                            (rng.randint(1, 2),))
        cand = build_tower_spectrum(cfg, word, k)
        assert verify_spectrum_finite(truncate(cfg, word, k), cand, cfg, word, k).ok
        q = rng.choice((2, 3, 5))
        scaled_cfg = scale_digits(cfg, q)
        scaled_cand = SpectrumCandidate.finite([x / q for x in cand.points])
        ver = verify_spectrum_finite(truncate(scaled_cfg, word, k), scaled_cand,
                                     scaled_cfg, word, k)
        assert ver.ok, (la, lb, str(word), q, ver.reason)
        scaled_checked += 1
    assert scaled_checked == 100
    _report(9, started, 30.0,
            "verdicts invariant under sign flips and head-base replacement; "
            "spectra transform covariantly under digit scaling")
