import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from itertools import cycle, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranspec import oracle
from moranspec.cli import main
from moranspec.exactmath import digit_sum_vanishes
from moranspec.hadamard import canonical_dual_digits, is_admissible, is_compatible_pair
from moranspec.measure import (AtomCapExceeded, DiscreteMeasure, SymbolicWord, SystemConfig,
                               truncate)
from moranspec.oracle import (ORACLE_DIGIT_BOUND, _cliques, search_compatible_partners,
                              search_spectra, weighted_mean_rigidity)
from moranspec.spectra import (SpectrumCandidate, build_tower_spectrum,
                               verify_spectrum_finite)

QUARTER = SystemConfig.of((4, 2, 1))
ONES = SymbolicWord.constant(1)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_search_partner_examples():
    found = search_compatible_partners(4, 2, 1, 8)
    assert (0, 2) in found and (0, 6) in found
    assert search_compatible_partners(6, 4, 2, 48) == []
    assert (0, 1) in search_compatible_partners(2, 2, 3, 12)


def test_search_results_are_exactly_compatible():
    for b, p, t in ((4, 2, 1), (6, 3, 1), (12, 3, 4)):
        digits = tuple(j * t for j in range(p))
        for partner in search_compatible_partners(b, p, t):
            assert is_compatible_pair(b, digits, partner)
            assert partner[0] == 0 and len(partner) == p
        assert canonical_dual_digits(b, p, t) in search_compatible_partners(b, p, t)


def test_search_limit_truncates():
    full = search_compatible_partners(12, 2, 1)
    limited = search_compatible_partners(12, 2, 1, limit=1)
    assert len(limited) == 1 and set(limited) <= set(full)


def test_search_limit_keeps_the_first_sets_in_order():
    for b, p, t, window in ((12, 2, 1, 96), (8, 4, 1, None)):
        full = search_compatible_partners(b, p, t, window)
        assert full == sorted(full) and len(full) > 3
        assert search_compatible_partners(b, p, t, window, limit=0) == []
        for k in (1, 2, 3, len(full), len(full) + 5):
            assert search_compatible_partners(b, p, t, window, limit=k) == full[:k]


def per_difference_partners(b, p, t, window=None, limit=None):
    """The partner scan that decides one root sum per difference l in [1, window)."""
    if window is None:
        window = abs(b) * p * abs(t)
    digits = tuple(j * t for j in range(p))
    singles = [l for l in range(1, window) if digit_sum_vanishes(abs(b), digits, l)]
    return list(islice(_cliques(0, singles, p, set(singles).__contains__), limit))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 16), st.integers(2, 4), st.integers(1, 6),
       st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.data())
def test_partner_scan_by_residue_matches_the_per_difference_scan(b, p, t, sb, st_, data):
    b, t = sb * b, st_ * t
    window = data.draw(st.one_of(st.none(), st.integers(abs(b), 3 * abs(b) * p)))
    limit = data.draw(st.integers(0, 200))
    assert (search_compatible_partners(b, p, t, window, limit)
            == per_difference_partners(b, p, t, window, limit))


@pytest.mark.parametrize("b,p,t,window", [
    (4, 2, 1, None), (-12, 2, 3, None), (12, 3, 4, 100), (8, 4, -1, None), (6, 3, 1, 6)])
def test_unlimited_partner_scan_matches_the_per_difference_scan(b, p, t, window):
    full = search_compatible_partners(b, p, t, window)
    assert full == per_difference_partners(b, p, t, window)
    assert full  # every one of these letters is admissible


@pytest.mark.parametrize("b,p,t", [
    (9, 6, 3), (-9, 6, 3), (15, 6, 7), (15, 6, -7), (6, 6, 4), (-12, 6, -4)])
def test_dead_six_digit_letters_match_the_per_difference_scan(b, p, t):
    # p | b/gcd(b, t) fails, so the search cuts every branch on residues alone
    assert not is_admissible(b, p, t)
    assert search_compatible_partners(b, p, t) == per_difference_partners(b, p, t) == []


@pytest.mark.parametrize("b,p,t,window,limit", [
    (6, 3, 1, 17, None), (-12, 3, 4, 50, None), (8, 4, -1, 29, None), (6, 6, 5, 13, None),
    (-6, 6, 1, 23, None), (12, 6, 1, 31, None), (18, 6, 1, 40, 500), (10, 5, 1, 23, None)])
def test_windows_that_cut_the_last_residues_match_the_per_difference_scan(b, p, t, window, limit):
    assert window % abs(b) != 0
    found = search_compatible_partners(b, p, t, window, limit)
    assert found and found == per_difference_partners(b, p, t, window, limit)


def test_search_and_criterion_agree_on_every_small_letter():
    # the four sign pairs in turn; 7 strides per (b, p) give each pair every sign
    letters = product(range(2, 25), range(2, 7), range(1, 8))
    for (b, p, t), (sb, st_) in zip(letters, cycle(product((1, -1), repeat=2))):
        found = search_compatible_partners(sb * b, p, st_ * t, limit=64)
        assert bool(found) == is_admissible(sb * b, p, st_ * t), (sb * b, p, st_ * t)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 4), st.integers(1, 5),
       st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.data())
def test_oracle_search_prints_the_per_difference_partners(b, p, t, sb, st_, data):
    b, t = sb * b, st_ * t
    window = data.draw(st.one_of(st.none(), st.integers(abs(b), 3 * abs(b) * p)))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 80)))
    flags = [] if window is None else ["--window", str(window)]
    flags += [] if cap is None else ["--cap", str(cap)]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        cfg = Path(tmp) / "pair.json"
        cfg.write_text(json.dumps({"pairs": [{"b": b, "p": p, "t": t}], "word": {"period": [1]}}))
        code = main(["oracle-search", "--config", str(cfg), *flags])
    sets = per_difference_partners(b, p, t, window, cap)
    expected = [f"window={window or abs(b) * p * abs(t)}", f"count={len(sets)}"]
    expected += [f"set.{i}=" + " ".join(map(str, s)) for i, s in enumerate(sets[:64])]
    assert code == 0 and out.getvalue().splitlines() == expected


def test_search_window_validation():
    with pytest.raises(ValueError):
        search_compatible_partners(4, 2, 1, window=2)


def test_more_digits_than_the_base_leave_no_set_without_a_root_sum(monkeypatch):
    # two of p > |b| elements agree mod |b|, and their root sum is p ones;
    # (4, 10**6, 1) decided d(4) root sums of 10**6 terms in about a second
    def refuse(*args):
        raise AssertionError("a root sum was decided")

    monkeypatch.setattr(oracle, "digit_sum_vanishes", refuse)
    assert search_compatible_partners(4, 10**6, 1, window=4) == []
    assert search_compatible_partners(-3, 4, 2) == []
    with pytest.raises(ValueError):
        search_compatible_partners(4, 10**6, 1, window=2)


def test_more_digits_than_the_digit_bound_raise_by_name():
    # the search nests one frame per digit: from p = 1,000 it raised a
    # RecursionError; at the bound it still finds its set
    bound = ORACLE_DIGIT_BOUND
    with pytest.raises(AtomCapExceeded, match=f"bound is {bound}$"):
        search_compatible_partners(1000, 1000, 1, window=1000, limit=1)
    assert search_compatible_partners(bound, bound, 1, window=bound, limit=1) == [
        tuple(range(bound))]


def test_search_spectra_examples():
    mu = truncate(QUARTER, ONES, 1)
    found = search_spectra(mu, range(8))
    assert found == [(F(0), F(2)), (F(0), F(6))]
    assert search_spectra(DiscreteMeasure.point_mass(0), [0]) == [(F(0),)]
    mu3 = truncate(SystemConfig.of((2, 2, 3)), ONES, 1)
    assert (F(0), F(1)) in search_spectra(mu3, range(6))


def test_search_spectra_exact_mode_and_verification():
    cfg = SystemConfig.of((2, 2, 3))
    mu = truncate(cfg, ONES, 1)
    found = search_spectra(mu, range(6), config=cfg, word=ONES, depth=1)
    assert (F(0), F(1)) in found
    for cand in found:
        ver = verify_spectrum_finite(mu, SpectrumCandidate.finite(cand), cfg, ONES, 1)
        assert ver.ok


def test_every_tower_spectrum_in_the_pool_is_found():
    cand = build_tower_spectrum(QUARTER, ONES, 2)
    mu = truncate(QUARTER, ONES, 2)
    pool = [F(k) for k in range(16)]
    found = search_spectra(mu, pool, config=QUARTER, word=ONES, depth=2)
    assert tuple(cand.points) in found
    for res in found:
        ver = verify_spectrum_finite(mu, SpectrumCandidate.finite(res), QUARTER, ONES, 2)
        assert ver.ok


def test_truncation_zero_at_a_large_order_is_quick():
    # delta = 7/5 on (12,2,1)^oo at depth 4 reaches order 5 * 12^4 = 103,680,
    # where dividing by Phi_103680 took over a minute; delta = 6 is a zero
    code = ("from fractions import Fraction; "
            "from moranspec.measure import SymbolicWord, SystemConfig; "
            "from moranspec.oracle import _truncation_zero as z; "
            "c, w = SystemConfig.of((12, 2, 1)), SymbolicWord.constant(1); "
            "print(z(c, w, 4, Fraction(7, 5)), z(c, w, 4, Fraction(6)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_search_spectra_caps_atom_count():
    atoms = tuple((F(i), F(1, 100)) for i in range(100))
    with pytest.raises(ValueError):
        search_spectra(DiscreteMeasure.from_dict(dict(atoms)), range(4))


def test_rigidity_examples():
    one = weighted_mean_rigidity([[1]], [[1]])
    assert one.sum_is_one and one.structured and one.equivalent
    constant = weighted_mean_rigidity([[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]],
                                      [[F(1, 4), F(1, 4)], [F(3, 4), F(3, 4)]])
    assert constant.sum_is_one and constant.structured and constant.equivalent
    skew = weighted_mean_rigidity([[F(1, 2), F(1, 2)]], [[1, 0]])
    assert skew.weighted_sum == F(1, 2)
    assert not skew.sum_is_one and not skew.structured and skew.equivalent


def test_rigidity_validates_constraints():
    with pytest.raises(ValueError):
        weighted_mean_rigidity([[F(1, 2), F(1, 3)]], [[0, 0]])   # row sum != 1
    with pytest.raises(ValueError):
        weighted_mean_rigidity([[1]], [[-1]])                    # negative x
    with pytest.raises(ValueError):
        weighted_mean_rigidity([[1], [1]], [[1], [1]])           # maxima sum > 1
    with pytest.raises(ValueError):
        weighted_mean_rigidity([[0, 1]], [[0, 0]])               # p not positive
