import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moranspec import measure, spectra
from moranspec.cli import (ALPHABET_BOUND, CSV_ROW, ORACLE_SET_BOUND, QCHECK_WORK_BOUND,
                           WINDOW_BOUND, build_parser, fmt_float, fmt_multiples, fmt_rational,
                           main, parse_word_text)
from moranspec.hadamard import is_admissible
from moranspec.oracle import ORACLE_DIGIT_BOUND
from moranspec.measure import (DEFAULT_ATOM_CAP, FLOAT_BOUND, MU_HAT_BLOCK, SUMSET_BIT_BOUND,
                               SymbolicWord, SystemConfig, mu_hat_eval, mu_hat_many, truncate)
from moranspec.spectra import (VERIFY_ATOM_BOUND, build_tower_spectrum, q_function,
                               tower_stages)
from test_classifier import (PROBE_LETTERS, SIGNED_LETTERS, coprime_alphabets,
                             listed_violations, per_translate_probe, reference_zero_set_status)
from test_measure import SIGNED_B, SIGNED_T, reference_truncate, words_over
from test_spectra import (admissible_letters, reference_verdict, shifted_partner_tower,
                          tower_q_bound, tower_size)

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the golden "neg" config: negative bases and strides
NEG = {"pairs": [{"b": -4, "p": 2, "t": -1}, {"b": -6, "p": 3, "t": 5}],
       "word": {"preperiod": [1], "period": [2, 1]}}


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def mixed_config(tmp_path):
    return write_config(tmp_path, "mixed.json", {
        "pairs": [{"b": "4", "p": "2", "t": "1"}, {"b": "2", "p": "2", "t": "3"}],
        "word": {"preperiod": ["1"], "period": ["2"]},
    })


@pytest.fixture
def quarter_config(tmp_path):
    return write_config(tmp_path, "quarter.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}],
        "word": {"period": [1]},
    })


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_parse_word_text():
    assert parse_word_text("1,2;3,2") == SymbolicWord((1, 2), (3, 2))
    assert parse_word_text(";2") == SymbolicWord((), (2,))
    with pytest.raises(Exception):
        parse_word_text("1,2")


def test_classify_report_and_exit(mixed_config, capsys):
    code, out = run(capsys, ["classify", "--config", mixed_config])
    assert code == 0
    assert "kind=NotSpectral" in out
    assert "clause=Pi_l" in out
    assert "l=1" in out and "j=2" in out


def test_classify_is_deterministic(mixed_config, capsys):
    _, first = run(capsys, ["classify", "--config", mixed_config])
    _, second = run(capsys, ["classify", "--config", mixed_config])
    assert first == second


def test_word_override(mixed_config, capsys):
    code, out = run(capsys, ["classify", "--config", mixed_config, "--word", ";2"])
    assert code == 0 and "kind=Spectral" in out


def test_classify_out_of_scope_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "scope.json", {
        "pairs": [{"b": 4, "p": 2, "t": 2}],
        "word": {"period": [1]},
    })
    code, out = run(capsys, ["classify", "--config", cfg])
    assert code == 2 and "kind=OutOfScope" in out


def test_validate_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {
        "pairs": [{"b": 4, "p": 2, "t": 3}, {"b": 2, "p": 2, "t": 6}],
    })
    code, out = run(capsys, ["validate", "--config", bad])
    assert code == 2 and "ok=false" in out and "violation.0=" in out
    good = write_config(tmp_path, "good.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}],
    })
    code2, out2 = run(capsys, ["validate", "--config", good])
    assert code2 == 0 and "ok=true" in out2


def test_a_malformed_field_is_named_once(tmp_path, capsys):
    # the pair's own error gets the pair prefix; a field error already names
    # its field, and was reported as 'field pairs[0]: field pairs[0].b: ...'
    for pair, expected in (({"b": "x"}, "field pairs[0].b: not a decimal integer: 'x'"),
                           ({"b": 4, "p": 2, "t": 0},
                            "field pairs[0]: t must be nonzero")):
        cfg = write_config(tmp_path, "bad.json", {"pairs": [pair]})
        code = main(["validate", "--config", cfg])
        assert (code, capsys.readouterr().err) == (2, f"error={expected}\n")


@pytest.mark.parametrize("as_text", [True, False])
def test_a_config_integer_past_the_int_str_limit_is_named(tmp_path, capsys, as_text):
    # a decimal string was reported as not a decimal integer, and a JSON
    # number stopped json.load with Python's own message
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 701)
    value = f'"{digits}"' if as_text else digits
    path = tmp_path / "long.json"
    path.write_text(f'{{"pairs": [{{"b": {value}, "p": 2, "t": 1}}]}}', encoding="utf-8")
    code = main(["validate", "--config", str(path)])
    assert (code, capsys.readouterr().err) == (
        2, f"error=field pairs[0].b: {limit + 701} digits is past Python's int-str limit; "
           f"bound is {limit} digits\n")


def test_malformed_config_is_a_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["classify", "--config", str(path)]) == 2
    missing = write_config(tmp_path, "missing.json", {"pairs": [{"b": 4, "p": 2}]})
    assert main(["classify", "--config", missing]) == 2
    wordless = write_config(tmp_path, "wordless.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}]})
    assert main(["classify", "--config", wordless]) == 2
    capsys.readouterr()


def test_spectrum_and_verify(quarter_config, capsys):
    code, out = run(capsys, ["spectrum", "--config", quarter_config, "--depth", "2"])
    assert code == 0
    assert "count=4" in out and "points=0/1 2/1 8/1 10/1" in out
    code2, out2 = run(capsys, ["verify", "--config", quarter_config, "--depth", "3"])
    assert code2 == 0 and "ok=true" in out2


def test_verify_past_the_atom_bound_exits_2_quickly(quarter_config, capsys):
    # 2**19 atoms are under the default 10**6 atom cap, but their residual
    # would be a 2**19 x 2**19 complex matrix (4 TiB)
    started = time.perf_counter()
    code = main(["verify", "--config", quarter_config, "--depth", "19"])
    assert time.perf_counter() - started < 2.0
    assert code == 2
    assert f"cap is {VERIFY_ATOM_BOUND}" in capsys.readouterr().err


def test_qcheck(quarter_config, capsys):
    code, out = run(capsys, ["qcheck", "--config", quarter_config,
                             "--depth", "3", "--grid", "32"])
    assert code == 0
    deviation = float(out.split("max_deviation=")[1].strip())
    assert deviation < 1e-9


def test_qcheck_builds_no_tower_point(quarter_config, monkeypatch, capsys):
    # Q is summed over the digit tree from the stage list; the point set is never built
    def refuse(*args, **kwargs):
        raise AssertionError("qcheck built the tower's points")

    for module, name in ((spectra, "build_tower_spectrum"), (spectra, "sumset"),
                         (measure, "sumset")):
        monkeypatch.setattr(module, name, refuse)
    code, out = run(capsys, ["qcheck", "--config", quarter_config, "--depth", "5",
                             "--grid", "8"])
    assert code == 0 and "max_deviation=" in out


def test_two_stage_and_tile(tmp_path, capsys):
    cfg = write_config(tmp_path, "two.json", {
        "pairs": [{"b": 5, "p": 2, "t": 6}, {"b": 3, "p": 3, "t": 2}],
    })
    code, out = run(capsys, ["two-stage", "--config", cfg])
    assert code == 0
    assert "divides=true" in out and "spectral=true" in out and "tiles=true" in out
    code2, out2 = run(capsys, ["tile", "--config", cfg])
    assert code2 == 0 and "tiles=true" in out2 and "period=12/5" in out2
    bad = write_config(tmp_path, "twobad.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}, {"b": 2, "p": 2, "t": 3}],
    })
    code3, out3 = run(capsys, ["tile", "--config", bad])
    assert code3 == 0 and "tiles=false" in out3 and "residue=1" in out3


def test_sample_ft_csv(quarter_config, tmp_path, capsys):
    out_path = tmp_path / "ft.csv"
    code, out = run(capsys, ["sample-ft", "--config", quarter_config,
                             "--depth", "20", "--grid", "256", "--window", "4",
                             "--out", str(out_path)])
    assert code == 0 and "rows=1025" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,re,im,abs"
    assert lines[1].startswith("0,1,0,1")
    by_x = {line.split(",")[0]: line for line in lines[1:]}
    x2 = by_x["2"].split(",")
    assert abs(float(x2[3])) < 1e-12


def test_rewrite_check(tmp_path, capsys):
    cfg = write_config(tmp_path, "rw.json", {
        "pairs": [{"b": "12", "p": "2", "t": "1"}, {"b": "2", "p": "3", "t": "4"},
                  {"b": "6", "p": "2", "t": "1"}],
        "word": {"preperiod": ["1", "2"], "period": ["3", "2"]},
        "rewrite": {"pairs": [{"b": "12", "p": "6", "t": "1"}],
                    "word": {"period": ["1"]}, "depth": "2"},
    })
    code, out = run(capsys, ["rewrite-check", "--config", cfg, "--depth", "4"])
    assert code == 0 and "equal=true" in out


def rewrite_systems():
    """A small signed alphabet of one to three letters, a word over it and a depth."""
    signed = st.integers(1, 6).flatmap(lambda m: st.sampled_from([m, -m]))
    pair = st.tuples(signed.filter(lambda b: abs(b) >= 2), st.integers(2, 3), signed)

    @st.composite
    def system(draw):
        pairs = draw(st.lists(pair, min_size=1, max_size=3))
        letter = st.integers(1, len(pairs))
        return (pairs, draw(st.lists(letter, max_size=2)),
                draw(st.lists(letter, min_size=1, max_size=2)), draw(st.integers(0, 4)))

    return system()


@settings(max_examples=60, deadline=None)
@given(left=rewrite_systems(), right=st.one_of(st.none(), rewrite_systems()))
def test_rewrite_check_reports_the_library_comparison(left, right):
    # right is None in about half the examples: the rewrite is the main system itself
    right = left if right is None else right
    blocks = [{"pairs": [{"b": b, "p": p, "t": t} for b, p, t in pairs],
               "word": {"preperiod": pre, "period": per}} for pairs, pre, per, _ in (left, right)]
    data = {**blocks[0], "rewrite": {**blocks[1], "depth": right[3]}}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        code = main(["rewrite-check", "--config", write_config(Path(tmp), "rw.json", data),
                     "--depth", str(left[3])])
    assert code == 0
    lhs, rhs = (truncate(SystemConfig.of(*pairs), SymbolicWord(tuple(pre), tuple(per)), depth)
                for pairs, pre, per, depth in (left, right))
    # canonical measures: equal fields exactly when the atom maps are equal
    assert (lhs == rhs) == (dict(lhs.atoms) == dict(rhs.atoms))
    assert out.getvalue().splitlines() == [f"equal={str(lhs == rhs).lower()}",
                                           f"left_depth={left[3]}", f"right_depth={right[3]}",
                                           f"atoms={len(lhs.nums)}"]


def test_oracle_search(quarter_config, capsys):
    code, out = run(capsys, ["oracle-search", "--config", quarter_config,
                             "--window", "8"])
    assert code == 0 and "count=2" in out
    assert "set.0=0 2" in out and "set.1=0 6" in out


def test_necessity(tmp_path, capsys):
    cfg = write_config(tmp_path, "nec.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}, {"b": 9, "p": 2, "t": 3}],
        "word": {"period": [1, 2]},
    })
    code, out = run(capsys, ["necessity", "--config", cfg, "--depth", "4"])
    assert code == 0 and "violations=2" in out
    assert "violation.0=k=1" in out and "violation.1=k=3" in out


def test_zeros(tmp_path, capsys):
    cfg = write_config(tmp_path, "zeros.json", {
        "pairs": [{"b": 2, "p": 2, "t": 3}],
        "word": {"period": [1]},
    })
    code, out = run(capsys, ["zeros", "--config", cfg, "--window", "40"])
    assert code == 0
    assert "status=nonempty" in out
    assert "probe.0.xi=1/3" in out and "probe.0.witness=none" in out


@pytest.mark.parametrize("command,extra", [("zeros", []), ("oracle-search", ["--cap", "4"])])
def test_window_past_the_bound_exits_2(mixed_config, command, extra, capsys):
    code = main([command, "--config", mixed_config, "--window", str(WINDOW_BOUND + 1), *extra])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error=window {WINDOW_BOUND + 1} ") and f"bound is {WINDOW_BOUND}" in err
    # the bound itself is accepted: one witness at k = 0, four sets
    code, out = run(capsys, [command, "--config", mixed_config, "--window", str(WINDOW_BOUND),
                             *extra])
    assert code == 0
    assert ("probe.0.witness=0" if command == "zeros" else "count=4") in out


@pytest.mark.parametrize("window", ["0", "-3"])
def test_zeros_window_below_one_exits_2_before_any_output(mixed_config, quarter_config, window,
                                                          capsys):
    # mixed has a stride-3 letter to probe, quarter none
    for cfg in (mixed_config, quarter_config):
        code = main(["zeros", "--config", cfg, "--window", window])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error=--window must be >= 1")


def test_necessity_depth_below_zero_exits_2(mixed_config, capsys):
    code = main(["necessity", "--config", mixed_config, "--depth", "-4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error=--depth must be >= 0")
    code, out = run(capsys, ["necessity", "--config", mixed_config, "--depth", "0"])
    assert code == 0 and out == "violations=0\n"


def test_alphabet_past_the_bound_exits_2(tmp_path, capsys):
    # one pair past the bound, in the main alphabet and in a rewrite block;
    # m identical non-coprime pairs would list about 1.5 * m**2 violations
    clash = [{"b": 4, "p": 2, "t": 2}] * (ALPHABET_BOUND + 1)
    word = {"period": [1]}
    for data, command in (({"pairs": clash}, "validate"),
                          ({"pairs": [{"b": 4, "p": 2, "t": 1}], "word": word,
                            "rewrite": {"pairs": clash, "word": word, "depth": 1}},
                           "rewrite-check")):
        cfg = write_config(tmp_path, "wide.json", data)
        code = main([command, "--config", cfg])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error=field ") and f"bound is {ALPHABET_BOUND}" in err
    # the bound itself is accepted
    full = {"pairs": [{"b": 4, "p": 2, "t": 1}] * ALPHABET_BOUND, "word": word}
    cfg = write_config(tmp_path, "full.json", full)
    code, out = run(capsys, ["validate", "--config", cfg])
    assert code == 0 and out == "ok=true\n"


def test_oracle_search_default_window_past_the_bound_exits_2(tmp_path, capsys):
    # the default window |b|*p*|t| = 1,000,002 is bounded too
    cfg = write_config(tmp_path, "wide.json", {"pairs": [{"b": 500001, "p": 2, "t": 1}]})
    code = main(["oracle-search", "--config", cfg, "--cap", "1"])
    assert code == 2
    assert f"bound is {WINDOW_BOUND}" in capsys.readouterr().err


def test_round_trip_preserves_decisions(mixed_config, tmp_path, capsys):
    from moranspec.cli import load_config
    config, word, _ = load_config(mixed_config)
    dumped = write_config(tmp_path, "again.json", {
        "pairs": [{"b": str(p.b), "p": str(p.p), "t": str(p.t)} for p in config.pairs],
        "word": {"preperiod": [str(x) for x in word.preperiod],
                 "period": [str(x) for x in word.period]},
    })
    _, first = run(capsys, ["classify", "--config", mixed_config])
    _, second = run(capsys, ["classify", "--config", dumped])
    assert first == second


def test_sample_ft_past_the_float_range(tmp_path, quarter_config, capsys):
    # 4**512 = 2**1024 overflows a double: the product stops before that
    # stage, so depth 600 samples exactly what depth 511 does
    csv = {}
    for depth in (511, 600):
        out_path = tmp_path / f"ft{depth}.csv"
        code, out = run(capsys, ["sample-ft", "--config", quarter_config,
                                 "--depth", str(depth), "--grid", "16", "--window", "1",
                                 "--out", str(out_path)])
        assert code == 0 and "rows=17" in out
        csv[depth] = out_path.read_text()
    assert csv[600] == csv[511]
    halves = write_config(tmp_path, "halves.json", {
        "pairs": [{"b": 2, "p": 2, "t": 1}], "word": {"period": [1]}})
    code, out = run(capsys, ["sample-ft", "--config", halves, "--depth", "1100",
                             "--grid", "4", "--window", "1", "--out", str(tmp_path / "h.csv")])
    assert code == 0 and "rows=5" in out


@pytest.mark.parametrize("argv", [
    ["classify", "--depth", "5"],
    ["validate", "--grid", "4"],
    ["two-stage", "--cap", "3"],
    ["tile", "--out", "x.csv"],
    ["spectrum", "--grid", "4"],
    ["verify", "--window", "3"],
    ["qcheck", "--cap", "3"],
    ["zeros", "--depth", "3"],
    ["rewrite-check", "--grid", "4"],
    ["oracle-search", "--depth", "3"],
    ["necessity", "--out", "x.csv"],
    ["validate", "--word", ";1"],
    ["two-stage", "--word", ";1"],
    ["tile", "--word", ";1"],
    ["oracle-search", "--word", ";1"],
])
def test_flags_a_command_does_not_read_are_rejected(quarter_config, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", quarter_config])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "spectrum", "verify", "qcheck", "zeros",
                                     "sample-ft", "rewrite-check", "necessity"])
def test_a_command_that_reads_a_word_takes_word_and_needs_one(tmp_path, command, capsys):
    assert build_parser().parse_args([command, "--config", "c.json", "--word", ";1"]).word == ";1"
    wordless = write_config(tmp_path, "wordless.json", {"pairs": [{"b": 4, "p": 2, "t": 1}]})
    assert main([command, "--config", wordless]) == 2
    assert capsys.readouterr() == ("", "error=this command needs a word (config 'word' or "
                                       "--word)\n")


@pytest.mark.parametrize("command", ["qcheck", "sample-ft"])
def test_grid_below_one_exits_2(quarter_config, tmp_path, command, capsys):
    out_path = tmp_path / "ft.csv"
    extra = ["--out", str(out_path)] if command == "sample-ft" else []
    code = main([command, "--config", quarter_config, "--grid", "0", *extra])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out_path.exists()


def test_sample_ft_negative_grid_exits_2(quarter_config, tmp_path):
    # a negative step used to sample without end; a subprocess with a timeout
    # turns a hang into a failure
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "moranspec.cli", "sample-ft", "--config", quarter_config,
         "--grid", "-1", "--out", str(tmp_path / "ft.csv")],
        capture_output=True, text=True, timeout=20, env=env)
    assert done.returncode == 2
    assert done.stderr.startswith("error=") and "--grid" in done.stderr


def cli_lines(argv, doc):
    """Exit code, stdout lines and stderr of main on argv with doc as its config."""
    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = main([*argv, "--config", write_config(Path(tmp), "c.json", doc)])
    return code, out.getvalue().splitlines(), err.getvalue()


def pairs_doc(pairs, word):
    """The config document of (b, p, t) triples and a word."""
    return {"pairs": [{"b": b, "p": p, "t": t} for b, p, t in pairs],
            "word": {"preperiod": list(word.preperiod), "period": list(word.period)}}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_spectrum_prints_the_reference_sumset(data):
    pairs = data.draw(st.lists(admissible_letters(st.integers(1, 4), st.integers(1, 7)),
                               min_size=1, max_size=3))
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 6))
    code, lines, _ = cli_lines(["spectrum", "--depth", str(depth)], pairs_doc(pairs, word))
    reference = shifted_partner_tower(cfg, word, depth, 0, 0, by=0)
    assert code == 0
    assert lines == [
        f"depth={depth}", f"count={tower_size(cfg, word, depth)}",
        "points=" + " ".join(f"{x}/1" for x in reference.nums)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_prints_the_reference_verdict(data):
    # a stage that is not admissible exits 2 by name; otherwise the verdict
    # lines are the pairwise reference's on the reference truncation, and
    # merged atoms would read reason=cardinality there
    letter = st.one_of(admissible_letters(st.integers(1, 3), st.integers(1, 5)),
                       st.tuples(SIGNED_B, st.sampled_from((2, 3)), SIGNED_T))
    pairs = data.draw(st.lists(letter, min_size=1, max_size=3))
    cfg = SystemConfig.of(*pairs)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 5))
    assume(tower_size(cfg, word, depth) <= 64)
    code, lines, err = cli_lines(["verify", "--depth", str(depth)], pairs_doc(pairs, word))
    stages = [cfg.pair(word.letter(n)) for n in range(1, depth + 1)]
    bad = [n for n, pr in enumerate(stages, start=1) if not is_admissible(pr.b, pr.p, pr.t)]
    if bad:
        pr = stages[bad[0] - 1]
        assert code == 2 and lines == []
        assert err == (f"error=stage {bad[0]} = (b={pr.b}, p={pr.p}, t={pr.t}) "
                       "is not admissible\n")
        return
    meas = reference_truncate(cfg, word, depth)
    ok, reason, offending = reference_verdict(
        meas, shifted_partner_tower(cfg, word, depth, 0, 0, by=0), cfg, word, depth)
    expected = [f"ok={str(ok).lower()}"] + [f"reason={reason}"] * (reason is not None)
    if offending is not None:
        expected.append(f"offending={fmt_rational(offending)}")
    assert code == 0 and lines[:-1] == expected
    assert lines[-1].startswith("unitarity_residual=")


@settings(max_examples=60, deadline=None)
@given(st.one_of(coprime_alphabets(), st.lists(PROBE_LETTERS, min_size=1, max_size=3)),
       st.data())
def test_zeros_prints_the_reference_status_and_probes(letters, data):
    # a violating alphabet prints validate's report; a coprime one prints the
    # letter-by-letter status and, per letter with |t| != 1, the witness of
    # the per-translate walk at 1/|t|
    cfg = SystemConfig.of(*letters)
    word = data.draw(words_over(cfg.m))
    window = data.draw(st.integers(1, 40))
    code, lines, _ = cli_lines(["zeros", "--window", str(window)], pairs_doc(letters, word))
    violations = listed_violations(cfg)
    if violations:
        assert code == 2
        assert lines == ["ok=false"] + [f"violation.{i}={v}" for i, v in enumerate(violations)]
        return
    status = reference_zero_set_status(cfg, word)
    expected = [f"status={status.status}", f"reason={status.reason}"]
    strides = [abs(cfg.pair(l).t) for l in sorted(word.letters()) if abs(cfg.pair(l).t) != 1]
    for i, t in enumerate(strides):
        witness = per_translate_probe(cfg, word, Fraction(1, t), window)
        expected += [f"probe.{i}.xi=1/{t}",
                     f"probe.{i}.witness={'none' if witness is None else witness}"]
    assert code == 0 and lines == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(SIGNED_LETTERS, min_size=1, max_size=4), st.data())
def test_necessity_prints_the_restated_condition(letters, data):
    # k < depth is listed when p_k does not divide t_{k+1} and p_{k+1} does
    # not divide b_{k+1} t_k
    cfg = SystemConfig.of(*letters)
    word = data.draw(words_over(cfg.m))
    depth = data.draw(st.integers(0, 12))
    code, lines, _ = cli_lines(["necessity", "--depth", str(depth)], pairs_doc(letters, word))
    stages = [cfg.pair(word.letter(n)) for n in range(1, depth + 1)]
    listed = [(k, nxt) for k, (here, nxt) in enumerate(zip(stages, stages[1:]), start=1)
              if nxt.t % here.p and nxt.b * here.t % nxt.p]
    assert code == 0 and lines == [f"violations={len(listed)}"] + [
        f"violation.{i}=k={k}: p_{{k+1}}={nxt.p} does not divide "
        f"b_{{k+1}}*t_k = {nxt.b}*{stages[k - 1].t}" for i, (k, nxt) in enumerate(listed)]


# (-10**400, 5, 4)^oo: at depth 6 its 15,625 tower points have spans of
# 7,971 bits and its atoms 6,648, past the sumset bit bound; at depth 5 the
# 3,125 values of 6,642 and 5,320 bits are not
WIDE = {"pairs": [{"b": str(-10**400), "p": 5, "t": 4}], "word": {"period": [1]},
        "rewrite": {"pairs": [{"b": str(-10**400), "p": 5, "t": 4}], "word": {"period": [1]},
                    "depth": 1}}


@pytest.mark.parametrize("command", ["spectrum", "rewrite-check"])
def test_sums_past_the_bit_bound_exit_2(command):
    # spectrum --depth 6 built and printed 36 MB of points (about 2 s and
    # 160 MB); both now stop before any point or atom is built
    code, lines, err = cli_lines([command, "--depth", "6"], WIDE)
    assert code == 2 and lines == []
    assert err.startswith("error=sumset needs 15625 values of ")
    assert err.endswith(f"bound is {SUMSET_BIT_BOUND} bits\n")
    code, lines, _ = cli_lines([command, "--depth", "5"], WIDE)
    assert code == 0
    assert ("count=3125" if command == "spectrum" else "atoms=3125") in lines


@pytest.mark.parametrize("argv", [["spectrum", "--depth", "30"],
                                  ["qcheck", "--depth", "1100"]])
def test_tower_past_the_atom_cap_exits_2_quickly(quarter_config, argv, capsys):
    # 2**30 and 2**1100 tower points; the tower stops before 2**20
    started = time.perf_counter()
    code = main([*argv, "--config", quarter_config])
    assert time.perf_counter() - started < 5.0
    assert code == 2
    assert f"cap is {DEFAULT_ATOM_CAP}" in capsys.readouterr().err


def test_sample_ft_past_the_row_cap_exits_2(quarter_config, tmp_path, capsys):
    out_path = tmp_path / "ft.csv"
    started = time.perf_counter()
    code = main(["sample-ft", "--config", quarter_config, "--window", "1000000",
                 "--out", str(out_path)])
    assert time.perf_counter() - started < 5.0
    assert code == 2
    assert f"cap is {DEFAULT_ATOM_CAP}" in capsys.readouterr().err
    assert not out_path.exists()


def test_necessity_past_the_stage_cap_exits_2_quickly(tmp_path, capsys):
    # one stage past the cap; each stage is a list entry and up to one report line
    cfg = write_config(tmp_path, "nec.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}], "word": {"period": [1]}})
    started = time.perf_counter()
    code = main(["necessity", "--config", cfg, "--depth", str(DEFAULT_ATOM_CAP + 1)])
    assert time.perf_counter() - started < 5.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and f"cap is {DEFAULT_ATOM_CAP}" in captured.err


@pytest.mark.parametrize("command", ["tile", "two-stage"])
def test_two_stage_tiling_past_the_fragment_cap_exits_2_quickly(tmp_path, command, capsys):
    # t2 | t1 with p1 * t1/t2 one and two past the cap; t2 not dividing t1 is
    # decided by its residue whatever p1 is
    big = {"b": 5, "p": DEFAULT_ATOM_CAP + 1, "t": 1}
    wide = {"b": 5, "p": 2, "t": DEFAULT_ATOM_CAP + 1}
    for first, second in ((big, {"b": 3, "p": 3, "t": 1}), (wide, {"b": 2, "p": 2, "t": 1})):
        cfg = write_config(tmp_path, "two.json", {"pairs": [first, second]})
        started = time.perf_counter()
        code = main([command, "--config", cfg])
        assert time.perf_counter() - started < 5.0
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and f"cap is {DEFAULT_ATOM_CAP}" in captured.err
    cfg = write_config(tmp_path, "two.json", {"pairs": [{"b": 5, "p": 10**7, "t": 3},
                                                        {"b": 2, "p": 2, "t": 2}]})
    code, out = run(capsys, [command, "--config", cfg])
    assert code == 0 and "tiles=false" in out and "residue=1" in out


def test_tile_at_the_fragment_cap_finishes_quickly(tmp_path):
    # p1 = 10**6 blocks with t1 = t2 merge into one: about 18 s and 413 MB
    # when every block and fragment was a Fraction
    cfg = write_config(tmp_path, "cap.json", {"pairs": [{"b": 5, "p": DEFAULT_ATOM_CAP, "t": 1},
                                                        {"b": 3, "p": 3, "t": 1}]})
    done = run_cli(["tile", "--config", cfg], timeout=5)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["tiles=true", "support=0/1 200000/1", "digits=0/1",
                                        "period=200000/1"]


def test_tile_with_blocks_apart_at_the_fragment_cap_finishes_quickly(tmp_path):
    # p1 = 5*10**5 blocks two units apart stay apart: 9-13 s when the support
    # was printed through an IntervalUnion of 10**6 Fraction endpoints
    cfg = write_config(tmp_path, "apart.json", {"pairs": [{"b": 5, "p": 5 * 10**5, "t": 2},
                                                          {"b": 3, "p": 3, "t": 1}]})
    done = run_cli(["tile", "--config", cfg], timeout=6)
    assert done.returncode == 0, done.stderr
    tiles, support, digits, period = done.stdout.splitlines()
    assert (tiles, digits, period) == ("tiles=true", "digits=0/1 1/5", "period=200000/1")
    ends = support.removeprefix("support=").split()
    assert len(ends) == DEFAULT_ATOM_CAP
    assert ends[:6] == ["0/1", "1/5", "2/5", "3/5", "4/5", "1/1"]
    assert ends[-2:] == ["999998/5", "999999/5"]


def int_str_refusal():
    return f"error=an integer to print is past Python's int-str limit; " \
           f"bound is {sys.get_int_max_str_digits()} digits\n"


def test_spectrum_past_the_int_str_limit_prints_nothing(tmp_path, capsys):
    # the point 10**5000 + 10**2500 has 5,001 digits: depth= and count= were
    # printed before Python's own int-to-str error
    cfg = write_config(tmp_path, "wide.json", {"pairs": [{"b": 10**2500, "p": 2, "t": 1}],
                                               "word": {"period": [1]}})
    assert main(["spectrum", "--config", cfg, "--depth", "2"]) == 2
    assert capsys.readouterr() == ("", int_str_refusal())
    code, out = run(capsys, ["spectrum", "--config", cfg, "--depth", "1"])
    assert code == 0 and out.startswith("depth=1\ncount=2\n")


def test_tile_past_the_int_str_limit_prints_nothing(tmp_path, capsys):
    # the support end and the period are 10**6 * 10**4299/3: tiles=true was
    # printed before Python's own int-to-str error
    wide = 10**4299
    cfg = write_config(tmp_path, "wide.json", {"pairs": [{"b": 3, "p": 10**6, "t": wide},
                                                         {"b": 2, "p": 2, "t": wide}]})
    assert main(["tile", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", int_str_refusal())
    code, out = run(capsys, ["two-stage", "--config", cfg])
    assert code == 0 and "tiles=true" in out


def test_oracle_search_cap_zero_reports_no_sets(quarter_config, capsys):
    code, out = run(capsys, ["oracle-search", "--config", quarter_config, "--cap", "0"])
    assert code == 0 and "count=0" in out and "set.0" not in out


def run_cli(argv, timeout):
    # a subprocess with a timeout turns a hang into a failure
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "moranspec.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


def test_oracle_search_past_the_set_bound_exits_2(tmp_path):
    # (6,6,5) has more than 10^6 partner sets in its default window 180
    cfg = write_config(tmp_path, "six.json", {"pairs": [{"b": 6, "p": 6, "t": 5}],
                                              "word": {"period": [1]}})
    done = run_cli(["oracle-search", "--config", cfg], timeout=30)
    assert done.returncode == 2
    assert done.stderr.startswith("error=") and f"bound is {ORACLE_SET_BOUND}" in done.stderr
    capped = run_cli(["oracle-search", "--config", cfg, "--cap", "3"], timeout=30)
    assert capped.returncode == 0 and "count=3" in capped.stdout


def test_oracle_search_on_a_base_with_six_primes_is_quick(tmp_path):
    # 30030 = 2*3*5*7*11*13: every one of the 30,029 singles is a root sum
    # of order up to 30030, which cyclotomic division made take minutes
    cfg = write_config(tmp_path, "primorial.json", {"pairs": [{"b": 30030, "p": 2, "t": 1}],
                                                    "word": {"period": [1]}})
    done = run_cli(["oracle-search", "--config", cfg, "--window", "30030", "--cap", "4"],
                   timeout=30)
    assert done.returncode == 0, done.stderr
    assert "count=1" in done.stdout and "set.0=0 15015" in done.stdout


def test_oracle_search_on_dead_letters_is_quick(tmp_path):
    # p = 6 does not divide 21/gcd(21, 7): the default window 882 holds 588
    # singles and no partner set, which a search without residue pruning
    # took about 19 s to rule out; (32, 8, 8) and (24, 8, 6) keep more
    # residues in the mask than the digits they need, so a popcount bound
    # alone does not cut them; (2048, 16, 256) keeps 1,792 residues in 7
    # classes mod 8, no two residues of one class compatible, so no 15 are
    # pairwise compatible, which the residue search without its greedy
    # coloring took 79 s to establish
    cfg = write_config(tmp_path, "dead.json", {"pairs": [{"b": 21, "p": 6, "t": 7}],
                                               "word": {"period": [1]}})
    code = ("import sys; from moranspec.cli import main; "
            "from moranspec.oracle import search_compatible_partners as s; "
            f"code = main(['oracle-search', '--config', {cfg!r}]); "
            "print('library', s(32, 8, 8, limit=64), s(24, 8, 6, limit=64), "
            "s(2048, 16, 256, window=2048, limit=64)); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["window=882", "count=0", "library [] [] []"]


def peak_rss_kb(code):
    """The output lines of python -c code and its peak RSS in KiB from process start.

    VmHWM starts with the new program; ru_maxrss also counts the forking
    test process's own peak, which exec carries over.
    """
    done = subprocess.run([sys.executable, "-c", code + "; import re; print(re.search("
                           "r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    *lines, peak = done.stdout.splitlines()
    return lines, int(peak)


def test_oracle_search_on_a_base_with_six_primes_stays_small(tmp_path):
    # one rotated residue mask per residue would hold 30030^2 bits (about 113 MB)
    cfg = write_config(tmp_path, "primorial.json", {"pairs": [{"b": 30030, "p": 2, "t": 1}],
                                                    "word": {"period": [1]}})
    _, search = peak_rss_kb("from moranspec.cli import main; "
                            f"main(['oracle-search', '--config', {cfg!r}, "
                            "'--window', '30030', '--cap', '4'])")
    assert search - peak_rss_kb("import moranspec")[1] < 20 * 1024


def read_rows(path):
    return [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("data,depth,grid,window", [
    ({"pairs": [{"b": 4, "p": 2, "t": 1}], "word": {"period": [1]}}, 20, 64, 4),
    (NEG, 12, 16, 3),
    (NEG, 40, 4, 3),
    ({"pairs": [{"b": 4, "p": 2, "t": 1}], "word": {"period": [1]}}, 600, 16, 1),
])
def test_sample_ft_matches_a_per_row_reference(tmp_path, capsys, data, depth, grid, window):
    # rows are evaluated in batches, which may round differently from one
    # mu_hat_eval call per row in the last bits; 64 eps bounds the difference
    cfg = write_config(tmp_path, "c.json", data)
    out_path = tmp_path / "ft.csv"
    code, out = run(capsys, ["sample-ft", "--config", cfg, "--depth", str(depth),
                             "--grid", str(grid), "--window", str(window),
                             "--out", str(out_path)])
    rows = read_rows(out_path)
    assert code == 0 and len(rows) == window * grid + 1
    config = SystemConfig.of(*[(p["b"], p["p"], p["t"]) for p in data["pairs"]])
    word = SymbolicWord(tuple(data["word"].get("preperiod", ())), tuple(data["word"]["period"]))
    tol = 64 * np.finfo(float).eps
    for i, (x, re, im, mag) in enumerate(rows):
        assert x == i / grid
        val, _ = mu_hat_eval(config, word, x, depth)
        assert abs(re - val.real) <= tol and abs(im - val.imag) <= tol, (i, x)
        assert abs(mag - abs(val)) <= tol, (i, x)


def test_sample_ft_one_row_past_the_block_matches_one_call_bitwise(tmp_path, quarter_config, capsys):
    # MU_HAT_BLOCK + 1 rows split into two blocks, neither of one row, and
    # print exactly what one unblocked call gives
    grid = MU_HAT_BLOCK
    out_path = tmp_path / "ft.csv"
    code, out = run(capsys, ["sample-ft", "--config", quarter_config, "--depth", "8",
                             "--grid", str(grid), "--window", "1", "--out", str(out_path)])
    assert code == 0 and f"rows={MU_HAT_BLOCK + 1}" in out
    xs = np.arange(MU_HAT_BLOCK + 1) / grid
    vals = mu_hat_many(SystemConfig.of((4, 2, 1)), SymbolicWord.constant(1), xs, 8)
    assert read_rows(out_path) == [[x, v.real, v.imag, abs(v)]
                                   for x, v in zip(xs.tolist(), vals.tolist())]


def test_sample_ft_with_a_million_digits_finishes_quickly(tmp_path):
    # 65 rows of (10**6, 10**6, 1) at depth 1: about 7 s as 10**6 exponentials
    # per row, a fraction of a second with the Dirichlet quotient
    cfg = write_config(tmp_path, "wide.json", {"pairs": [{"b": 10**6, "p": 10**6, "t": 1}],
                                               "word": {"period": [1]}})
    out_path = tmp_path / "ft.csv"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "moranspec.cli", "sample-ft", "--config", cfg, "--depth", "1",
         "--grid", "64", "--window", "1", "--out", str(out_path)],
        capture_output=True, text=True, timeout=3, env=env)
    assert done.returncode == 0, done.stderr
    assert "rows=65" in done.stdout
    rows = read_rows(out_path)
    assert len(rows) == 65 and rows[0][1:] == [1.0, 0.0, 1.0]
    assert max(mag for *_, mag in rows) <= 1 + 1e-12


def test_sample_ft_depth_below_one_exits_2(quarter_config, tmp_path, capsys):
    out_path = tmp_path / "ft.csv"
    code = main(["sample-ft", "--config", quarter_config, "--depth", "0",
                 "--out", str(out_path)])
    assert code == 2
    assert "--depth" in capsys.readouterr().err
    assert not out_path.exists()


def test_verify_at_the_atom_bound_stays_small(quarter_config):
    # the depth-12 tower of (4, 2, 1) has 4,096 points; its 8.4 million
    # pairwise differences held in one array peaked at about 110 MB
    report, peak = peak_rss_kb("from moranspec.cli import main; "
                               f"main(['verify', '--config', {quarter_config!r}, '--depth', '12'])")
    assert report == ["ok=true", "unitarity_residual=5.8698555113523209e-12"]
    assert peak < 80 * 1024


def test_spectrum_at_depth_19_stays_small(quarter_config):
    # the 2**19-point tower built as a list of Python integers and printed
    # through Fraction views peaked at 177 MB and took about 5 s
    report, peak = peak_rss_kb("from moranspec.cli import main; "
                               f"main(['spectrum', '--config', {quarter_config!r}, '--depth', '19'])")
    assert report[:2] == ["depth=19", "count=524288"]
    assert report[2].startswith("points=0/1 2/1 8/1 10/1 ")
    assert peak < 130 * 1024


def test_rewrite_check_at_depth_15_stays_small(tmp_path):
    # 559,872 atoms merged through a dict of Python integers peaked at 125 MB
    # from process start; their integer sumset merged into runs takes about 82 MB
    cfg = write_config(tmp_path, "rw.json", {
        "pairs": [{"b": 4, "p": 2, "t": 1}, {"b": 6, "p": 3, "t": 1}],
        "rewrite": {"pairs": [{"b": 4, "p": 2, "t": 1}], "word": {"period": [1]}, "depth": 1}})
    report, peak = peak_rss_kb("from moranspec.cli import main; "
                               f"main(['rewrite-check', '--config', {cfg!r}, "
                               "'--word', ';1,2', '--depth', '15'])")
    assert report == ["equal=false", "left_depth=15", "right_depth=1", "atoms=559872"]
    assert peak < 105 * 1024


def test_verify_output_does_not_depend_on_blas_threads(tmp_path):
    cfg = write_config(tmp_path, "neg.json", NEG)
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-m", "moranspec.cli", "verify", "--config", cfg, "--depth", "6"],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert "ok=true" in outs[0]
    assert outs[0] == outs[1]


def test_qcheck_past_the_work_bound_exits_2_quickly(quarter_config):
    # 256 x 2**19 x 19 stage evaluations: about 1.8 minutes of work
    env = {**os.environ, "PYTHONPATH": SRC}
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "moranspec.cli", "qcheck", "--config", quarter_config,
         "--depth", "19"],
        capture_output=True, text=True, timeout=30, env=env)
    assert time.perf_counter() - started < 10.0
    assert done.returncode == 2
    assert f"bound is {QCHECK_WORK_BOUND}" in done.stderr


def limit_address_space():
    # a failed allocation then raises MemoryError instead of touching memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_qcheck_at_depth_zero_counts_one_stage_in_the_work_bound(quarter_config):
    # grid x points x depth was 0 at depth 0, so any grid passed the bound
    # and 10**12 grid points failed to allocate 7.28 TiB (exit 1)
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "moranspec.cli", "qcheck", "--config", quarter_config,
         "--depth", "0", "--grid", str(10**12)],
        capture_output=True, text=True, timeout=30, env=env, preexec_fn=limit_address_space)
    assert done.returncode == 2, done.stderr
    assert f"bound is {QCHECK_WORK_BOUND}" in done.stderr
    small = run_cli(["qcheck", "--config", quarter_config, "--depth", "0", "--grid", "4"],
                    timeout=30)
    assert small.returncode == 0 and "max_deviation=0" in small.stdout


def test_qcheck_builds_its_grid_one_block_at_a_time(quarter_config):
    # the whole grid of 10**7 points as one array held about 150 MB
    _, search = peak_rss_kb("from moranspec.cli import main; "
                            f"main(['qcheck', '--config', {quarter_config!r}, "
                            "'--depth', '1', '--grid', '10000000'])")
    assert search - peak_rss_kb("import moranspec.cli")[1] < 40 * 1024


@pytest.mark.parametrize("window", [-1, -3])
def test_sample_ft_negative_window_exits_2(quarter_config, tmp_path, window, capsys):
    out_path = tmp_path / "ft.csv"
    code = main(["sample-ft", "--config", quarter_config, "--window", str(window),
                 "--out", str(out_path)])
    assert code == 2
    assert "--window" in capsys.readouterr().err
    assert not out_path.exists()


def test_oracle_search_past_the_digit_bound_exits_2(tmp_path):
    # the partner search nests one frame per digit: p = 1,000 used to exit 1
    # with a RecursionError, and the bound itself finishes in about a second
    def pair(b, p):
        return write_config(tmp_path, f"o{b}-{p}.json", {"pairs": [{"b": b, "p": p, "t": 1}],
                                                       "word": {"period": [1]}})
    bound = ORACLE_DIGIT_BOUND
    past = run_cli(["oracle-search", "--config", pair(1000, 1000), "--window", "1000",
                    "--cap", "1"], timeout=30)
    assert past.returncode == 2
    assert past.stderr.startswith("error=") and f"bound is {bound}" in past.stderr
    at = run_cli(["oracle-search", "--config", pair(bound, bound), "--window", str(bound),
                  "--cap", "1"], timeout=10)
    assert at.returncode == 0, at.stderr
    assert "count=1" in at.stdout
    # more digits than |b| leave no partner set and no nesting
    wide = run_cli(["oracle-search", "--config", pair(4, 10**6), "--window", "4"], timeout=30)
    assert wide.returncode == 0, wide.stderr
    assert wide.stdout.splitlines() == ["window=4", "count=0"]


@given(st.one_of(st.integers(-10**30, 10**30).map(Fraction),
                 st.fractions(max_denominator=10**30)),
       st.lists(st.integers(-10**40, 10**40)))
def test_fmt_multiples_is_fmt_rational_of_each_multiple(unit, ks):
    # denominator 1 (spectrum's towers) skips the gcd; above 1 (tile) does not
    assert fmt_multiples(unit, ks) == " ".join(fmt_rational(k * unit) for k in ks)


def reference_fmt(x):
    return format(float(x), ".17g")


def reference_row(x, re, im, mod):
    """A sample-ft row as one f-string per row wrote it."""
    return f"{reference_fmt(x)},{reference_fmt(re)},{reference_fmt(im)},{reference_fmt(mod)}\n"


def reference_csv(config, word, depth, grid, window):
    rows = window * grid + 1
    xs = np.arange(rows) / grid
    text = ["x,re,im,abs\n"]
    for block in np.array_split(xs, max(1, math.ceil(rows / MU_HAT_BLOCK))):
        vals = mu_hat_many(config, word, block, depth)
        text += [reference_row(x, v.real, v.imag, abs(v))
                 for x, v in zip(block.tolist(), vals.tolist())]
    return "".join(text)


stage_pairs = st.tuples(st.integers(2, 40).flatmap(lambda m: st.sampled_from([m, -m])),
                        st.integers(2, 40),
                        st.integers(1, 9).flatmap(lambda m: st.sampled_from([m, -m])))


@settings(max_examples=30, deadline=None)
@given(stages=st.lists(stage_pairs, min_size=1, max_size=3),
       period=st.integers(1, 3),
       depth=st.one_of(st.integers(1, 40), st.just(600)),
       size=st.one_of(st.tuples(st.integers(1, 64), st.integers(0, 4)),
                      st.tuples(st.integers(MU_HAT_BLOCK - 2, MU_HAT_BLOCK + 8), st.just(1))))
@example(stages=[(4, 2, 1)], period=1, depth=8, size=(256, 0))  # --window 0: the row at x = 0
def test_sample_ft_csv_matches_the_per_row_writer_byte_for_byte(stages, period, depth, size):
    grid, window = size
    letters = [1 + i % len(stages) for i in range(period)]
    data = {"pairs": [{"b": b, "p": p, "t": t} for b, p, t in stages],
            "word": {"period": letters}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "c.json", data)
        out_path = Path(tmp) / "ft.csv"
        code = main(["sample-ft", "--config", cfg, "--depth", str(depth), "--grid", str(grid),
                     "--window", str(window), "--out", str(out_path)])
        assert code == 0
        got = out_path.read_text()
    assert got == reference_csv(SystemConfig.of(*stages), SymbolicWord((), tuple(letters)),
                                depth, grid, window)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats(), st.floats()),
                min_size=1, max_size=8))
@example([(0.0, -0.0, 5e-324, 5e-324), (-0.0, 1e-17, -1.2345678901234567e300,
                                        1.2345678901234567e300)])
def test_the_csv_row_template_is_the_per_row_writer(rows):
    # -0, subnormals, exponents, inf and nan format as one f-string per row did;
    # the four cells of a row are drawn apart, so abs covers every float it can hold
    cells = tuple(c for row in rows for c in row)
    assert CSV_ROW * len(rows) % cells == "".join(reference_row(*row) for row in rows)
    assert [fmt_float(c) for c in cells] == [reference_fmt(c) for c in cells]


# 10**400 + 1 is past the float range, as is 10**400
HUGE = 10**400 + 1


def float_range_config(tmp_path, b, t):
    return write_config(tmp_path, "huge.json", {"pairs": [{"b": str(b), "p": 2, "t": str(t)}],
                                                "word": {"period": [1]}})


@pytest.mark.parametrize("command", ["qcheck", "verify", "sample-ft"])
def test_a_stage_ratio_past_the_float_range_exits_2_before_any_output(tmp_path, capsys, command):
    # t_1/b_1 = (10**400 + 1)/4 has no float value
    out_path = tmp_path / "ft.csv"
    extra = ["--out", str(out_path)] if command == "sample-ft" else []
    code = main([command, "--config", float_range_config(tmp_path, 4, HUGE), "--depth", "1",
                 *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error=stage 1:") and f"bound is {FLOAT_BOUND!r}" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["qcheck", "verify"])
def test_a_point_past_the_float_range_exits_2_before_any_output(tmp_path, capsys, command):
    # the canonical partner of (10**400, 2, 1) is {0, 5 * 10**399}
    code = main([command, "--config", float_range_config(tmp_path, 10**400, 1), "--depth", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error=a point") and f"bound is {FLOAT_BOUND!r}" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--depth", "2"],
                                  ["qcheck", "--depth", "2", "--grid", "4"]])
def test_a_stage_argument_past_the_float_range_exits_2_before_any_output(tmp_path, argv):
    # t_1/b_1 = 5 * 10**307 is a float, but pi * p * 3 * t_1/b_1 is not: the
    # stage cosine was nan, so verify printed unitarity_residual=nan and qcheck
    # max_deviation=0, both with exit 0 and numpy warnings on stderr
    done = run_cli([argv[0], "--config", float_range_config(tmp_path, 2, 10**308 + 1),
                    *argv[1:]], timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == [
        "error=stage 1: pi p_1 max|x| |t_1/(b_1...b_1)| is past the float range; "
        f"bound is {FLOAT_BOUND!r}"]


def test_sample_ft_refuses_a_stage_argument_past_the_float_range_before_its_file(tmp_path):
    # t_1/b_1 = 4 * 10**307: pi * 2 * x * t_1/b_1 passes the float range from
    # x = 0.72 on, and the stage cosine was nan from x = 1.43 on; the first of
    # the three blocks of x = 0..2 reaches neither
    out_path = tmp_path / "ft.csv"
    done = run_cli(["sample-ft", "--config", float_range_config(tmp_path, 2, 8 * 10**307 + 1),
                    "--depth", "1", "--grid", "4096", "--window", "2", "--out", str(out_path)],
                   timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error=stage 1: pi p_1 max|x|")
    assert not out_path.exists()


def test_a_base_past_the_float_range_keeps_its_stage(tmp_path, capsys):
    # b = 6 (10**400 + 1) and t = 10**400 + 1: t/b = 1/6, the tower is {0, 3}, and
    # the stage mask at 3 is cos(pi/2), so Q is 1 and the residual is a rounding
    cfg = float_range_config(tmp_path, 6 * HUGE, HUGE)
    code, out = run(capsys, ["verify", "--config", cfg, "--depth", "1"])
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 0 and report["ok"] == "true"
    assert float(report["unitarity_residual"]) < 1e-15
    code, out = run(capsys, ["qcheck", "--config", cfg, "--depth", "1"])
    assert code == 0 and float(dict(line.split("=", 1) for line in out.splitlines())
                               ["max_deviation"]) < 1e-15
    csv_path = tmp_path / "ft.csv"
    code, _ = run(capsys, ["sample-ft", "--config", cfg, "--depth", "1", "--grid", "1",
                           "--window", "3", "--out", str(csv_path)])
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert code == 0 and [float(r[0]) for r in rows] == [0, 1, 2, 3]
    assert float(rows[3][3]) < 1e-15


def per_point_qcheck_error(cfg, word, depth, grid):
    """The error text of qcheck's per-point path, or None when it completes.

    The path checks the stage list, then the work bound, builds the tower's
    points and sums q_function over them, MU_HAT_BLOCK grid x points at a time.
    """
    try:
        stages = tower_stages(cfg, word, depth, DEFAULT_ATOM_CAP)
        work = grid * math.prod(pr.p for pr, _, _ in stages) * max(1, depth)
        if work > QCHECK_WORK_BOUND:
            return (f"qcheck needs {work} stage evaluations (grid x points x depth, "
                    f"depth at least 1); bound is {QCHECK_WORK_BOUND}")
        cand = build_tower_spectrum(cfg, word, depth)
        rows = max(1, MU_HAT_BLOCK // len(cand))
        for i in range(0, grid, rows):
            q_function(cfg, word, depth, cand, np.arange(i, min(i + rows, grid)) / grid)
    except ValueError as exc:
        return str(exc)
    return None


# the letters of the float-range tests above and WIDE's, past the sumset bit bound from depth 6
WIDE_LETTER, ONE = (-10**400, 5, 4), SymbolicWord.constant(1)
FLOAT_RANGE_LETTERS = st.sampled_from([(4, 2, HUGE), (10**400, 2, 1), (2, 2, 10**308 + 1),
                                       (6 * HUGE, 2, HUGE), (2, 2, 8 * 10**307 + 1),
                                       WIDE_LETTER])


def letters_and_words(letter):
    """Alphabets of one to three letters with a word over each."""
    return st.lists(letter, min_size=1, max_size=3).flatmap(
        lambda letters: st.tuples(st.just(letters), words_over(len(letters))))


@settings(max_examples=60, deadline=None)
@given(letters_and_words(st.one_of(st.tuples(SIGNED_B, st.sampled_from((2, 3)), SIGNED_T),
                                   admissible_letters(st.integers(1, 3), st.integers(1, 5)),
                                   FLOAT_RANGE_LETTERS)),
       st.integers(0, 8), st.integers(1, 64))
@example(([WIDE_LETTER], ONE), 8, 64)  # the work bound
@example(([WIDE_LETTER], ONE), 8, 1)  # the sumset bit bound
@example(([(4, 2, HUGE)], ONE), 1, 4)  # a stage ratio past the float range
def test_qcheck_refuses_as_the_per_point_path_or_prints_q_within_its_bound(system, depth, grid):
    letters, word = system
    cfg = SystemConfig.of(*letters)
    code, lines, err = cli_lines(["qcheck", "--depth", str(depth), "--grid", str(grid)],
                                 pairs_doc(letters, word))
    error = per_point_qcheck_error(cfg, word, depth, grid)
    if error is not None:
        assert (code, lines, err) == (2, [], f"error={error}\n")
        return
    assert code == 0 and err == ""
    assert lines[:2] == [f"depth={depth}", f"grid={grid}"] and len(lines) == 3
    key, value = lines[2].split("=")
    stages = tower_stages(cfg, word, depth, DEFAULT_ATOM_CAP)
    assert key == "max_deviation" and float(value) <= tower_q_bound(stages, 1.0)
