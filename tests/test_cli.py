import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from moranspec.cli import (ORACLE_SET_BOUND, QCHECK_WORK_BOUND, WINDOW_BOUND, main,
                           parse_word_text)
from moranspec.measure import (DEFAULT_ATOM_CAP, MU_HAT_BLOCK, SymbolicWord, SystemConfig,
                               mu_hat_eval, mu_hat_many)
from moranspec.spectra import VERIFY_ATOM_BOUND

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
])
def test_flags_a_command_does_not_read_are_rejected(quarter_config, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", quarter_config])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
