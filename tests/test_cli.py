import json

import pytest

from moranspec.cli import main, parse_word_text
from moranspec.measure import SymbolicWord


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
