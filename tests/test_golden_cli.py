"""Byte-for-byte golden output of every CLI command on fixed configs.

Each case runs ``cli.main`` in-process from a scratch working directory and
compares the exit code, stdout and stderr (and, for ``sample-ft``, the CSV)
with the files under ``tests/golden/``.  Paths in argv are relative so the
recorded output does not depend on where the test runs.

To re-record after an intended output change: ``python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from moranspec.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "quarter": {"pairs": [{"b": 4, "p": 2, "t": 1}], "word": {"period": [1]}},
    "mixed": {"pairs": [{"b": "4", "p": "2", "t": "1"}, {"b": "2", "p": "2", "t": "3"}],
              "word": {"preperiod": ["1"], "period": ["2"]}},
    "two": {"pairs": [{"b": 5, "p": 2, "t": 6}, {"b": 3, "p": 3, "t": 2}]},
    "rw": {"pairs": [{"b": "12", "p": "2", "t": "1"}, {"b": "2", "p": "3", "t": "4"},
                     {"b": "6", "p": "2", "t": "1"}],
           "word": {"preperiod": ["1", "2"], "period": ["3", "2"]},
           "rewrite": {"pairs": [{"b": "12", "p": "6", "t": "1"}],
                       "word": {"period": ["1"]}, "depth": "2"}},
    "nec": {"pairs": [{"b": 4, "p": 2, "t": 1}, {"b": 9, "p": 2, "t": 3}],
            "word": {"period": [1, 2]}},
    "zeros": {"pairs": [{"b": 2, "p": 2, "t": 3}], "word": {"period": [1]}},
    # negative bases and strides on a coprime, admissible alphabet
    "neg": {"pairs": [{"b": -4, "p": 2, "t": -1}, {"b": -6, "p": 3, "t": 5}],
            "word": {"preperiod": [1], "period": [2, 1]}},
    # p_1 = 2 shares a factor with t_1 = 6 and t_2 = 4: out of scope
    "nocop": {"pairs": [{"b": 12, "p": 2, "t": 6}, {"b": 8, "p": 2, "t": 4}],
              "word": {"preperiod": [2], "period": [1]}},
}

# (case name, argv after "--config <name>.json")
_PER_CONFIG = [
    ("validate", []),
    ("classify", []),
    ("spectrum", ["--depth", "3"]),
    ("verify", ["--depth", "4"]),
    ("qcheck", ["--depth", "3", "--grid", "16"]),
    ("zeros", ["--window", "12"]),
    ("sample-ft", ["--depth", "12", "--grid", "8", "--window", "2", "--out", "ft.csv"]),
    ("oracle-search", ["--window", "24", "--cap", "16"]),
    ("necessity", ["--depth", "5"]),
]

CASES = [(f"{cfg}-{cmd}", cmd, cfg, extra)
         for cfg in ("quarter", "mixed", "neg", "nocop", "nec")
         for cmd, extra in _PER_CONFIG]
CASES += [
    ("two-two-stage", "two-stage", "two", []),
    ("two-tile", "tile", "two", []),
    ("mixed-two-stage", "two-stage", "mixed", []),
    ("mixed-tile", "tile", "mixed", []),
    ("quarter-two-stage", "two-stage", "quarter", []),
    ("neg-tile", "tile", "neg", []),
    ("zeros-zeros", "zeros", "zeros", ["--window", "40"]),
    ("rw-rewrite-check", "rewrite-check", "rw", ["--depth", "4"]),
    ("rw-rewrite-check-unequal", "rewrite-check", "rw", ["--depth", "3"]),
    ("rw-validate", "validate", "rw", []),
    ("quarter-rewrite-check", "rewrite-check", "quarter", []),
    ("rw-verify-cap", "verify", "rw", ["--depth", "4", "--cap", "10"]),
    ("rw-spectrum-inadmissible", "spectrum", "rw", ["--depth", "3"]),
    ("two-classify-wordless", "classify", "two", []),
    ("mixed-word-override", "classify", "mixed", ["--word", ";2"]),
    ("quarter-sample-ft-no-out", "sample-ft", "quarter", []),
    ("missing-config", "validate", "missing", []),
    ("neg-verify-deep", "verify", "neg", ["--depth", "6"]),
    ("neg-sample-ft-deep", "sample-ft", "neg",
     ["--depth", "40", "--grid", "4", "--window", "3", "--out", "ft.csv"]),
]


def run_case(workdir: Path, command: str, config: str, extra: list[str]) -> dict[str, str]:
    """Run one CLI call in workdir; returns the transcript and the CSV if written."""
    for name, data in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    csv_path = workdir / "ft.csv"
    if csv_path.exists():
        csv_path.unlink()
    argv = [command, "--config", f"{config}.json", *extra]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {"txt": (f"$ moranspec {' '.join(argv)}\nexit={code}\n"
                     f"[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}")}
    if csv_path.exists():
        files["csv"] = csv_path.read_text(encoding="utf-8")
    return files


@pytest.mark.parametrize("name,command,config,extra", CASES, ids=[c[0] for c in CASES])
def test_golden_cli(tmp_path, name, command, config, extra):
    files = run_case(tmp_path, command, config, extra)
    expected = sorted(p.suffix[1:] for p in GOLDEN.glob(f"{name}.*"))
    assert sorted(files) == expected
    for suffix, text in files.items():
        assert text == (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8"), suffix


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, config, extra in CASES:
            for suffix, text in run_case(Path(tmp), command, config, extra).items():
                (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8")
    sys.exit(0)
