import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_name_the_readme_cites_exists():
    # `module.NAME` or `module.NAME(...)` for a moranspec module; a constant
    # moved to another module must take its README reference along
    modules = {path.stem for path in (ROOT / "src" / "moranspec").glob("*.py")}
    cited = {(module, name) for module, name in re.findall(
        r"`(\w+)\.(\w+)[`(]", (ROOT / "README.md").read_text(encoding="utf-8"))
        if module in modules}
    assert cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"moranspec.{module}"), name)]
    assert missing == []


@pytest.mark.parametrize("script,argv,closing", [
    ("two_stage_sweep.py", ["--pmax", "3", "--bmax", "3", "--tmax", "3", "--out", "out.csv"],
     "flag disagreements: 0"),
    ("admissibility_sweep.py", ["--bmax", "4", "--pmax", "3", "--tmax", "3", "--out", "out.csv"],
     "agree everywhere"),
    ("classify_family.py", ["--max-pre", "1", "--max-per", "1"], "-- spectral:"),
])
def test_script_runs_to_its_closing_line(tmp_path, script, argv, closing):
    # run in tmp_path, so the CSVs land there
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert closing in done.stdout.splitlines()[-1]


@pytest.mark.parametrize("k", [1, 2])
def test_classify_family_count_matches_its_closed_form(k):
    # the docstring: for k = 1 all words but the 2^R - 1 words u 2^oo, u a
    # nonempty preperiod ending in 1, are spectral; for k >= 2 every word is
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "classify_family.py"),
                           "--max-pre", "3", "--max-per", "3", "--k", str(k)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    *rows, closing = done.stdout.splitlines()
    not_spectral = 2**3 - 1 if k == 1 else 0
    assert closing == f"-- spectral: {len(rows) - not_spectral}"
    assert sum(row.endswith("NotSpectral [Pi_l]") for row in rows) == not_spectral


def test_code_lines_lists_every_module_and_sums_them():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *rows, closing = [line.split() for line in done.stdout.splitlines()]
    assert [name for name, _ in rows] == sorted(
        path.name for path in (ROOT / "src" / "moranspec").glob("*.py"))
    assert all(int(count) > 0 for _, count in rows)
    assert closing == ["total", str(sum(int(count) for _, count in rows))]


def test_code_lines_unreached_lists_what_no_command_reaches():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), "--unreached"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *rows, closing = [line.split() for line in done.stdout.splitlines()]
    names = [name for name, _ in rows]
    # only tests call the paper-lemma helper; oracle-search counts the partner sets
    assert "spectra.extract_tail_spectrum" in names
    assert "oracle.iter_compatible_partners" not in names
    assert closing == ["total", str(sum(int(count) for _, count in rows))]


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_reaches_methods_only_through_attributes(tmp_path, monkeypatch):
    # a local named like a method is no caller of it, and neither is an
    # attribute of an object that is not a module for a module-level name
    (tmp_path / "cli.py").write_text(
        "from . import measure\n\n\n"
        "def main(obj):\n"
        "    weights = obj.scale\n"
        "    return measure.total(weights) + obj.points()\n")
    (tmp_path / "measure.py").write_text(
        "class Measure:\n"
        "    def weights(self):\n        return 1\n\n"
        "    def points(self):\n        return 2\n\n\n"
        "def total(x):\n    return x\n\n\n"
        "def scale(x):\n    return 2 * x\n")
    code_lines = load_code_lines()
    monkeypatch.setattr(code_lines, "SRC", tmp_path)
    assert [key for key, _ in code_lines.unreached()] == [
        "measure.Measure", "measure.Measure.weights", "measure.scale"]


# Each definition that `code_lines.py --unreached` lists, with what keeps it
# (ROADMAP item 12): a benchmark hook (a name perfbench/ reads), the oracle, an
# acceptance criterion, a README example, an open ROADMAP item, or the listed
# definition that calls it.  A definition with none of these is deleted.
UNREACHED_REASONS = {
    "classifier.ZeroSetProbe.conclusive": "benchmark hook: perfbench/workloads.py",
    "exactmath.cyclotomic_polynomial": "benchmark hook: perfbench/worker.py's cache counters",
    "exactmath.over_common_denominator": "reached through spectra.SpectrumCandidate.finite",
    "hadamard.canonical_dual_digits": "benchmark hook: perfbench/tracer.py",
    "hadamard.is_compatible_pair": "ROADMAP item 1: the period triple's Hadamard check",
    "measure.StagePair.digits": "benchmark hook: perfbench/workloads.py",
    "measure.SystemConfig.of": "README example",
    "measure.SymbolicWord.constant": "README example",
    "measure.SymbolicWord.shift": "acceptance criterion 7: the tail word",
    "measure.float_quotients": "reached through measure.DiscreteMeasure.fourier_many",
    "measure.DiscreteMeasure.from_dict": "README example: a rational constructor",
    "measure.DiscreteMeasure.point_mass": "README example: a rational constructor",
    "measure.DiscreteMeasure.points": "reached through spectra.weighted_matrix_residual",
    "measure.DiscreteMeasure.weights": "reached through spectra.weighted_matrix_residual",
    "measure.DiscreteMeasure.atoms": "benchmark hook: perfbench/tracer.py",
    "measure.DiscreteMeasure.fourier_many": "oracle: oracle.search_spectra",
    "measure.mask_zero_contains": "benchmark hook: perfbench/workloads.py",
    "measure.zero_set_contains": "benchmark hook: perfbench/tracer.py",
    "measure.mu_hat_eval": "ROADMAP item 4: its tail bound",
    "measure.support_hull": "ROADMAP item 6",
    "measure.scale_digits": "ROADMAP item 16",
    "oracle._cliques": "oracle",
    "oracle.search_compatible_partners": "oracle",
    "oracle._truncation_zero": "oracle",
    "oracle.search_spectra": "oracle",
    "oracle.RigidityReport": "oracle",
    "oracle.weighted_mean_rigidity": "oracle",
    "spectra.SpectrumCandidate.finite": "benchmark hook: perfbench/workloads.py",
    "spectra.SpectrumCandidate.points": "acceptance criterion 7",
    "spectra.default_lattice_modulus": "acceptance criterion 7",
    "spectra.weighted_matrix_residual": "benchmark hook: perfbench/tracer.py",
    "spectra.q_function": "benchmark hook: perfbench/tracer.py",
    "spectra.Decomposition": "acceptance criterion 7",
    "spectra.decompose_spectrum": "acceptance criterion 7",
    "spectra.extract_tail_spectrum": "acceptance criterion 7",
    "tiling.IntervalUnion": "acceptance criterion 1: a tile's support",
    "tiling.IntervalUnion.__post_init__": "acceptance criterion 1: a tile's support",
    "tiling.two_stage_support": "benchmark hook: perfbench/tracer.py",
    "tiling.tiles_by_periodic_set": "benchmark hook: perfbench/tracer.py",
    "tiling.TileDecision.support": "acceptance criterion 1",
    "tiling.TileDecision.digits": "acceptance criterion 1",
}


def test_every_unreached_definition_has_a_reason():
    rows = {key for key, _ in load_code_lines().unreached()}
    assert sorted(rows - UNREACHED_REASONS.keys()) == []   # no reason: delete it
    assert sorted(UNREACHED_REASONS.keys() - rows) == []   # names no unreached definition
    form = re.compile(r"(benchmark hook|oracle|acceptance criterion \d+|README example"
                      r"|ROADMAP item \d+|reached through [\w.]+)(: .+)?")
    assert [reason for reason in UNREACHED_REASONS.values() if not form.fullmatch(reason)] == []


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "NotSpectral" in capsys.readouterr().out


def test_qcheck_rates_times_one_small_tower():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "qcheck_rates.py"),
                           "--tower", "3:2", "--tower", f"{2**64},2,{2**64 + 1}:1",
                           "--repeat", "2", "--work", "200000"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["letter", "depth", "grid", "work", "seconds", "rate_M_per_s"]
    # the largest grid within the work: 200,000 // (3**2 * 2) and 200,000 // 2
    assert [row[:4] for row in rows] == [["3,3,1", "2", "11111", "199998"]] * 2 + [
        [f"{2**64},2,{2**64 + 1}", "1", "100000", "200000"]] * 2
    assert all(float(row[4]) < 30 for row in rows)


def test_verify_paths_prints_one_row_per_case():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "verify_paths.py"),
                           "--letter", "4,2,1", "--depth", "4"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["case", "points", "path", "ok", "residual", "seconds", "peak_rss_mb"]
    # the translate by 1/3 takes the tower path; the moved point and the
    # random points are no tower
    assert [row[:4] for row in rows] == [["tower", "16", "tower", "true"],
                                         ["third", "16", "tower", "true"],
                                         ["moved", "16", "pairwise", "false"],
                                         ["random", "16", "pairwise", "false"]]
    # a spectrum's residual is exactly 0; the others' are of order 1
    assert rows[0][4] == rows[1][4] == "0.000e+00" and min(float(rows[2][4]),
                                                           float(rows[3][4])) > 0.1
    assert all(float(row[5]) < 30 and 0 < float(row[6]) < 1024 for row in rows)


def test_verify_paths_marks_the_refused_cases():
    # depth 13 of (4, 2, 1): 8,192 points, past the atom bound on the
    # pairwise path; the tower path has no bound of its own, so depth 17's
    # tower and translate verify.  Depth 9 of (10**350, 2, 1): 512 points,
    # whose differences pass the atom bound by their width alone; the random
    # points' differences are narrow, but weigh as the widest stage modulus
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "verify_paths.py"),
                           "--letter", "10^350,2,1", "--depth", "9"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert [line.split()[:4] for line in done.stdout.splitlines()[1:]] == [
        ["tower", "512", "tower", "true"], ["third", "512", "tower", "true"],
        ["moved", "512", "pairwise", "refused"], ["random", "512", "pairwise", "refused"]]
    rows = {}
    for depth in (13, 17):
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "verify_paths.py"),
                               "--letter", "4,2,1", "--depth", str(depth)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        rows[depth] = [line.split()[:5] for line in done.stdout.splitlines()[1:]]
    assert [row[:4] for row in rows[13]] == [["tower", "8192", "tower", "true"],
                                             ["third", "8192", "tower", "true"],
                                             ["moved", "8192", "pairwise", "refused"],
                                             ["random", "8192", "pairwise", "refused"]]
    assert rows[17] == [["tower", "131072", "tower", "true", "0.000e+00"],
                        ["third", "131072", "tower", "true", "0.000e+00"],
                        ["moved", "131072", "pairwise", "refused", "-"],
                        ["random", "131072", "pairwise", "refused", "-"]]


def test_probe_rates_prints_one_row_per_word_and_window():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "probe_rates.py"),
                           "--window", "200", "--repeat", "2"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["word", "xi", "window", "witness", "seconds", "translates_per_s"]
    assert [row[:4] for row in rows] == [["witness", "1/3", "200", "0"],
                                         ["near", "5", "200", "-5"],
                                         ["none", "1/3", "200", "none"]]
    assert all(0 < float(row[4]) < 30 for row in rows)


def test_decide_rates_prints_one_row_per_alphabet_and_mode():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "decide_rates.py"),
                           "--repeat", "2"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["alphabet", "mode", "spectral", "divisibility", "pi_l",
                      "seconds", "us_per_word"]
    # 297 canonical words each; the counts follow from the alphabets' letters
    counts = {"spectral": ["297", "0", "0"], "divisibility": ["3", "294", "0"],
              "pi_l": ["55", "237", "5"]}
    # then one row of root sums: the (m, digits, class) inputs of decide's partner
    # searches, 1,283 of them, 186 vanishing
    assert [row[:5] for row in rows] == [[name, mode, *counts[name]]
                                         for name in counts for mode in ("fresh", "reused")] + [
        ["root_sums", "partner", "186", "1097", "0"]]
    assert len(rows) == 7 and all(0 < float(row[5]) < 30 for row in rows)


def test_sample_ft_rates_prints_one_row_per_shape():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "sample_ft_rates.py"),
                           "--repeat", "2", "--cap", "5000"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["shape", "depth", "grid", "window", "rows", "ms", "us_per_row"]
    assert [row[:5] for row in rows] == [["mixed", "20", "256", "4", "1025"],
                                         ["overflow", "600", "16", "1", "17"],
                                         ["cap", "20", "4999", "1", "5000"]]
    assert all(0 < float(row[5]) < 30000 for row in rows)
