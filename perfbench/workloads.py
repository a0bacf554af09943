"""Seeded operations for the three benchmark workloads.

Each workload is a fixed *cycle* of operations.  The sizes, depths, grids
and windows of the slots in a cycle are constants of this file; the seed only
chooses which systems (bases, strides, letter orders) fill the slots, so the
cost of a cycle does not depend on the seed.  Every operation returns what its
check needs, and ``Op.check`` returns ``None`` when the output is right or a
short message when it is not.

Library calls go through module attributes (``measure.truncate(...)``), never
through names bound at import, so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Optional

from moranspec import classifier, cli, hadamard, measure, oracle, spectra
from moranspec.measure import StagePair, SymbolicWord, SystemConfig


class OpError(RuntimeError):
    """An operation that did not complete: it raised or the CLI exited non-zero."""


@dataclass
class Op:
    """One timed unit of work and the independent check of its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    cycle: list[Op]
    warmup: list[Op]


# Two-letter alphabets with digit counts 2 and 3.  Every base is coprime to
# its stride and at least twice its digit count, so towers never collide and
# the number of distinct differences depends on the letter counts alone.
# Base products stay below 2**30 at depth 8, so all points are one-digit
# Python integers whatever the seed picks.
_BASES = {2: (4, 8, 10), 3: (6, 9, 12)}
_STRIDES = (1, 5, 7, 11, 13)


def _two_letter_system(rng: random.Random, twos: int, threes: int) -> tuple[SystemConfig, SymbolicWord, int]:
    """A coprime admissible alphabet and a word whose first twos+threes letters
    hold `twos` copies of the p=2 letter and `threes` of the p=3 letter."""
    while True:
        t2, t3 = rng.sample(_STRIDES, 2)
        b2, b3 = rng.choice(_BASES[2]), rng.choice(_BASES[3])
        if all(v == 1 or (b2 % v and b3 % v) for v in (t2, t3)):
            break
    config = SystemConfig.of((b2, 2, t2), (b3, 3, t3))
    letters = [1] * twos + [2] * threes
    rng.shuffle(letters)
    return config, SymbolicWord(tuple(letters), (rng.choice((1, 2)),)), len(letters)


# ---------------------------------------------------------------- certify --

# (count per cycle, p=2 letters, p=3 letters, moved): atom count 2**a * 3**c.
# Sorted by cost the 40 slots form plateaus: the median falls in the middle
# of the 144-atom slots (ranks 13-26) and the 90th percentile in the middle
# of the 288-atom slots (ranks 33-39), so neither quantile sits on a boundary
# between sizes.
CERTIFY_SLOTS = (
    (4, 6, 0, False),   # 64 atoms
    (2, 3, 2, False),   # 72
    (2, 3, 2, True),    # 72, one point moved
    (2, 0, 4, False),   # 81
    (2, 0, 4, True),    # 81, one point moved
    (14, 4, 2, False),  # 144
    (6, 3, 3, False),   # 216
    (7, 5, 2, False),   # 288
    (1, 3, 4, False),   # 648
)


def _certify_op(config: SystemConfig, word: SymbolicWord, k: int, moved_at: Optional[int]) -> Op:
    expected = 1
    for n in range(1, k + 1):
        expected *= config.pair(word.letter(n)).p

    def run():
        meas = measure.truncate(config, word, k)
        cand = spectra.build_tower_spectrum(config, word, k)
        if moved_at is not None:
            # 1 is never a tower point (every point is a multiple of b1/p1 >= 2)
            # and 1 - 0 hits no stage zero set, so orthogonality must fail.
            pts = list(cand.points)
            pts[moved_at % (len(pts) - 1) + 1] = Fraction(1)
            cand = spectra.SpectrumCandidate.finite(pts)
        return meas, cand, spectra.verify_spectrum_finite(meas, cand, config, word, k)

    def check(out) -> Optional[str]:
        meas, cand, ver = out
        if len(meas.atoms) != expected or len(cand.points) != expected:
            return f"certify: {len(meas.atoms)} atoms, {len(cand.points)} points, expected {expected}"
        if moved_at is None:
            return None if ver.ok else f"certify: tower rejected ({ver.reason})"
        if ver.ok or ver.reason != "orthogonality":
            return f"certify: moved tower gave ok={ver.ok} reason={ver.reason}"
        off = Fraction(ver.offending)
        pts = set(cand.points)
        if off == 0 or not any(x + off in pts for x in pts):
            return f"certify: offending {off} is not a nonzero difference of the candidate"
        base = 1
        for n in range(1, k + 1):
            pr = config.pair(word.letter(n))
            base *= pr.b
            if measure.mask_zero_contains(pr.p, pr.t, off / base):
                return f"certify: offending {off} is a zero of stage {n}"
        return None

    kind = "certify.moved" if moved_at is not None else f"certify.{expected}"
    return Op(kind, run, check)


def build_certify(rng: random.Random, tmp: Path) -> Workload:
    cycle = []
    for count, twos, threes, moved in CERTIFY_SLOTS:
        for _ in range(count):
            config, word, k = _two_letter_system(rng, twos, threes)
            cycle.append(_certify_op(config, word, k, rng.randrange(1 << 30) if moved else None))
    rng.shuffle(cycle)
    warm = random.Random(0)
    warmup = [_certify_op(*_two_letter_system(warm, 4, 2), None),
              _certify_op(*_two_letter_system(warm, 3, 2), 1)]
    return Workload(cycle, warmup)


# ----------------------------------------------------------------- decide --

DECIDE_CYCLE = 150      # distinct systems per cycle
DECIDE_MAX_PRE = 2      # classify every word up to these lengths
DECIDE_MAX_PER = 3
DECIDE_TUPLES = 12      # two-stage parameter tuples per op
DECIDE_EXTRA_STAGES = 3  # partner searches beyond the alphabet's own letters
DECIDE_SEARCH_LIMIT = 64
DECIDE_PROBE_WINDOW = 200
DECIDE_PREFIX = 24      # necessity horizon + 1

# Strides coprime to every digit count used below (2..5), and to each other.
_DECIDE_STRIDES = (7, 11, 13)


def _words(letters: int, max_pre: int, max_per: int) -> list[SymbolicWord]:
    seen = set()
    for r in range(max_pre + 1):
        for pre in product(range(1, letters + 1), repeat=r):
            for s in range(1, max_per + 1):
                for per in product(range(1, letters + 1), repeat=s):
                    seen.add(SymbolicWord(pre, per))
    return sorted(seen, key=str)


def _closed_form(config: SystemConfig, word: SymbolicWord) -> tuple[str, Optional[str]]:
    """Kind and clause from the classification stated in the classifier docstring."""
    r, s = len(word.preperiod), len(word.period)
    for n in range(2, r + s + 2):
        pr = config.pair(word.letter(n))
        if abs(pr.b) % pr.p:
            return "NotSpectral", "divisibility"
    if r >= 1 and s == 1:
        pr = config.pair(word.period[0])
        if abs(pr.b) == pr.p and abs(pr.t) != 1:
            return "NotSpectral", "Pi_l"
    return "Spectral", None


def _decide_system(rng: random.Random) -> SystemConfig:
    """Three coprime letters: a unit-stride head, a letter with |b| = p and a
    non-unit stride (its constant word has a nonempty integral zero set), and
    a free letter that may break p | b."""
    t2, t3 = rng.sample(_DECIDE_STRIDES, 2)
    p1, p2, p3 = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((2, 3, 4, 5))
    return SystemConfig.of((p1 * rng.randint(1, 4), p1, 1),
                           (p2, p2, t2),
                           (rng.randint(2, 16), p3, t3))


def _decide_op(rng: random.Random, words: list[SymbolicWord]) -> Op:
    config = _decide_system(rng)
    main_word = rng.choice([w for w in words if w.preperiod])
    tuples = [(rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 8),
               rng.randint(1, 6), rng.randint(1, 6)) for _ in range(DECIDE_TUPLES)]
    stages = list(config.pairs) + [StagePair(rng.randint(4, 16), rng.randint(2, 4), rng.randint(1, 5))
                                   for _ in range(DECIDE_EXTRA_STAGES)]
    zero_words = [SymbolicWord.constant(l) for l in (1, 2, 3)] + [main_word]
    strides = sorted({abs(pr.t) for pr in config.pairs if abs(pr.t) != 1})
    prefix = [config.pair(main_word.letter(n)) for n in range(1, DECIDE_PREFIX + 1)]

    def run():
        violations = classifier.validate_config(config)
        verdicts = [classifier.decide_spectrality(config, w) for w in words]
        two = [classifier.two_stage_decide(*tup) for tup in tuples]
        partners = [(hadamard.is_admissible(st.b, st.p, st.t),
                     oracle.search_compatible_partners(st.b, st.p, st.t, limit=DECIDE_SEARCH_LIMIT))
                    for st in stages]
        canon = [hadamard.is_compatible_pair(st.b, st.digits(), hadamard.canonical_dual_digits(st.b, st.p, st.t))
                 for st, (adm, _) in zip(stages, partners) if adm]
        zeros = [(classifier.integral_zero_set_status(config, w),
                  [classifier.integral_zero_set_probe(config, w, Fraction(1, t), DECIDE_PROBE_WINDOW)
                   for t in strides])
                 for w in zero_words]
        necessity = classifier.necessity_violations(prefix, DECIDE_PREFIX - 1)
        return violations, verdicts, two, partners, canon, zeros, necessity

    def check(out) -> Optional[str]:
        violations, verdicts, two, partners, canon, zeros, necessity = out
        if violations:
            return f"decide: coprime alphabet reported violations {violations}"
        for w, v in zip(words, verdicts):
            if (v.kind, v.clause) != _closed_form(config, w):
                return f"decide: {w} classified {v.kind}/{v.clause}, closed form {_closed_form(config, w)}"
        for (p1, p2, b1, t1, t2), d in zip(tuples, two):
            divides = t1 % t2 == 0
            if not (d.divides == d.spectral == d.tiles == divides):
                return f"decide: two-stage flags disagree at {(p1, p2, b1, t1, t2)}"
            if divides and not d.tiling.certificate.ok:
                return f"decide: tiling certificate failed at {(p1, p2, b1, t1, t2)}"
        for st, (adm, found) in zip(stages, partners):
            if bool(found) != adm:
                return f"decide: admissibility {adm} but {len(found)} partners for {st}"
        if not all(canon):
            return "decide: a canonical partner failed is_compatible_pair"
        for w, (status, probes) in zip(zero_words, zeros):
            if status.status == "nonempty":
                t = abs(config.pair(w.period[0]).t)
                if probes[strides.index(t)].conclusive:
                    return f"decide: nonempty zero set for {w} but probe at 1/{t} found a witness"
        expected = [k for k in range(1, DECIDE_PREFIX)
                    if prefix[k].t % prefix[k - 1].p and (prefix[k].b * prefix[k - 1].t) % prefix[k].p]
        if [v.index for v in necessity] != expected:
            return "decide: necessity violations differ from the stated condition"
        return None

    return Op("decide", run, check)


def build_decide(rng: random.Random, tmp: Path) -> Workload:
    words = _words(3, DECIDE_MAX_PRE, DECIDE_MAX_PER)
    cycle = [_decide_op(rng, words) for _ in range(DECIDE_CYCLE)]
    warm = random.Random(0)
    return Workload(cycle, [_decide_op(warm, words) for _ in range(4)])


# -------------------------------------------------------------- transform --

QCHECK_BOUND = 1e-9     # largest accepted |Q - 1| for a tower at its own depth
ABS_SLACK = 1e-9        # accepted excess of |mu_hat| over 1 in sample-ft rows
OVERFLOW_DEPTH = 600    # every base is >= 4, so b_1...b_600 >= 2**1200

# (count per cycle, command, p=2 letters, p=3 letters, grid, window).
# The depth is twos + threes.  Sorted by cost, the 19 operations that succeed
# form plateaus: the median falls in the middle of the depth-6 qcheck slots
# (ranks 6-15) and the 90th percentile in the middle of the sample-ft slots
# (ranks 16-19).
TRANSFORM_SLOTS = (
    (5, "qcheck", 2, 2, 128, None),
    (10, "qcheck", 6, 0, 256, None),
    (4, "sample-ft", 10, 10, 256, 4),
    (1, "overflow", 0, 0, 16, 1),
)


def _write_config(path: Path, config: SystemConfig, word: SymbolicWord) -> None:
    data = {"pairs": [{"b": pr.b, "p": pr.p, "t": pr.t} for pr in config.pairs],
            "word": {"preperiod": list(word.preperiod), "period": list(word.period)}}
    path.write_text(json.dumps(data), encoding="utf-8")


def _call_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise OpError(f"exit {status}: {err.getvalue().strip()}")
    return out.getvalue()


def _report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _qcheck_op(cfg_path: Path, depth: int, grid: int) -> Op:
    argv = ["qcheck", "--config", str(cfg_path), "--depth", str(depth), "--grid", str(grid)]

    def check(out) -> Optional[str]:
        dev = float(_report(out)["max_deviation"])
        return None if dev <= QCHECK_BOUND else f"qcheck: max_deviation {dev} > {QCHECK_BOUND}"

    return Op("transform.qcheck", lambda: _call_cli(argv), check)


def _sample_op(cfg_path: Path, csv_path: Path, depth: int, grid: int, window: int, kind: str) -> Op:
    argv = ["sample-ft", "--config", str(cfg_path), "--depth", str(depth), "--grid", str(grid),
            "--window", str(window), "--out", str(csv_path)]
    rows_expected = window * grid + 1

    def check(out) -> Optional[str]:
        if _report(out).get("rows") != str(rows_expected):
            return f"sample-ft: reported {_report(out).get('rows')} rows, expected {rows_expected}"
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != rows_expected:
            return f"sample-ft: CSV has {len(rows)} rows, expected {rows_expected}"
        first = rows[0]
        if float(first["x"]) != 0 or float(first["re"]) != 1 or float(first["im"]) != 0:
            return f"sample-ft: value at x=0 is {first['re']}+{first['im']}i"
        worst = max(float(r["abs"]) for r in rows)
        return None if worst <= 1 + ABS_SLACK else f"sample-ft: |mu_hat| reaches {worst}"

    return Op(kind, lambda: _call_cli(argv), check)


def _transform_ops(rng: random.Random, tmp: Path, slots, tag: str) -> list[Op]:
    ops = []
    for count, command, twos, threes, grid, window in slots:
        for _ in range(count):
            cfg_path = tmp / f"{tag}-{len(ops)}.json"
            csv_path = tmp / f"{tag}-{len(ops)}.csv"
            if command == "overflow":
                _write_config(cfg_path, SystemConfig.of((rng.choice(_BASES[2]), 2, 1)),
                              SymbolicWord.constant(1))
                ops.append(_sample_op(cfg_path, csv_path, OVERFLOW_DEPTH, grid, window,
                                      "transform.overflow"))
                continue
            config, word, depth = _two_letter_system(rng, twos, threes)
            _write_config(cfg_path, config, word)
            if command == "qcheck":
                ops.append(_qcheck_op(cfg_path, depth, grid))
            else:
                ops.append(_sample_op(cfg_path, csv_path, depth, grid, window, "transform.sample-ft"))
    return ops


def build_transform(rng: random.Random, tmp: Path) -> Workload:
    cycle = _transform_ops(rng, tmp, TRANSFORM_SLOTS, "op")
    rng.shuffle(cycle)
    warm = _transform_ops(random.Random(0), tmp, ((1, "qcheck", 6, 0, 64, None),
                                                   (1, "sample-ft", 4, 2, 64, 1)), "warm")
    return Workload(cycle, warm)


WORKLOADS = {"certify": build_certify, "decide": build_decide, "transform": build_transform}


def build(name: str, seed: int, tmp: Path) -> Workload:
    return WORKLOADS[name](random.Random(seed), tmp)
