"""Batch front end: read a config file, run decisions, emit machine-readable reports.

Config files are JSON with integer fields accepted as numbers or decimal
strings (exactness end-to-end):

    {
      "pairs": [{"b": "12", "p": "2", "t": "1"}, ...],
      "word":  {"preperiod": ["1"], "period": ["2"]},
      "rewrite": {"pairs": [...], "word": {...}, "depth": "1"}
    }

Reports are key=value lines on stdout; rationals print as n/d in lowest
terms, floats with 17 significant digits.  Exit status: 0 completed with a
verdict, 2 out-of-scope or validation failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import classifier, measure, oracle, spectra, tiling
from .measure import StagePair, SymbolicWord, SystemConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_OUT_OF_SCOPE = 2


class ConfigError(ValueError):
    """Malformed config file or request; reported with the offending field."""


def _as_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"field {field}: expected integer, got boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ConfigError(f"field {field}: not a decimal integer: {value!r}")
    raise ConfigError(f"field {field}: expected integer or decimal string")


def parse_word_text(text: str) -> SymbolicWord:
    """Parse 'pre;per' word syntax, e.g. '1,2;3,2' or ';2' for empty preperiod."""
    if ";" not in text:
        raise ConfigError("word must be 'pre;per' with letters comma-separated")
    pre_s, per_s = text.split(";", 1)
    pre = tuple(_as_int(x, "word.preperiod") for x in pre_s.split(",") if x.strip())
    per = tuple(_as_int(x, "word.period") for x in per_s.split(",") if x.strip())
    if not per:
        raise ConfigError("word period must be nonempty")
    return SymbolicWord(pre, per)


def _parse_pairs(items, field: str) -> SystemConfig:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"field {field}: expected a nonempty list of pairs")
    pairs = []
    for i, it in enumerate(items):
        if not isinstance(it, dict):
            raise ConfigError(f"field {field}[{i}]: expected an object with b,p,t")
        try:
            pairs.append(StagePair(_as_int(it.get("b"), f"{field}[{i}].b"),
                                   _as_int(it.get("p"), f"{field}[{i}].p"),
                                   _as_int(it.get("t"), f"{field}[{i}].t")))
        except ValueError as exc:
            raise ConfigError(f"field {field}[{i}]: {exc}")
    return SystemConfig(tuple(pairs))


def _parse_word_obj(obj, field: str) -> SymbolicWord:
    if not isinstance(obj, dict):
        raise ConfigError(f"field {field}: expected an object with preperiod/period")
    pre = tuple(_as_int(x, f"{field}.preperiod") for x in obj.get("preperiod", []))
    per = tuple(_as_int(x, f"{field}.period") for x in obj.get("period", []))
    if not per:
        raise ConfigError(f"field {field}.period: must be nonempty")
    return SymbolicWord(pre, per)


def load_config(path: str):
    """Returns (config, word or None, rewrite block or None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    config = _parse_pairs(data.get("pairs"), "pairs")
    word = _parse_word_obj(data["word"], "word") if "word" in data else None
    rewrite = None
    if "rewrite" in data:
        blk = data["rewrite"]
        if not isinstance(blk, dict):
            raise ConfigError("field rewrite: expected an object")
        rewrite = {
            "config": _parse_pairs(blk.get("pairs"), "rewrite.pairs"),
            "word": _parse_word_obj(blk.get("word"), "rewrite.word"),
            "depth": _as_int(blk.get("depth"), "rewrite.depth"),
        }
    return config, word, rewrite


def fmt_rational(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def emit(key: str, value) -> None:
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, Fraction):
        text = fmt_rational(value)
    elif isinstance(value, float):
        text = fmt_float(value)
    elif isinstance(value, (list, tuple)):
        text = " ".join(fmt_rational(v) if isinstance(v, Fraction) else str(v)
                        for v in value)
    else:
        text = str(value)
    print(f"{key}={text}")


def _need_word(word: Optional[SymbolicWord]) -> SymbolicWord:
    if word is None:
        raise ConfigError("this command needs a word (config 'word' or --word)")
    return word


def _emit_verdict(verdict: classifier.SpectralVerdict) -> int:
    emit("kind", verdict.kind)
    if verdict.clause is not None:
        emit("clause", verdict.clause)
    for key, value in verdict.detail:
        if isinstance(value, tuple):
            for i, v in enumerate(value):
                emit(f"{key}.{i}", v)
        else:
            emit(key, value)
    return EXIT_OUT_OF_SCOPE if verdict.kind == classifier.OUT_OF_SCOPE else EXIT_OK


def _two_stage_params(config: SystemConfig):
    if config.m < 2:
        raise ConfigError("two-stage commands need at least two pairs in the config")
    first, second = config.pairs[0], config.pairs[1]
    if second.b != second.p:
        raise ConfigError(
            f"two-stage commands require pairs[1].b == pairs[1].p "
            f"(tail bases equal the tail digit count), got b={second.b}, p={second.p}")
    if first.b < 2 or first.t < 1 or second.t < 1:
        raise ConfigError("two-stage commands need positive b1, t1, t2")
    return first.p, second.p, first.b, first.t, second.t


def cmd_validate(config, word, rewrite, args) -> int:
    violations = classifier.validate_config(config)
    emit("ok", not violations)
    for i, v in enumerate(violations):
        emit(f"violation.{i}", v)
    return EXIT_OK if not violations else EXIT_OUT_OF_SCOPE


def cmd_classify(config, word, rewrite, args) -> int:
    return _emit_verdict(classifier.decide_spectrality(config, _need_word(word)))


def cmd_two_stage(config, word, rewrite, args) -> int:
    p1, p2, b1, t1, t2 = _two_stage_params(config)
    dec = classifier.two_stage_decide(p1, p2, b1, t1, t2)
    emit("divides", dec.divides)
    emit("spectral", dec.spectral)
    emit("tiles", dec.tiles)
    if dec.residue is not None:
        emit("residue", dec.residue)
    return EXIT_OK


def cmd_spectrum(config, word, rewrite, args) -> int:
    cand = spectra.build_tower_spectrum(config, _need_word(word), args.depth)
    emit("depth", args.depth)
    emit("count", len(cand.points))
    emit("points", [Fraction(p) for p in cand.points])
    return EXIT_OK


def cmd_verify(config, word, rewrite, args) -> int:
    word = _need_word(word)
    meas = measure.truncate(config, word, args.depth, cap=args.cap)
    cand = spectra.build_tower_spectrum(config, word, args.depth)
    ver = spectra.verify_spectrum_finite(meas, cand, config, word, args.depth)
    emit("ok", ver.ok)
    if ver.reason is not None:
        emit("reason", ver.reason)
    if ver.offending is not None:
        emit("offending", Fraction(ver.offending))
    emit("unitarity_residual", ver.unitarity_residual)
    return EXIT_OK


def cmd_qcheck(config, word, rewrite, args) -> int:
    word = _need_word(word)
    cand = spectra.build_tower_spectrum(config, word, args.depth)
    worst = 0.0
    for i in range(args.grid):
        q = spectra.q_function(config, word, args.depth, cand, i / args.grid)
        worst = max(worst, abs(q - 1.0))
    emit("depth", args.depth)
    emit("grid", args.grid)
    emit("max_deviation", worst)
    return EXIT_OK


def cmd_zeros(config, word, rewrite, args) -> int:
    word = _need_word(word)
    violations = classifier.validate_config(config)
    if violations:
        emit("ok", False)
        for i, v in enumerate(violations):
            emit(f"violation.{i}", v)
        return EXIT_OUT_OF_SCOPE
    status = classifier.integral_zero_set_status(config, word)
    emit("status", status.status)
    emit("reason", status.reason)
    probed = 0
    for letter in sorted(word.letters()):
        pr = config.pair(letter)
        if abs(pr.t) == 1:
            continue
        xi = Fraction(1, abs(pr.t))
        probe = classifier.integral_zero_set_probe(config, word, xi, args.window)
        emit(f"probe.{probed}.xi", xi)
        emit(f"probe.{probed}.witness",
             probe.witness if probe.witness is not None else "none")
        probed += 1
    return EXIT_OK


def cmd_tile(config, word, rewrite, args) -> int:
    p1, p2, b1, t1, t2 = _two_stage_params(config)
    dec = tiling.tile_decide(p1, p2, b1, t1, t2)
    emit("tiles", dec.tiles)
    if dec.residue is not None:
        emit("residue", dec.residue)
    if dec.support is not None:
        emit("support", [a for iv in dec.support.intervals for a in iv])
        emit("digits", list(dec.digits))
        emit("period", dec.period)
    return EXIT_OK


def cmd_sample_ft(config, word, rewrite, args) -> int:
    word = _need_word(word)
    if args.out is None:
        raise ConfigError("sample-ft needs --out PATH for the CSV")
    step = Fraction(1, args.grid)
    rows = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,re,im,abs\n")
        x = Fraction(0)
        while x <= args.window:
            val, _ = measure.mu_hat_eval(config, word, float(x), args.depth)
            fh.write(f"{fmt_float(float(x))},{fmt_float(val.real)},"
                     f"{fmt_float(val.imag)},{fmt_float(abs(val))}\n")
            rows += 1
            x += step
    emit("rows", rows)
    emit("out", args.out)
    return EXIT_OK


def cmd_rewrite_check(config, word, rewrite, args) -> int:
    word = _need_word(word)
    if rewrite is None:
        raise ConfigError("rewrite-check needs a 'rewrite' block in the config")
    left = measure.truncate(config, word, args.depth, cap=args.cap)
    right = measure.truncate(rewrite["config"], rewrite["word"], rewrite["depth"],
                             cap=args.cap)
    equal = measure.measures_equal(left, right)
    emit("equal", equal)
    emit("left_depth", args.depth)
    emit("right_depth", rewrite["depth"])
    emit("atoms", len(left.atoms))
    return EXIT_OK


def cmd_oracle_search(config, word, rewrite, args) -> int:
    pr = config.pairs[0]
    window = args.window if args.window is not None else abs(pr.b) * pr.p * abs(pr.t)
    results = oracle.search_compatible_partners(pr.b, pr.p, pr.t, window=window,
                                                limit=args.cap)
    emit("window", window)
    emit("count", len(results))
    for i, res in enumerate(results[:64]):
        emit(f"set.{i}", list(res))
    return EXIT_OK


def cmd_necessity(config, word, rewrite, args) -> int:
    word = _need_word(word)
    stages = [config.pair(word.letter(n)) for n in range(1, args.depth + 1)]
    violations = classifier.necessity_violations(stages, args.depth - 1)
    emit("violations", len(violations))
    for i, v in enumerate(violations):
        emit(f"violation.{i}", v.message())
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "two-stage": cmd_two_stage,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "qcheck": cmd_qcheck,
    "zeros": cmd_zeros,
    "tile": cmd_tile,
    "sample-ft": cmd_sample_ft,
    "rewrite-check": cmd_rewrite_check,
    "oracle-search": cmd_oracle_search,
    "necessity": cmd_necessity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranspec",
        description="Exact spectrality decisions for stage-alphabet infinite convolutions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--word", default=None, help="word override, 'pre;per'")
        sp.add_argument("--depth", type=int, default=8, help="truncation depth")
        sp.add_argument("--grid", type=int, default=256, help="samples per unit / grid size")
        sp.add_argument("--window", type=int, default=None, help="search or sampling window")
        sp.add_argument("--out", default=None, help="output path for data files")
        sp.add_argument("--cap", type=int, default=None, help="atom / result cap")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cap is None and args.command in ("verify", "rewrite-check"):
        args.cap = measure.DEFAULT_ATOM_CAP
    if args.window is None and args.command in ("zeros",):
        args.window = 200
    if args.window is None and args.command == "sample-ft":
        args.window = 4
    handler = _COMMANDS[args.command]
    try:
        config, word, rewrite = load_config(args.config)
        if args.word is not None:
            word = parse_word_text(args.word)
        return handler(config, word, rewrite, args)
    except ValueError as exc:  # ConfigError and AtomCapExceeded included
        print(f"error={exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal-error={exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
