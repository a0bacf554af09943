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
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from . import classifier, measure, oracle, spectra, tiling
from .measure import DEFAULT_ATOM_CAP, StagePair, SymbolicWord, SystemConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_OUT_OF_SCOPE = 2

# grid x tower points x depth stage evaluations allowed in qcheck, depth
# counted as at least one, as a sum point by point would do them: the digit
# tree evaluates fewer, so the bound refuses the same inputs as that sum and
# caps qcheck's time.  The count weighs every factor alike, though each
# argument's grid residue mod grid |B_n| is a Python integer once that
# passes int64: (2**64, 2, 2**64 + 1) at depth 1 takes about 13 s at the
# bound, 0.27 us a residue.  The rates measured at the bound are in the
# README's resource-bound bullet on qcheck, from scripts/qcheck_rates.py
QCHECK_WORK_BOUND = 10**8

# partner sets oracle-search may count when --cap is not given; (6,6,5) has
# more, and stopping one past the bound takes about 0.07 s in process.  It
# holds only the 64 sets it prints, so the count costs time, not memory
ORACLE_SET_BOUND = 100_000

# largest search window zeros and oracle-search accept: a zeros probe sieves
# at most 2 * WINDOW_BOUND + 1 translates, k = 0 and then all in one call
# (about 0.01 s per probe at the bound, two-core Xeon), oracle-search scans
# WINDOW_BOUND candidate differences
WINDOW_BOUND = 10**6

# most stage pairs a config (or its rewrite block) may list; an alphabet of m
# non-coprime pairs has about 1.5 * m**2 hypothesis violations to report
ALPHABET_BOUND = 512

# most bytes a config file may hold, counted before any decoding.  The
# slowest config at the bound is 512 copies of one pair with 244-digit even p
# and t: validate prints its 392,960 violations in about 2.2 s and 250 MB.
# The README's bullet on the bound has the rates
CONFIG_BYTE_BOUND = 2**18

# one decoder for every config: integers stay decimal text, so _as_int reads
# each one under its field
_JSON = json.JSONDecoder(parse_int=str)


class ConfigError(ValueError):
    """Malformed config file or request; reported with the offending field."""


def _as_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"field {field}: expected integer, got boolean")
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            digits, limit = sum(map(str.isdecimal, value)), sys.get_int_max_str_digits()
            if limit and digits > limit:
                raise ConfigError(f"field {field}: {digits} digits is past Python's int-str "
                                  f"limit; bound is {limit} digits")
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
    if len(items) > ALPHABET_BOUND:
        raise ConfigError(f"field {field}: {len(items)} pairs is past the alphabet bound; "
                          f"bound is {ALPHABET_BOUND}")
    pairs = []
    for i, it in enumerate(items):
        if not isinstance(it, dict):
            raise ConfigError(f"field {field}[{i}]: expected an object with b,p,t")
        b, p, t = (_as_int(it.get(key), f"{field}[{i}].{key}") for key in "bpt")
        try:
            pairs.append(StagePair(b, p, t))
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
    """Returns (config, word or None, rewrite block or None).

    The file is read once as bytes, at most CONFIG_BYTE_BOUND + 1 of them,
    and decoded as UTF-8 as text mode would: an invalid byte raises the
    decoder's error, and CRLF and lone CR end lines, as the JSON error's
    line number counts them.  A UTF-8 BOM is refused, as json.loads does.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(CONFIG_BYTE_BOUND + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if len(raw) > CONFIG_BYTE_BOUND:
        raise ConfigError(f"config file is past the byte bound; bound is {CONFIG_BYTE_BOUND} bytes")
    text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    if text.startswith("\ufeff"):  # json.loads refuses it; JSONDecoder.decode would not
        raise ConfigError("config is not valid JSON (line 1): "
                          "Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        data = _JSON.decode(text)
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


def fmt_multiples(unit: Fraction, ks) -> str:
    """fmt_rational of k * unit for each integer k, space-separated, in integers.

    Raises AtomCapExceeded naming Python's int-str limit when an integer to
    print is past it, so a caller that formats first prints nothing.
    """
    n, d = unit.numerator, unit.denominator
    try:
        if d == 1:  # every k * n over 1 is in lowest terms
            return " ".join([f"{k * n}/1" for k in ks])
        return " ".join([f"{k * n // (g := math.gcd(k, d))}/{d // g}" for k in ks])
    except ValueError:  # the one error formatting an int raises
        raise measure.AtomCapExceeded(f"an integer to print is past Python's int-str limit; "
                                      f"bound is {sys.get_int_max_str_digits()} digits") from None


# one float field, 17 significant digits; '%.17g' % x is format(x, '.17g')
FLOAT_SPEC = "%.17g"

# a sample-ft CSV row: x, re, im, abs
CSV_ROW = ",".join([FLOAT_SPEC] * 4) + "\n"


def fmt_float(x: float) -> str:
    return FLOAT_SPEC % float(x)


def emit(key: str, value) -> None:
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, Fraction):
        text = fmt_rational(value)
    elif isinstance(value, float):
        text = fmt_float(value)
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
    return _emit_verdict(classifier.decide_spectrality(config, word))


def cmd_two_stage(config, word, rewrite, args) -> int:
    dec = classifier.two_stage_decide(*_two_stage_params(config))
    emit("divides", dec.divides)
    emit("spectral", dec.spectral)
    emit("tiles", dec.tiles)
    if dec.residue is not None:
        emit("residue", dec.residue)
    return EXIT_OK


def cmd_spectrum(config, word, rewrite, args) -> int:
    cand = spectra.build_tower_spectrum(config, word, args.depth)
    points = fmt_multiples(Fraction(1, cand.den), cand.nums)  # before the first line
    emit("depth", args.depth)
    emit("count", len(cand))
    emit("points", points)
    return EXIT_OK


def cmd_verify(config, word, rewrite, args) -> int:
    meas = measure.truncate(config, word, args.depth, cap=args.cap)
    cand = spectra.build_tower_spectrum(config, word, args.depth)
    ver = spectra.verify_spectrum_finite(meas, cand, config, word, args.depth)
    emit("ok", ver.ok)
    if ver.reason is not None:
        emit("reason", ver.reason)
    if ver.offending is not None:
        emit("offending", ver.offending)
    emit("unitarity_residual", ver.unitarity_residual)
    return EXIT_OK


def cmd_qcheck(config, word, rewrite, args) -> int:
    stages = spectra.tower_stages(config, word, args.depth, DEFAULT_ATOM_CAP)
    points = math.prod(pr.p for pr, _, _ in stages)
    work = args.grid * points * max(1, args.depth)
    if work > QCHECK_WORK_BOUND:
        raise measure.AtomCapExceeded(
            f"qcheck needs {work} stage evaluations (grid x points x depth, "
            f"depth at least 1); bound is {QCHECK_WORK_BOUND}")
    worst = 0.0
    for qs in spectra.tower_q(stages, range(args.grid), args.grid):
        worst = max(worst, float(np.max(np.abs(qs - 1.0))))
    emit("depth", args.depth)
    emit("grid", args.grid)
    emit("max_deviation", worst)
    return EXIT_OK


def _check_window(window: int) -> None:
    if window > WINDOW_BOUND:
        raise ConfigError(f"window {window} is past the window bound; bound is {WINDOW_BOUND}")


def cmd_zeros(config, word, rewrite, args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    _check_window(args.window)
    if config.facts.violations:
        return cmd_validate(config, word, rewrite, args)
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
    dec = tiling.tile_decide(*_two_stage_params(config))
    if dec.unit is None:
        lines = {"residue": dec.residue}
    else:  # all formatted before the first line
        lines = {"support": fmt_multiples(dec.unit, (x for block in dec.blocks for x in block)),
                 "digits": fmt_multiples(dec.unit, range(dec.t)),
                 "period": fmt_multiples(dec.unit, (dec.t * dec.p1,))}
    emit("tiles", dec.tiles)
    for key, text in lines.items():
        emit(key, text)
    return EXIT_OK


def cmd_sample_ft(config, word, rewrite, args) -> int:
    if args.out is None:
        raise ConfigError("sample-ft needs --out PATH for the CSV")
    if args.window < 0:
        raise ConfigError(f"--window must be >= 0, got {args.window}")
    rows = args.window * args.grid + 1
    if rows > DEFAULT_ATOM_CAP:
        raise measure.AtomCapExceeded(
            f"sample-ft needs {rows} rows; cap is {DEFAULT_ATOM_CAP}")
    xs = np.arange(rows) / args.grid
    # near-equal blocks, none of one row unless rows is 1: numpy multiplies
    # a one-element array on its scalar path, which rounds differently
    blocks = np.array_split(xs, max(1, math.ceil(rows / measure.MU_HAT_BLOCK)))
    # evaluated before --out is created, and holding the largest x: a stage
    # ratio or argument past the float range leaves no file
    last = measure.mu_hat_many(config, word, blocks[-1], args.depth)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,re,im,abs\n")
        for i, block in enumerate(blocks):
            vals = (last if i == len(blocks) - 1
                    else measure.mu_hat_many(config, word, block, args.depth))
            # one row of x, re, im, abs per x; np.hypot is libm's hypot, as
            # Python's abs(complex) is, where np.abs can differ in the last bit
            table = np.empty((len(block), 4))
            table[:, 0], table[:, 1], table[:, 2] = block, vals.real, vals.imag
            np.hypot(vals.real, vals.imag, out=table[:, 3])
            fh.write(CSV_ROW * len(block) % tuple(table.ravel().tolist()))
    emit("rows", rows)
    emit("out", args.out)
    return EXIT_OK


def cmd_rewrite_check(config, word, rewrite, args) -> int:
    if rewrite is None:
        raise ConfigError("rewrite-check needs a 'rewrite' block in the config")
    left = measure.truncate(config, word, args.depth, cap=args.cap)
    right = measure.truncate(rewrite["config"], rewrite["word"], rewrite["depth"],
                             cap=args.cap)
    emit("equal", left == right)  # canonical measures: equal fields, equal maps
    emit("left_depth", args.depth)
    emit("right_depth", rewrite["depth"])
    emit("atoms", len(left.nums))
    return EXIT_OK


def cmd_oracle_search(config, word, rewrite, args) -> int:
    pr = config.pairs[0]
    window = args.window if args.window is not None else abs(pr.b) * pr.p * abs(pr.t)
    _check_window(window)
    limit = args.cap if args.cap is not None else ORACLE_SET_BOUND + 1
    # counted as they come: only the printed sets are held
    results = oracle.iter_compatible_partners(pr.b, pr.p, pr.t, window=window, limit=limit)
    shown = list(islice(results, 64))
    count = len(shown) + sum(1 for _ in results)
    if args.cap is None and count > ORACLE_SET_BOUND:
        raise ConfigError(f"oracle-search found more than {ORACLE_SET_BOUND} partner sets "
                          f"in window {window}; bound is {ORACLE_SET_BOUND}, pass --cap")
    emit("window", window)
    emit("count", count)
    for i, res in enumerate(shown):
        emit(f"set.{i}", " ".join(map(str, res)))
    return EXIT_OK


def cmd_necessity(config, word, rewrite, args) -> int:
    # its own depth check, not stage_walk's: necessity reads letters only, and
    # at the 10**6-stage cap a stage walk would form 10**6 growing base products
    if args.depth < 0:
        raise ConfigError(f"--depth must be >= 0, got {args.depth}")
    if args.depth > DEFAULT_ATOM_CAP:
        raise ConfigError(f"necessity needs {args.depth} stages; cap is {DEFAULT_ATOM_CAP}")
    stages = [config.pair(word.letter(n)) for n in range(1, args.depth + 1)]
    violations = classifier.necessity_violations(stages, args.depth - 1)
    emit("violations", len(violations))
    for i, v in enumerate(violations):
        emit(f"violation.{i}", v.message())
    return EXIT_OK


# command -> (handler, {option: default} for the options the handler reads);
# every command also takes --config, and main hands a command that reads
# "word" the --word override or the config word, refusing when there is none
_COMMANDS = {
    "validate": (cmd_validate, {}),
    "classify": (cmd_classify, {"word": None}),
    "two-stage": (cmd_two_stage, {}),
    "spectrum": (cmd_spectrum, {"word": None, "depth": 8}),
    "verify": (cmd_verify, {"word": None, "depth": 8, "cap": DEFAULT_ATOM_CAP}),
    "qcheck": (cmd_qcheck, {"word": None, "depth": 8, "grid": 256}),
    "zeros": (cmd_zeros, {"word": None, "window": 200}),
    "tile": (cmd_tile, {}),
    "sample-ft": (cmd_sample_ft, {"word": None, "depth": 8, "grid": 256, "window": 4, "out": None}),
    "rewrite-check": (cmd_rewrite_check, {"word": None, "depth": 8, "cap": DEFAULT_ATOM_CAP}),
    "oracle-search": (cmd_oracle_search, {"window": None, "cap": None}),
    "necessity": (cmd_necessity, {"word": None, "depth": 8}),
}

_OPTIONS = {
    "word": (str, "word override, 'pre;per'"),
    "depth": (int, "truncation depth"),
    "grid": (int, "samples per unit / grid size"),
    "window": (int, "search or sampling window"),
    "cap": (int, "atom / result cap"),
    "out": (str, "output path for data files"),
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and, by command name, the subparser it hands each command to."""
    parser = argparse.ArgumentParser(
        prog="moranspec",
        description="Exact spectrality decisions for stage-alphabet infinite convolutions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        for option, default in options.items():
            kind, text = _OPTIONS[option]
            sp.add_argument(f"--{option}", type=kind, default=default, help=text)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), through the command's own parser when it can.

    The full parser hands a command's arguments to that command's parser;
    calling it directly skips the full parser's pass.  Anything it leaves
    over, and any argv that does not start with a command, goes to the full
    parser, so usage, help and errors are its own.
    """
    own = _parsers()[1].get(argv[0]) if argv else None
    if own is not None:
        args, rest = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    handler, options = _COMMANDS[args.command]
    try:
        if getattr(args, "grid", 1) < 1:
            raise ConfigError(f"--grid must be >= 1, got {args.grid}")
        config, word, rewrite = load_config(args.config)
        if "word" in options:
            word = _need_word(word if args.word is None else parse_word_text(args.word))
        return handler(config, word, rewrite, args)
    except ValueError as exc:  # ConfigError and AtomCapExceeded included
        print(f"error={exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal-error={exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
