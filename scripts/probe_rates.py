#!/usr/bin/env python3
"""Time the integral zero-set probe with a witness at k = 0, one near it and none.

The witness word is (4,2,3)^oo at xi = 1/3, whose transform is nonzero
there; the near word is (2,2,1)^oo (Lebesgue measure on [0, 1]) at xi = 5,
whose first non-zero translate is 5 - 5 = 0; the none word is (2,2,3)^oo at
xi = 1/3, where every translate 1/3 + k is a zero, so the probe sieves all
2 * window + 1 of them.  Each row gives the word, xi, the window, the
witness, the best seconds of the repeated library calls and the translates
scanned a second (2 * window + 1 when no witness is found, else
2 * |witness| + 1), one row per (word, window).

Usage:
    python3 scripts/probe_rates.py [--window W ...] [--repeat N]
"""

import argparse
import time
from fractions import Fraction

from moranspec.classifier import integral_zero_set_probe
from moranspec.measure import SymbolicWord, SystemConfig

WORDS = (("witness", SystemConfig.of((4, 2, 3)), Fraction(1, 3)),
         ("near", SystemConfig.of((2, 2, 1)), Fraction(5)),
         ("none", SystemConfig.of((2, 2, 3)), Fraction(1, 3)))
WINDOWS = (200, 10**4, 10**6)


def time_probe(config: SystemConfig, xi: Fraction, window: int,
               repeat: int) -> tuple[object, float]:
    """The witness and the best seconds of repeat probes of config's constant word at xi."""
    word = SymbolicWord.constant(1)
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        witness = integral_zero_set_probe(config, word, xi, window).witness
        best = min(best, time.perf_counter() - started)
    return witness, best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--window", type=int, action="append",
                        help="probe window, repeatable; default 200, 10**4 and 10**6")
    parser.add_argument("--repeat", type=int, default=3, help="probes per row, best taken")
    args = parser.parse_args()
    print("word xi window witness seconds translates_per_s")
    for name, config, xi in WORDS:
        for window in args.window or WINDOWS:
            witness, seconds = time_probe(config, xi, window, args.repeat)
            scanned = 2 * window + 1 if witness is None else 2 * abs(witness) + 1
            print(f"{name} {xi} {window} {'none' if witness is None else witness} "
                  f"{seconds:.6f} {scanned / seconds:.0f}", flush=True)


if __name__ == "__main__":
    main()
