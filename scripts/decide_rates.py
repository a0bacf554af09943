#!/usr/bin/env python3
"""Time decide_spectrality over every canonical three-letter word on three alphabets.

The words are the 297 canonical words with preperiod of at most 2 letters
and period of at most 3 over the letters 1, 2, 3, whose facts are computed
before any timing.  The alphabets are coprime:

    spectral      (4,2,1)(6,3,7)(10,5,11): p | b and |b| != p everywhere,
                  so every word is Spectral;
    divisibility  (4,2,1)(3,2,7)(5,3,11): p does not divide b for letters
                  2 and 3, so most words fail the divisibility clause;
    pi_l          (4,2,1)(3,3,7)(7,2,11): letter 2 has |b| = p and stride 7,
                  so its constant tails entered from another letter are Pi_l,
                  and letter 3 fails the divisibility clause.

Each alphabet is decided in two modes: fresh, a new SystemConfig per pass
that has decided nothing yet (its facts and verdicts are built inside the
pass), and reused, one SystemConfig for every pass.  Each row gives the
alphabet, the mode, the counts of Spectral, divisibility and Pi_l verdicts,
the best seconds of one pass over all words, and the microseconds per word.

Usage:
    python3 scripts/decide_rates.py [--repeat N]
"""

import argparse
import time
from collections import Counter
from itertools import product

from moranspec.classifier import decide_spectrality
from moranspec.measure import StagePair, SymbolicWord, SystemConfig

ALPHABETS = (("spectral", ((4, 2, 1), (6, 3, 7), (10, 5, 11))),
             ("divisibility", ((4, 2, 1), (3, 2, 7), (5, 3, 11))),
             ("pi_l", ((4, 2, 1), (3, 3, 7), (7, 2, 11))))


def canonical_words() -> list[SymbolicWord]:
    """The canonical words with preperiod of at most 2 letters and period of at most 3."""
    letters = (1, 2, 3)
    words = {SymbolicWord(pre, per)
             for r in range(3) for pre in product(letters, repeat=r)
             for s in range(1, 4) for per in product(letters, repeat=s)}
    return sorted(words, key=str)


def time_pass(triples, words: list[SymbolicWord], fresh: bool,
              repeat: int) -> tuple[Counter, float]:
    """The verdict counts and the best seconds of repeat passes over the words."""
    pairs = tuple(StagePair(*tr) for tr in triples)
    reused = SystemConfig(pairs)
    best = float("inf")
    for _ in range(repeat):
        config = SystemConfig(pairs) if fresh else reused
        started = time.perf_counter()
        verdicts = [decide_spectrality(config, w) for w in words]
        best = min(best, time.perf_counter() - started)
    return Counter(v.clause or v.kind for v in verdicts), best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=200, help="passes per row, best taken")
    args = parser.parse_args()
    words = canonical_words()
    for w in words:  # each word's facts are computed once, outside the timing
        w.facts
    print("alphabet mode spectral divisibility pi_l seconds us_per_word")
    for name, triples in ALPHABETS:
        for mode in ("fresh", "reused"):
            counts, seconds = time_pass(triples, words, mode == "fresh", args.repeat)
            print(f"{name} {mode} {counts['Spectral']} {counts['divisibility']} "
                  f"{counts['Pi_l']} {seconds:.6f} {seconds / len(words) * 1e6:.3f}", flush=True)


if __name__ == "__main__":
    main()
