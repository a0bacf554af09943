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

A last row, root_sums partner, times digit_sum_vanishes over the inputs the
benchmark's decide partner searches draw from: |b| = m in 2..16, the digits
{0, t, ..., (p-1)t} for p in 2..min(5, m) and t in 1..5, 7, 11, 13, and one
residue r per class gcd(m, t*r), the first one, as
oracle.search_compatible_partners takes them.  Its count columns are the
vanishing sums, the others, and 0; its last column is microseconds per sum.

Usage:
    python3 scripts/decide_rates.py [--repeat N]
"""

import argparse
import time
from collections import Counter
from itertools import product
from math import gcd

from moranspec.classifier import decide_spectrality
from moranspec.exactmath import digit_sum_vanishes
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


def partner_sums() -> list[tuple[int, tuple[int, ...], int]]:
    """(m, digits, r) for every class of every partner search the decide workload can make."""
    out = []
    for m in range(2, 17):
        for p in range(2, min(5, m) + 1):
            for t in (1, 2, 3, 4, 5, 7, 11, 13):
                digits = tuple(j * t for j in range(p))
                classes = set()
                for r in range(m):
                    if (g := gcd(m, t * r)) not in classes:
                        classes.add(g)
                        out.append((m, digits, r))
    return out


def time_sums(sums, repeat: int) -> tuple[int, float]:
    """The number of vanishing sums and the best seconds of repeat passes over them."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        vanish = [digit_sum_vanishes(m, digits, r) for m, digits, r in sums]
        best = min(best, time.perf_counter() - started)
    return sum(vanish), best


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
    sums = partner_sums()
    vanishing, seconds = time_sums(sums, args.repeat)
    print(f"root_sums partner {vanishing} {len(sums) - vanishing} 0 "
          f"{seconds:.6f} {seconds / len(sums) * 1e6:.3f}", flush=True)


if __name__ == "__main__":
    main()
