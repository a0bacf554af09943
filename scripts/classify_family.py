#!/usr/bin/env python3
"""Classification table for the two-letter family b1 = b2 = k*p.

Letter 1 carries unit-stride digits {0..p-1}, letter 2 the same digits
scaled by a stride t coprime to p.  For k = 1 the spectral words are exactly
the constant tail-letter word and the words using letter 1 infinitely often;
for k >= 2 every word is spectral.  So for k = 1 the words that are not
spectral are the 2^R - 1 words u 2^infinity with u a nonempty preperiod of
length <= R = --max-pre ending in letter 1.  Prints the verdict for every
word with preperiod and period up to the requested lengths.

Usage:
    python3 scripts/classify_family.py --p 2 --t 3 --k 1
"""

import argparse
from itertools import product

from moranspec.classifier import decide_spectrality
from moranspec.measure import SymbolicWord, SystemConfig


def all_words(max_pre: int, max_per: int):
    words = set()
    for r in range(max_pre + 1):
        for pre in product((1, 2), repeat=r):
            for s in range(1, max_per + 1):
                for per in product((1, 2), repeat=s):
                    words.add(SymbolicWord(pre, per))
    return sorted(words, key=str)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--t", type=int, default=3)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--max-pre", type=int, default=2)
    ap.add_argument("--max-per", type=int, default=2)
    args = ap.parse_args()

    cfg = SystemConfig.of((args.k * args.p, args.p, 1),
                          (args.k * args.p, args.p, args.t))
    spectral = 0
    for word in all_words(args.max_pre, args.max_per):
        verdict = decide_spectrality(cfg, word)
        spectral += verdict.kind == "Spectral"
        clause = f" [{verdict.clause}]" if verdict.clause else ""
        print(f"{str(word):16s} {verdict.kind}{clause}")
    print(f"-- spectral: {spectral}")


if __name__ == "__main__":
    main()
