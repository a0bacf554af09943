#!/usr/bin/env python3
"""Time verify_spectrum_finite on a tower, its translate by 1/3, a moved tower and random points.

For the letter (b, p, t) repeated, (b, p, t)^oo, to a depth k, the cases are
the depth-k tower of canonical partners, the same tower translated by 1/3,
the tower with its largest point moved up by 1, and as many integers below
10**12 as the tower has points, 0 and the rest drawn without repeats from
a fixed seed, whose differences are nearly all distinct.  Each case runs in a
fresh interpreter, so its peak RSS is its own: the row gives the case, the
point count, the path verify takes (tower for a translate of the tower,
else pairwise), the verdict (refused when verify exits past its bound, with
residual -), its unitarity residual (exactly 0 wherever orthogonality is
proven), the seconds of the one verify_spectrum_finite call and the
process's peak RSS in MB from its start (VmHWM), which also counts the
import, the truncation and the candidate.

Usage:
    python3 scripts/verify_paths.py --letter B,P,T --depth K [--repeat N]

Each of B, P and T is an integer or a power such as 10^350.
"""

import argparse
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import moranspec
from moranspec import spectra
from moranspec.measure import AtomCapExceeded, SymbolicWord, SystemConfig, truncate

CASES = ("tower", "third", "moved", "random")


def letter(text: str) -> tuple[int, int, int]:
    """B,P,T, each an integer or a power such as 10^350."""
    b, p, t = (int(base) ** int(power or 1)
               for base, _, power in (part.partition("^") for part in text.split(",")))
    return b, p, t


def candidate(case: str, tower: spectra.SpectrumCandidate) -> spectra.SpectrumCandidate:
    if case == "third":
        return spectra.SpectrumCandidate.finite(x + Fraction(1, 3) for x in tower.points)
    if case == "moved":
        return spectra.SpectrumCandidate(nums=tower.nums[:-1] + (tower.nums[-1] + 1,))
    if case == "random":
        return spectra.SpectrumCandidate.finite(
            [0] + random.Random(0).sample(range(1, 10**12), len(tower) - 1))
    return tower


def run_case(case: str, pair: tuple[int, int, int], depth: int) -> None:
    """Verify one case in this interpreter and print its row."""
    config, word = SystemConfig.of(pair), SymbolicWord.constant(1)
    meas = truncate(config, word, depth)
    cand = candidate(case, spectra.build_tower_spectrum(config, word, depth))
    started = time.perf_counter()
    try:
        ver = spectra.verify_spectrum_finite(meas, cand, config, word, depth)
        verdict = f"{str(ver.ok).lower()} {ver.unitarity_residual:.3e}"
    except AtomCapExceeded:
        verdict = "refused -"
    seconds = time.perf_counter() - started
    peak_kb = int(re.search(r"VmHWM:\s*(\d+) kB", Path("/proc/self/status").read_text())[1])
    # asked only after the peak is read, so it adds nothing to it
    path = "tower" if spectra.tower_translate(cand, config, word, depth) else "pairwise"
    print(f"{case} {len(cand)} {path} {verdict} {seconds:.4g} {peak_kb / 1024:.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--letter", type=letter, required=True, help="B,P,T")
    parser.add_argument("--depth", type=int, required=True, help="tower depth")
    parser.add_argument("--repeat", type=int, default=1, help="runs per case")
    parser.add_argument("--case", choices=CASES,
                        help="run this one case in this interpreter and print its row")
    args = parser.parse_args()
    if args.case is not None:
        run_case(args.case, args.letter, args.depth)
        return
    env = {**os.environ, "PYTHONPATH": str(Path(moranspec.__file__).resolve().parent.parent)}
    print("case points path ok residual seconds peak_rss_mb", flush=True)
    for case in CASES:
        for _ in range(args.repeat):
            done = subprocess.run([sys.executable, __file__, "--letter",
                                   ",".join(map(str, args.letter)), "--depth", str(args.depth),
                                   "--case", case], capture_output=True, text=True, env=env)
            if done.returncode != 0:
                raise SystemExit(f"case {case} failed:\n{done.stderr}")
            print(done.stdout, end="", flush=True)


if __name__ == "__main__":
    main()
