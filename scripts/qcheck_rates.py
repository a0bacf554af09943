#!/usr/bin/env python3
"""Time qcheck at its work bound on the towers of the README's rate table.

Each tower is (b, p, t)^oo to a depth k, (p, p, 1)^oo unless a letter is
given, and its grid is the largest that keeps grid x p**k x max(1, k)
counted evaluations within the work (by default cli.QCHECK_WORK_BOUND), so
qcheck runs at its bound.  Each run is one in-process call of the CLI's
main, timed from the call to its return; a row gives the letter b,p,t, the
depth, the grid, the counted work, the seconds and the rate in million
counted evaluations a second, one row per run.

Usage:
    python3 scripts/qcheck_rates.py [--tower [B,]P[,T]:DEPTH ...] [--repeat N] [--work W]
"""

import argparse
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from moranspec import cli

# ((b, p, t), depth): deep towers up to RECURRENCE_MAX_P, then depth 1 on
# both sides of it, then a 2**64 base, whose residues den*|B_n| and its
# multiples pass int64 (the stride is reduced mod den*|B_n| first)
TOWERS = tuple(((p, p, 1), depth) for p, depth in (
    (2, 12), (3, 7), (5, 5), (8, 3), (32, 3), (32, 2),
    (33, 1), (4096, 1), (10**6, 1), (2, 1), (8, 1), (16, 1), (32, 1))) + (
    ((2**64, 2, 2**64 + 1), 1),)


def tower(text: str) -> tuple[tuple[int, int, int], int]:
    letter, depth = text.split(":")
    b, p, t = ([int(letter)] * 2 + [1] if "," not in letter
               else [int(v) for v in letter.split(",")])
    return (b, p, t), int(depth)


def time_qcheck(letter: tuple[int, int, int], depth: int, work: int,
                folder: Path) -> tuple[int, int, float]:
    """The grid, the counted work and the seconds of one qcheck at work on letter^oo."""
    b, p, t = letter
    path = folder / "tower.json"
    path.write_text(json.dumps({"pairs": [{"b": str(b), "p": p, "t": str(t)}],
                                "word": {"period": [1]}}), encoding="utf-8")
    per_point = p**depth * max(1, depth)
    grid = work // per_point
    argv = ["qcheck", "--config", str(path), "--depth", str(depth), "--grid", str(grid)]
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    seconds = time.perf_counter() - started
    if status != 0 or "max_deviation=" not in out.getvalue():
        raise SystemExit(f"qcheck exited {status} on {letter} depth={depth} grid={grid}")
    return grid, grid * per_point, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tower", type=tower, action="append",
                        help="P:DEPTH for (P, P, 1) or B,P,T:DEPTH, repeatable; "
                             "default every tower of the table")
    parser.add_argument("--repeat", type=int, default=1, help="runs per tower")
    parser.add_argument("--work", type=int, default=cli.QCHECK_WORK_BOUND,
                        help="counted evaluations per run")
    args = parser.parse_args()
    print("letter depth grid work seconds rate_M_per_s")
    with tempfile.TemporaryDirectory() as folder:
        for letter, depth in args.tower or TOWERS:
            for _ in range(args.repeat):
                grid, work, seconds = time_qcheck(letter, depth, args.work, Path(folder))
                print(f"{','.join(map(str, letter))} {depth} {grid} {work} {seconds:.2f} "
                      f"{work / seconds / 1e6:.0f}", flush=True)


if __name__ == "__main__":
    main()
