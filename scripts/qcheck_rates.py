#!/usr/bin/env python3
"""Time qcheck at its work bound on the towers of the README's rate table.

Each tower is (p, p, 1)^oo to a depth k, and its grid is the largest that
keeps grid x p**k x max(1, k) counted evaluations within the work (by
default cli.QCHECK_WORK_BOUND), so qcheck runs at its bound.  Each run is
one in-process call of the CLI's main, timed from the call to its return;
a row gives p, the depth, the grid, the counted work, the seconds and the
rate in million counted evaluations a second, one row per run.

Usage:
    python3 scripts/qcheck_rates.py [--tower P:DEPTH ...] [--repeat N] [--work W]
"""

import argparse
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from moranspec import cli

# (p, depth): deep towers up to RECURRENCE_MAX_P, then depth 1 on both sides of it
TOWERS = ((2, 12), (3, 7), (5, 5), (8, 3), (32, 3), (32, 2),
          (33, 1), (4096, 1), (10**6, 1), (2, 1), (8, 1), (16, 1), (32, 1))


def tower(text: str) -> tuple[int, int]:
    p, depth = text.split(":")
    return int(p), int(depth)


def time_qcheck(p: int, depth: int, work: int, folder: Path) -> tuple[int, int, float]:
    """The grid, the counted work and the seconds of one qcheck at work on (p, p, 1)^oo."""
    path = folder / f"tower-{p}.json"
    path.write_text(json.dumps({"pairs": [{"b": p, "p": p, "t": 1}], "word": {"period": [1]}}),
                    encoding="utf-8")
    per_point = p**depth * max(1, depth)
    grid = work // per_point
    argv = ["qcheck", "--config", str(path), "--depth", str(depth), "--grid", str(grid)]
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    seconds = time.perf_counter() - started
    if status != 0 or "max_deviation=" not in out.getvalue():
        raise SystemExit(f"qcheck exited {status} on p={p} depth={depth} grid={grid}")
    return grid, grid * per_point, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tower", type=tower, action="append",
                        help="P:DEPTH, repeatable; default every tower of the table")
    parser.add_argument("--repeat", type=int, default=1, help="runs per tower")
    parser.add_argument("--work", type=int, default=cli.QCHECK_WORK_BOUND,
                        help="counted evaluations per run")
    args = parser.parse_args()
    print("p depth grid work seconds rate_M_per_s")
    with tempfile.TemporaryDirectory() as folder:
        for p, depth in args.tower or TOWERS:
            for _ in range(args.repeat):
                grid, work, seconds = time_qcheck(p, depth, args.work, Path(folder))
                print(f"{p} {depth} {grid} {work} {seconds:.2f} {work / seconds / 1e6:.0f}",
                      flush=True)


if __name__ == "__main__":
    main()
