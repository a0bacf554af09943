#!/usr/bin/env python3
"""Time sample-ft in process at the transform benchmark's shapes and at the row cap.

The mixed shape is the benchmark's sample-ft slot: depth 20 of ten p = 2 and
ten p = 3 letters, here (4, 2, 1) and (9, 3, 5) alternating, at grid 256 and
window 4 (1,025 rows).  The overflow shape is its depth-600 slot on
(4, 2, 1)^oo at grid 16 and window 1 (17 rows), where b_1...b_n passes the
float range.  The cap shape is the mixed word at window 1 and a grid of
cap - 1, so rows = cap, by default cli.DEFAULT_ATOM_CAP.  Each run is one
in-process call of the CLI's main, timed from the call to its return, with
the CSV written to a temporary folder; a row gives the shape, depth, grid,
window, rows, the best milliseconds of the repeated runs and microseconds
per row, one row per shape.

Usage:
    python3 scripts/sample_ft_rates.py [--shape NAME ...] [--repeat N] [--cap ROWS]
"""

import argparse
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from moranspec import cli

MIXED = {"pairs": [{"b": 4, "p": 2, "t": 1}, {"b": 9, "p": 3, "t": 5}], "word": {"period": [1, 2]}}
QUARTER = {"pairs": [{"b": 4, "p": 2, "t": 1}], "word": {"period": [1]}}


def shapes(cap: int) -> dict[str, tuple[dict, int, int, int]]:
    """Each shape's (config, depth, grid, window)."""
    return {"mixed": (MIXED, 20, 256, 4), "overflow": (QUARTER, 600, 16, 1),
            "cap": (MIXED, 20, cap - 1, 1)}


def time_sample_ft(config: dict, depth: int, grid: int, window: int, repeat: int,
                   folder: Path) -> float:
    """The best seconds of repeat sample-ft runs on config."""
    path = folder / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["sample-ft", "--config", str(path), "--depth", str(depth), "--grid", str(grid),
            "--window", str(window), "--out", str(folder / "ft.csv")]
    best = float("inf")
    for _ in range(repeat):
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        best = min(best, time.perf_counter() - started)
        if status != 0 or f"rows={window * grid + 1}" not in out.getvalue():
            raise SystemExit(f"sample-ft exited {status} on {argv}")
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--shape", action="append", choices=("mixed", "overflow", "cap"),
                        help="repeatable; default every shape")
    parser.add_argument("--repeat", type=int, default=7, help="runs per shape")
    parser.add_argument("--cap", type=int, default=cli.DEFAULT_ATOM_CAP,
                        help="rows of the cap shape, at least 2")
    args = parser.parse_args()
    table = shapes(args.cap)
    print("shape depth grid window rows ms us_per_row")
    with tempfile.TemporaryDirectory() as folder:
        for name in args.shape or table:
            config, depth, grid, window = table[name]
            rows = window * grid + 1
            seconds = time_sample_ft(config, depth, grid, window, args.repeat, Path(folder))
            print(f"{name} {depth} {grid} {window} {rows} {seconds * 1e3:.3f} "
                  f"{seconds / rows * 1e6:.3f}", flush=True)


if __name__ == "__main__":
    main()
