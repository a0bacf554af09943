"""One workload in a fresh interpreter: set up, say ``ready``, then measure.

Started by ``run.py`` from the root of a checkout with ``PYTHONPATH=src``.
After building its inputs and running the warm-up operations it prints
``ready``.  With ``--setup-only`` it then exits; otherwise it waits for a line
on stdin, runs the timed phase and prints ``result <json>``.

The timed phase runs whole cycles of the workload, one operation at a time
(closed loop, one client), with ``gc.collect()``, the speed probe and the
output check between operations, outside the timed region.  It stops once
``--seconds`` have passed and at least ``MIN_OK`` operations succeeded, so
the 90th percentile has at least ten samples above it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

import moranspec
from moranspec import exactmath

import speed
import workloads
from tracer import Tracer

MIN_OK = 100
RATIOS = {"spectra.distinct_diff_ratio"}
HARD_STOP_S = 120.0


def timed(run):
    """Wall time of run() and its output, or the exception it raised."""
    t0 = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # every failure of the program is a failed op
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, out


def judge(op, out) -> tuple[str, Optional[str]]:
    """("ok", None), ("error", why) if the op raised, or ("wrong", why) if its check failed."""
    if isinstance(out, Exception):
        return "error", f"{type(out).__name__}: {out}"
    try:
        message = op.check(out)
    except Exception as exc:  # a malformed output is a wrong answer
        message = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    return ("wrong", message) if message else ("ok", None)


def run_cycles(cycle, seconds: float) -> list[tuple]:
    """Run whole cycles until `seconds` have passed and MIN_OK operations succeeded.

    Returns one (wall seconds, normalized seconds, status, message) record per
    operation.  The speed probe taken before an operation is also the one
    taken after the previous one.
    """
    records = []
    ok = cycles = 0
    start = time.perf_counter()
    before = speed.probe()
    while True:
        for op in cycle:
            gc.collect()
            elapsed, out = timed(op.run)
            after = speed.probe()
            status, message = judge(op, out)
            records.append((elapsed, speed.normalize(elapsed, before, after), status, message))
            ok += status == "ok"
            before = after
        cycles += 1
        wall = time.perf_counter() - start
        if (wall + wall / cycles / 2 >= seconds and ok >= MIN_OK) or wall >= HARD_STOP_S:
            return records


def summarize(records) -> dict:
    ok = [r for r in records if r[2] == "ok"]
    lat = [r[1] * 1000 for r in ok]
    wall = [r[0] * 1000 for r in ok]
    p90 = statistics.quantiles(lat, n=10)[-1]
    messages = {}
    for record in records:
        if record[3]:
            messages[record[3]] = messages.get(record[3], 0) + 1
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "wrong": sum(r[2] == "wrong" for r in records),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90,
        "throughput_rps": len(ok) / sum(r[1] for r in records),
        "samples": len(lat),
        "samples_above_p90": sum(x > p90 for x in lat),
        "wall_latency_p50_ms": statistics.median(wall),
        "wall_latency_p90_ms": statistics.quantiles(wall, n=10)[-1],
        "wall_throughput_rps": len(ok) / sum(r[0] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": messages,
    }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if Path(moranspec.__file__).resolve().parent != (src / "moranspec").resolve():
        print(f"moranspec imported from {moranspec.__file__}, not from {src}", file=sys.stderr)
        return 2
    outdir = Path.cwd() / ".perfbench"
    outdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=outdir))
    try:
        load = workloads.build(args.workload, args.seed, tmp)
        for op in load.warmup:
            op.run()
        gc.collect()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        sys.stdin.readline()
        if args.trace:
            result = traced(load, args, outdir)
        else:
            result = summarize(run_cycles(load.cycle, args.seconds))
        result["env"] = environment(args.seed)
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced(load, args, outdir: Path) -> dict:
    """Per-layer metrics from traced runs of whole cycles.

    Every operation runs twice in a row, once traced and once not, the order
    alternating from one operation to the next so that neither side always
    runs warmer; the ratio of their summed times is the tracing overhead.
    Per-layer metrics, including the cyclotomic cache counts, cover the traced
    runs only, and only those are checked and counted as attempted.  Every
    cycle is the same multiset of operations, so sums are reported per cycle:
    counts then repeat exactly from run to run whatever the machine's speed.
    """
    cache = exactmath.cyclotomic_polynomial.cache_info
    tracer = Tracer()
    hits = misses = cycles = 0
    times = {True: 0.0, False: 0.0}
    statuses = []
    start = time.perf_counter()
    while True:
        for op in load.cycle:
            for is_traced in ((True, False) if len(statuses) % 2 == 0 else (False, True)):
                gc.collect()
                if not is_traced:
                    times[False] += timed(op.run)[0]
                    continue
                before = cache()
                tracer.install()
                try:
                    elapsed, out = timed(functools.partial(tracer.root, len(statuses), op.run))
                finally:
                    tracer.uninstall()
                after = cache()
                hits += after.hits - before.hits
                misses += after.misses - before.misses
                times[True] += elapsed
                statuses.append(judge(op, out)[0])
        cycles += 1
        wall = time.perf_counter() - start
        if wall + wall / cycles / 2 >= args.seconds or wall >= HARD_STOP_S:
            break
    totals = dict(tracer.metrics(), **{"exactmath.cyclotomic_hits": hits,
                                       "exactmath.cyclotomic_misses": misses})
    metrics = {name: value if name in RATIOS else value / cycles for name, value in totals.items()}
    metrics["trace.overhead_ratio"] = times[True] / times[False]
    tracer.write(outdir / f"spans-{args.workload}-{args.seed}.npz")
    return {
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "wrong": statuses.count("wrong"),
        "op_s": tracer.op_seconds() / cycles,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
