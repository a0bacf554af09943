#!/usr/bin/env python3
"""Benchmark moranspec on one seeded workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Each workload runs in fresh interpreters started from here: SETUP_RUNS of
them measure set-up time (interpreter start, ``import moranspec``, input
generation and warm-up), and the last one also runs the timed phase.  With
``--trace 1`` the timed phase reports per-layer metrics instead of
end-to-end ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "decide", "transform")
SETUP_RUNS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise BenchError("worker did not answer before the deadline")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited with status {proc.wait()} before answering")
    return line.rstrip("\n")


def launch(root: Path, env: dict, args, workload: str, setup_only: bool, deadline: float):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    before = speed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        if read_line(proc, deadline) != "ready":
            raise BenchError("worker did not report ready")
        elapsed = time.perf_counter() - start
        return proc, elapsed, speed.normalize(elapsed, before, speed.probe())
    except BaseException:
        with proc:
            proc.kill()
        raise


def run_workload(root: Path, args, workload: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, *seconds = launch(root, env, args, workload, True, deadline)
        with proc:
            if proc.wait() != 0:
                raise BenchError(f"set-up run exited with status {proc.returncode}")
        setups.append(seconds)
    proc, *seconds = launch(root, env, args, workload, False, deadline)
    setups.append(seconds)
    with proc:
        try:
            proc.stdin.write("go\n")
            proc.stdin.flush()
            line = read_line(proc, deadline)
            status = proc.wait(timeout=max(deadline - time.monotonic(), 1))
        except BaseException:
            proc.kill()
            raise
    if status != 0 or not line.startswith("result "):
        raise BenchError(f"worker exited with status {status}")
    result = json.loads(line[len("result "):])
    result["wall_setup_s"] = statistics.median(wall for wall, _ in setups)
    result["setup_s"] = statistics.median(normalized for _, normalized in setups)
    return result


def select_metrics(result: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists for this mode, by name with their units."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if trace:
        values = result["metrics"]
    else:
        values = dict(result, ok_ratio=1 - result["failed"] / result["attempted"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, result: dict, metrics: dict) -> None:
    print(f"== {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"wrong={result['wrong']} fail_ratio={result['failed'] / result['attempted']:.6g}")
    if "samples" in result:
        print(f"   samples={result['samples']} samples_above_p90={result['samples_above_p90']}")
        print("   unnormalized wall time: " + " ".join(
            f"{name}={result['wall_' + name]:.6g}"
            for name in ("latency_p50_ms", "latency_p90_ms", "throughput_rps", "setup_s")))
    if "op_s" in result:
        print(f"   traced operation time per cycle = {result['op_s']:.6g} s")
    for message, count in result.get("failures", {}).items():
        print(f"   failure x{count}: {message}")
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "moranspec" / "__init__.py").is_file():
        print(f"no moranspec sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    load = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = run_workload(root, args, workload, deadline)
            metrics = select_metrics(result, args.trace)
            env = dict(result["env"], workload=workload, commit=git_commit(root),
                       loadavg_start=load, seconds=args.seconds, trace=args.trace)
            print("env " + json.dumps(env))
            report(workload, result, metrics)
            summary["correct"] &= result["wrong"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{workload}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
