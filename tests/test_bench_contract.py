"""The benchmark's view of the package still holds.

Builds each ``perfbench`` workload with seed 0, installs the span tracer
(which wraps every boundary function by name) and runs the warm-up
operations through it.  A renamed or deleted function that the benchmark
wraps or calls fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_ops_pass_their_checks_under_the_tracer(tmp_path, name):
    workload = workloads.build(name, 0, tmp_path)
    assert workload.cycle and workload.warmup
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(workload.warmup):
            assert op.check(tracer.root(i, op.run)) is None, op.kind
    finally:
        tracer.uninstall()
    assert tracer.op_seconds() > 0
