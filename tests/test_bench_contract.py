"""What the benchmark under bench/ uses of the library still exists and works.

The span tracer wraps the layer functions named in `bench/spans.py`
LAYERS, and `bench/worker.py` runs fixed operations that check their own
results.  A rename or a signature change that would fail a benchmark run
fails here first: every LAYERS target must resolve, and one pass of the
`paley-certify` and `reconstruct-sim` operations must run without a failed
check.  The bench modules are imported without writing bytecode next to
them.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The (spans, worker) modules of bench/."""
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans"), importlib.import_module("worker")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def test_every_traced_layer_resolves(bench):
    spans, _ = bench
    for home, path, _, _ in spans.LAYERS:
        target = importlib.import_module(f"cliquecomm.{home}")
        for attr in path.split("."):
            assert hasattr(target, attr), f"cliquecomm.{home} has no {path}"
            target = getattr(target, attr)
        assert callable(target)


@pytest.mark.parametrize("workload", ["paley-certify", "reconstruct-sim"])
def test_one_pass_runs_without_a_failed_check(bench, workload):
    _, worker = bench
    ctx = worker.Context(seed=1)
    ops = worker.WORKLOADS[workload](ctx)
    failures = []
    worker.run_pass(ops, ctx, failures)
    assert failures == []
    assert ctx.attempted == len(ops)
