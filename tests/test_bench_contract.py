"""What the benchmark under bench/ uses of the library still exists and works.

The span tracer wraps the layer functions named in `bench/spans.py`
LAYERS, and `bench/worker.py` runs fixed operations that check their own
results.  A rename or a signature change that would fail a benchmark run
fails here first: every LAYERS target must resolve, and one pass of the
`paley-certify` and `reconstruct-sim` operations must run without a failed
check, and the five `cli-files` commands the benchmark hashes must write
the bytes it pins.  The bench modules are imported without writing
bytecode next to them.
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


# the commands that `cli-files` checks against CLI_SHA256, each with the
# output name it writes there, in the order it runs them
HASHED_COMMANDS = [
    ("relation_build", "p29.rel.json", ["relation", "build", "--in", "p29.json"]),
    ("relation_infer", "p29.graph.json", ["relation", "infer", "--in", "p29.rel.json"]),
    ("complexity_sccr", "p17.sccr.json", ["complexity", "sccr", "--in", "p17.json"]),
    ("paley_analyze", "p29.paley.json", ["paley", "analyze", "--q", "29"]),
    ("graph_check", "p13.check.json", ["graph", "check", "--in", "p13.json"]),
]


def test_hashed_cli_commands_write_the_pinned_bytes(bench, tmp_path, monkeypatch):
    # provenance records the --in path as given, so run where the files are
    _, worker = bench
    from cliquecomm import cli

    monkeypatch.chdir(tmp_path)
    for name, family in worker.CLI_INSTANCES.items():
        assert cli.main(["graph", "gen", *family, "--out", name]) == 0
    for key, out, args in HASHED_COMMANDS:
        assert cli.main([*args, "--out", out]) == 0
        assert worker.sha256(tmp_path / out) == worker.CLI_SHA256[key], key
