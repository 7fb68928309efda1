"""The representation ascent: its closed-form gradient, what it reaches on
the paper's instances, the default dimension, and a scipy-free import.

Random graphs on up to 8 vertices come from hypothesis (derandomized).
"""

import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import cliquecomm
import loop_oracles as oracle
from cliquecomm import (
    ConstructionFailedError,
    Graph,
    OrthogonalRepresentation,
    build_representation,
    enumerate_maximum_cliques,
    gen_nncc,
    gen_paley,
    optimize_payoff,
    representation_payoff,
    verify_representation,
)
from cliquecomm.cli import main
from cliquecomm.quantum import _objective
from test_array_core import PROPERTY, graphs

# the pair overlaps come from one matmul instead of one vdot per pair
OVERLAP_TOL = 64 * np.finfo(float).eps


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


@PROPERTY
@given(graphs(max_order=8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_gradient_matches_central_differences(g, d, seed):
    nonedge = ~g.adjacency[1:, 1:] & ~np.eye(g.order, dtype=bool)
    assume(nonedge.any())
    adj = g.adjacency[1:, 1:].astype(float)
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal((1, g.order, d)) + 1j * rng.standard_normal((1, g.order, d))

    vecs, direction = unit_rows(draw()), draw()
    for beta, mu in [(5.0, 0.7), (40.0, 3.0)]:
        _, grad = _objective(vecs, nonedge, adj, beta, mu)

        def f(t):
            return _objective(unit_rows(vecs + t * direction), nonedge, adj, beta, mu)[0][0]

        eps = 1e-6
        numeric = (f(eps) - f(-eps)) / (2 * eps)
        # the projected gradient is the gradient of f on unit rows
        assert np.sum(grad.conj() * direction).real == pytest.approx(numeric, rel=1e-5, abs=1e-6)


@PROPERTY
@given(graphs(max_order=8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_payoff_reduction_matches_pair_loop(g, d, seed):
    rng = np.random.default_rng(seed)
    vecs = unit_rows(rng.standard_normal((g.order, d)) + 1j * rng.standard_normal((g.order, d)))
    rep = OrthogonalRepresentation(vecs)
    assert representation_payoff(rep, g) == pytest.approx(
        oracle.representation_payoff(rep, g), rel=0, abs=OVERLAP_TOL)


@pytest.mark.parametrize("g", [gen_nncc(2, 3, 1), gen_nncc(3, 5, 2)], ids=["chain5", "nncc352"])
def test_optimize_climbs_above_the_constructed_start(g):
    cliques = enumerate_maximum_cliques(g)
    start = build_representation(g, cliques)
    res = optimize_payoff(g, cliques)
    assert res.rep.d == start.d == cliques.omega
    assert verify_representation(res.rep, g).ok
    assert res.payoff == representation_payoff(res.rep, g)
    assert res.payoff > representation_payoff(start, g) + 1e-3


def test_optimize_reports_the_payoff_of_its_representation():
    # one maximum clique and a vertex outside it, which can only overlap
    # the clique's orthonormal basis by 1/3 each way
    g = Graph(4, [(1, 2), (1, 3), (2, 3)])
    res = optimize_payoff(g, enumerate_maximum_cliques(g))
    assert res.payoff == representation_payoff(res.rep, g) == pytest.approx(1 / 3, abs=1e-5)


@pytest.mark.parametrize("d", [6, 7])
def test_paley_13_certified(d):
    g = gen_paley(13)
    rep = build_representation(g, enumerate_maximum_cliques(g), d)
    assert rep.d == d and verify_representation(rep, g).ok


def test_paley_13_fails_fast_at_clique_size():
    g = gen_paley(13)
    cliques = enumerate_maximum_cliques(g)
    start = time.perf_counter()
    with pytest.raises(ConstructionFailedError):
        build_representation(g, cliques, 3)
    assert time.perf_counter() - start < 1.0


def test_four_cycle_builds_in_its_default_dimension():
    # the 4-cycle needs a fourth dimension: in three, the two vectors
    # orthogonal to one diagonal pair coincide.  Each diagonal pair shares
    # its neighbours, and the search must still keep its vectors apart
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    rep = build_representation(g, enumerate_maximum_cliques(g))
    assert rep.d == 4 and verify_representation(rep, g).ok


def test_quantum_table_on_paley_defaults_to_general_position(tmp_path, capsys):
    path = str(tmp_path / "p13.json")
    assert main(["graph", "gen", "--family", "paley", "--q", "13", "--out", path]) == 0
    assert main(["quantum", "table", "--in", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 7 and data["provenance"]["params"]["d"] == 7
    assert data["payoff"] > 0


def test_cli_runs_without_scipy(tmp_path):
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from cliquecomm.cli import main
        assert main(["graph", "gen", "--family", "nncc", "--n", "2", "--omega", "3",
                     "--r", "1", "--out", "chain5.json"]) == 0
        assert main(["quantum", "table", "--in", "chain5.json", "--out", "t.json"]) == 0
        assert main(["quantum", "optimize", "--in", "chain5.json", "--out", "o.json"]) == 0
    """)
    src = os.path.dirname(os.path.dirname(cliquecomm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True)
    assert json.loads((tmp_path / "t.json").read_text())["dimension"] == 3
    assert json.loads((tmp_path / "o.json").read_text())["payoff"] >= 0.5 - 1e-6
