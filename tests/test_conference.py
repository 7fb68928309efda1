"""The closed-form representation of conference graphs.

A conference graph of order q (q = 1 mod 4, degree (q-1)/2, and
A^2 = (q-1)/4 (J+I) - A) has unit vectors with orthogonal edges and every
non-adjacent squared overlap (2/(sqrt(q)+1))^2 in dimension (q+1)/2.  The
builder must find them under any labelling of a Paley graph, refuse graphs
that fail the identity, and leave every other family's CLI bytes alone.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquecomm import (
    Graph,
    QuantumStrategy,
    build_relation,
    build_representation,
    check_conditions,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    gen_paley,
    optimize_payoff,
    paley_payoff,
    payoff,
    quantum_table,
    representation_payoff,
    verify_representation,
)
from cliquecomm import quantum
from cliquecomm.cli import main

RELABELLINGS = settings(max_examples=6, deadline=None, derandomize=True, database=None)


def relabelled(g, perm):
    """g with vertex v renamed perm[v - 1] + 1."""
    return Graph(g.order, [(perm[u - 1] + 1, perm[v - 1] + 1) for u, v in g.edges])


def circulant(order, jumps):
    return Graph(order, {tuple(sorted((v + 1, (v + j) % order + 1)))
                         for v in range(order) for j in jumps})


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 53])
@RELABELLINGS
@given(data=st.data())
def test_relabelled_paley_certifies_at_the_closed_form(q, data):
    g = relabelled(gen_paley(q), data.draw(st.permutations(range(q))))
    cliques = enumerate_maximum_cliques(g)
    assert quantum._closed_form(g, cliques) is quantum._build_conference
    rep = build_representation(g, cliques)
    assert rep.d == (q + 1) // 2
    assert verify_representation(rep, g).ok
    assert representation_payoff(rep, g) == pytest.approx(paley_payoff(q), abs=1e-9)


@pytest.mark.parametrize("g", [
    gen_nncc(3, 4, 1),
    gen_disconnected(3, 2),
    Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    # 6-regular on 13 vertices, so past the cheap checks, but not strongly regular
    circulant(13, (1, 2, 3)),
], ids=["nncc(3,4,1)", "disconnected(3,2)", "4-cycle", "C13(1,2,3)"])
def test_other_graphs_are_refused(g):
    assert not quantum._is_conference(g)
    assert quantum._closed_form(g, enumerate_maximum_cliques(g)) is not quantum._build_conference


def test_circulant_passes_the_degree_check():
    a = circulant(13, (1, 2, 3)).adjacency[1:, 1:]
    assert (a.sum(axis=1) == 6).all()


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_default_dimension_is_the_general_position_dimension(q):
    g = gen_paley(q)
    cliques = enumerate_maximum_cliques(g)
    assert build_representation(g, cliques).d == check_conditions(g, cliques).general_position_dim


def test_larger_dimension_pads_zero_columns():
    g = gen_paley(13)
    cliques = enumerate_maximum_cliques(g)
    rep = build_representation(g, cliques, 9)
    assert rep.d == 9 and not rep.vectors[:, 7:].any()
    assert np.array_equal(rep.vectors[:, :7], build_representation(g, cliques).vectors)


def test_table_on_paley_29_pays_one_over_eta():
    g = gen_paley(29)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    rep = build_representation(g, cliques)
    table = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    assert rep.d == 15
    assert representation_payoff(rep, g) == pytest.approx(paley_payoff(29), abs=1e-12)
    assert float(payoff(table, rel).value) == pytest.approx(1 / rel.max_valid_outputs(), abs=1e-12)


def test_optimize_on_paley_13_starts_from_the_closed_form(monkeypatch):
    g = gen_paley(13)
    cliques = enumerate_maximum_cliques(g)
    start = representation_payoff(build_representation(g, cliques, 7), g)
    assert start == pytest.approx(paley_payoff(13), abs=1e-12)
    assert optimize_payoff(g, cliques, 7, restarts=2).payoff >= start
    # below (q+1)/2 the closed form does not exist and the ascent runs alone
    built, ascents = [], []
    conference, ascend = quantum._build_conference, quantum._ascend
    monkeypatch.setattr(quantum, "_build_conference",
                        lambda *args: built.append(args) or conference(*args))
    monkeypatch.setattr(quantum, "_ascend", lambda *args: ascents.append(args) or ascend(*args))
    result = optimize_payoff(g, cliques, 6, restarts=2)
    assert built == [] and len(ascents) == 1
    assert result.rep.d == 6 and verify_representation(result.rep, g).ok


@pytest.mark.parametrize("name, family, digest", [
    ("g.json", ["--family", "disconnected", "--n", "2", "--omega", "3"],
     "377ea1c9e9f417bfa048f8715e1a96d1f993cb3caa978ae39eb9f61f537b39cc"),
    ("chain5.json", ["--family", "nncc", "--n", "2", "--omega", "3", "--r", "1"],
     "ad28129f66b8a747a9cf588756903a5753c5242535dad37576131e8f05ff9a8d"),
    ("d32.json", ["--family", "disconnected", "--n", "3", "--omega", "2"],
     "2d82420430a4c3ca9bb3a1aab34f0a41a5e59cc8bb002933c8fd1b8a88ffa9e2"),
], ids=["disconnected(2,3)", "chain5", "d32"])
def test_quantum_table_bytes_of_other_families_are_unchanged(tmp_path, monkeypatch,
                                                             name, family, digest):
    # digests of the output before conference graphs had a closed form;
    # provenance records the --in path as given, so run where the file is
    monkeypatch.chdir(tmp_path)
    assert main(["graph", "gen", *family, "--out", name]) == 0
    assert main(["quantum", "table", "--in", name, "--out", "t.json"]) == 0
    assert hashlib.sha256((tmp_path / "t.json").read_bytes()).hexdigest() == digest
