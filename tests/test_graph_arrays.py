"""The graph layer's adjacency and clique-membership matrices against the
vertex-pair loops they replace.

Random graphs on up to 8 vertices come from hypothesis (derandomized);
the disconnected, nncc and Paley families are checked by parametrization.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loop_oracles as oracle
from cliquecomm import (
    Graph,
    build_representation,
    complement,
    enumerate_maximum_cliques,
    extract_vectors,
    optimal_gram,
)
from cliquecomm.graphs import (
    _covers_all_vertices,
    _pairs_distinguishable,
    clique_membership,
)
from cliquecomm.quantum import (
    OrthogonalRepresentation,
    _build_chain,
    _build_disconnected,
    _closed_form,
    verify_representation,
)
from test_array_core import FAMILIES, PROPERTY, graphs

# the pair overlaps come from one matmul instead of one vdot per pair
OVERLAP_TOL = 64 * np.finfo(float).eps


def check_adjacency(g):
    a = g.adjacency
    assert a.shape == (g.order + 1, g.order + 1) and a.dtype == bool
    assert not a.flags.writeable
    assert np.array_equal(a, a.T) and not a[0].any() and not a.diagonal().any()
    assert {(u, v) for u, v in np.argwhere(np.triu(a)).tolist()} == set(g.edges)
    for v in g.vertices:
        incident = {w for e in g.edges if v in e for w in e if w != v}
        assert g.neighbors(v) == incident and g.degree(v) == len(incident)
        for w in g.vertices:
            assert g.adjacent(v, w) == ((min(v, w), max(v, w)) in g.edges)


def check_complement(g):
    h, loop = complement(g), oracle.complement(g)
    assert h == loop
    # same insertion order, so the same frozenset iteration order
    assert list(h.edges) == list(loop.edges)
    assert complement(h) == g


def check_structure(g):
    cliques = enumerate_maximum_cliques(g)
    member = clique_membership(cliques, g.order)
    assert member.shape == (cliques.count, g.order + 1)
    for v in range(g.order + 1):
        assert tuple(np.flatnonzero(member[:, v]) + 1) == cliques.cliques_containing(v)
    assert _covers_all_vertices(g, cliques) == oracle.covers_all_vertices(g, cliques)
    assert _pairs_distinguishable(g, cliques) == oracle.pairs_distinguishable(g, cliques)
    builder = _closed_form(g, cliques)
    assert (builder is _build_disconnected) == oracle.partitioned(g, cliques)
    assert (builder is _build_chain) == (oracle.chain_overlap(g, cliques) is not None)


def assert_same_verification(rep, g):
    report = verify_representation(rep, g)
    ok, loop = oracle.verify_representation(rep, g)
    assert report.ok == ok
    assert [v[:3] for v in report.violations] == [v[:3] for v in loop]
    for got, want in zip(report.violations, loop):
        if want[3] is None:
            assert got[3] is None
        else:
            assert got[3] == pytest.approx(want[3], rel=0, abs=OVERLAP_TOL)
    return report


@PROPERTY
@given(graphs(max_order=8))
def test_graph_matrices_match_loops_on_random_graphs(g):
    check_adjacency(g)
    check_complement(g)
    check_structure(g)


@pytest.mark.parametrize("family", FAMILIES)
def test_graph_matrices_match_loops_on_families(family):
    g = FAMILIES[family]()
    check_adjacency(g)
    check_complement(g)
    check_structure(g)


def test_empty_and_edgeless_graphs():
    for order in (0, 1, 4):
        g = Graph(order, [])
        check_adjacency(g)
        check_complement(g)


def palette(d):
    """Unit vectors in C^d whose overlaps are exactly 0, 1/2 or 1, so that
    orthogonal, duplicate and generic pairs all occur."""
    e = np.eye(d, dtype=complex)
    vecs = [e[i] for i in range(d)] + [1j * e[i] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        vecs += [(e[i] + e[j]) / math.sqrt(2), (e[i] - e[j]) / math.sqrt(2),
                 (e[i] + 1j * e[j]) / math.sqrt(2)]
    return vecs


@st.composite
def representations(draw):
    g = draw(graphs(max_order=8))
    d = draw(st.integers(1, 3))
    choices = palette(d)
    vectors = np.array([choices[draw(st.integers(0, len(choices) - 1))]
                        for _ in g.vertices]).reshape(g.order, d)
    damage = draw(st.sampled_from(["none", "none", "missing", "norm"]))
    if damage != "none" and g.order:
        v = draw(st.integers(1, g.order))
        if damage == "missing":
            vectors = vectors[:v - 1]  # vertices v.. have no row
        else:
            vectors[v - 1] *= 2
    return OrthogonalRepresentation(vectors), g


@PROPERTY
@given(representations())
def test_verification_matches_pair_loop_on_random_representations(case):
    rep, g = case
    assert_same_verification(rep, g)


@pytest.mark.parametrize("family", FAMILIES)
def test_verification_matches_pair_loop_on_families(family):
    g = FAMILIES[family]()
    if family.startswith("paley"):
        rep = extract_vectors(optimal_gram(g.order))
    else:
        rep = build_representation(g, enumerate_maximum_cliques(g))
    assert assert_same_verification(rep, g).ok
    # vertex 1's vector on vertex 2 too: a duplicate, or an edge that is
    # not orthogonal, plus whatever vertex 2's old pairs become
    vectors = rep.vectors.copy()
    vectors[1] = vectors[0]
    report = assert_same_verification(OrthogonalRepresentation(vectors), g)
    assert not report.ok and report.violations[0][1:3] == (1, 2)
