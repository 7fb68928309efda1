"""The bitset graph searches against brute force over vertex subsets.

`enumerate_maximum_cliques` (bounded, pivoted Bron-Kerbosch) and
`_complement_connectivity` (Esfahanian-Hakimi over unit-capacity
augmenting paths) are compared with `tests/loop_oracles.py`, which tries
every vertex subset, on random graphs of 0-9 vertices from derandomized
hypothesis and on the generator families; where networkx is installed,
also with networkx on the complements of Paley 13, 29 and 37.
"""

import itertools

import pytest
from hypothesis import given

import loop_oracles as oracle
from cliquecomm import (
    EmptyGraphError,
    Graph,
    complement,
    enumerate_maximum_cliques,
    gen_paley,
)
from cliquecomm.graphs import _complement_connectivity
from test_array_core import FAMILIES, PROPERTY, graphs

SEARCH_FAMILIES = dict(FAMILIES, **{"paley(17)": lambda: gen_paley(17)})


def check_searches(g):
    if g.order == 0:
        with pytest.raises(EmptyGraphError):
            enumerate_maximum_cliques(g)
    else:
        cliques = enumerate_maximum_cliques(g)
        assert list(cliques.cliques) == oracle.maximum_cliques(g)
        assert cliques.omega == len(cliques.cliques[0])
    assert _complement_connectivity(g) == oracle.vertex_connectivity(complement(g))


@PROPERTY
@given(graphs(max_order=9, min_order=0))
def test_searches_match_subsets_on_random_graphs(g):
    check_searches(g)


@pytest.mark.parametrize("family", SEARCH_FAMILIES)
def test_searches_match_subsets_on_families(family):
    check_searches(SEARCH_FAMILIES[family]())


@pytest.mark.parametrize("g,connectivity", [
    (Graph(1, []), 0),
    (Graph(2, []), 1),  # the complement is one edge
    (Graph(4, []), 3),  # the complement is complete
    (Graph(4, [(1, 2), (3, 4)]), 2),  # the complement is the 4-cycle
    (Graph(3, [(1, 2), (1, 3), (2, 3)]), 0),  # three isolated vertices
])
def test_complement_connectivity_edges(g, connectivity):
    assert _complement_connectivity(g) == connectivity


def test_complement_connectivity_through_the_minimum_degree_vertex():
    # h: two disjoint 6-cliques and a vertex 13 joined to two vertices of
    # each.  Vertex 13 alone has the least degree and lies in h's only
    # smallest cut {13}, which just the pairs of its neighbours reveal.
    h = Graph(13, [*itertools.combinations(range(1, 7), 2),
                   *itertools.combinations(range(7, 13), 2),
                   (1, 13), (2, 13), (7, 13), (8, 13)])
    assert oracle.vertex_connectivity(h) == 1
    assert _complement_connectivity(complement(h)) == 1


@pytest.mark.parametrize("q", [13, 29, 37])
def test_searches_match_networkx_on_paley_complements(q):
    nx = pytest.importorskip("networkx")
    g = gen_paley(q)
    h = complement(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(h.vertices)
    nxg.add_edges_from(h.edges)
    maximal = [tuple(sorted(c)) for c in nx.find_cliques(nxg)]
    omega = max(map(len, maximal))
    assert enumerate_maximum_cliques(h).cliques == \
        tuple(sorted(c for c in maximal if len(c) == omega))
    assert _complement_connectivity(g) == nx.node_connectivity(nxg) == (q - 1) // 2
