import itertools
import random

import pytest

from cliquecomm import (
    Graph,
    InconsistentRelationError,
    Relation,
    build_relation,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    gen_paley,
    infer_graph,
)
from conftest import CHAIN5_RELATION, consistency_oracle
from loop_oracles import colouring_to_label, label_to_colouring, labels_consistent


def test_label_colouring_positions():
    clique = (3, 6, 7)
    assert label_to_colouring(clique, 0) == {3: 1, 6: 0, 7: 0}
    assert label_to_colouring(clique, 1) == {3: 0, 6: 1, 7: 0}
    assert label_to_colouring(clique, 2) == {3: 0, 6: 0, 7: 1}


def test_label_colouring_round_trip():
    clique = (2, 5, 9, 11)
    for a in range(4):
        assert colouring_to_label(clique, label_to_colouring(clique, a)) == a
    with pytest.raises(Exception):
        label_to_colouring(clique, 4)


def test_consistency_matches_rule_oracle(chain5):
    cases = [chain5[:2]]
    for g in [gen_disconnected(2, 2), gen_disconnected(2, 3), gen_paley(5)]:
        cases.append((g, enumerate_maximum_cliques(g)))
    # two triangles joined by one cross edge: the only family-independent
    # instance where the no-adjacent-ones rule bites on non-shared vertices
    bridged = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)])
    cases.append((bridged, enumerate_maximum_cliques(bridged)))
    # random graphs, where selected vertices also lie in the other clique
    # without the two cliques forming a chain
    rng = random.Random(3)
    for _ in range(60):
        order = rng.randint(1, 8)
        g = Graph(order, [e for e in itertools.combinations(range(1, order + 1), 2)
                          if rng.random() < 0.5])
        cases.append((g, enumerate_maximum_cliques(g)))
    for g, cliques in cases:
        n, omega = cliques.count, cliques.omega
        for x, y in itertools.product(range(1, n + 1), repeat=2):
            for a, b in itertools.product(range(omega), repeat=2):
                assert labels_consistent(g, cliques, x, a, y, b) == \
                    consistency_oracle(g, cliques, x, a, y, b)


def test_chain5_relation_matches_published_tuples(chain5):
    _, _, rel = chain5
    assert set(rel.tuples) == CHAIN5_RELATION
    assert rel.size == 16


def test_cross_edge_rule_excludes_tuple():
    bridged = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)])
    cliques = enumerate_maximum_cliques(bridged)
    rel = build_relation(bridged, cliques)
    # vertices 3 and 4 carry the bridge: labelling both 1 is inadmissible
    assert (1, 2, 2, 0) not in rel
    assert (1, 2, 2, 1) in rel


def test_single_clique_relation():
    g = gen_disconnected(1, 3)
    rel = build_relation(g, enumerate_maximum_cliques(g))
    assert rel.tuples == tuple((1, a, 1, a) for a in range(3))


def test_disconnected_two_by_two_count():
    g = gen_disconnected(2, 2)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    # oracle: count all tuples passing the rule-by-rule check
    count = sum(
        consistency_oracle(g, cliques, x, a, y, b)
        for x in (1, 2) for a in (0, 1) for y in (1, 2) for b in (0, 1)
    )
    assert rel.size == count == 12


def test_relation_symmetry(chain5):
    rels = [chain5[2]]
    for g in [gen_disconnected(3, 2), gen_nncc(3, 3, 1), gen_paley(5), gen_paley(13)]:
        rels.append(build_relation(g, enumerate_maximum_cliques(g)))
    for rel in rels:
        for x, a, y, b in rel.tuples:
            assert (y, b, x, a) in rel


def test_shared_vertex_forcing(chain5):
    _, _, rel = chain5
    assert rel.valid_outputs(1, 2, 2) == (0,)
    assert rel.valid_outputs(2, 0, 1) == (2,)


def test_totality_and_diagonal(chain5):
    _, _, rel = chain5
    for x in (1, 2):
        for a in range(3):
            assert rel.valid_outputs(x, a, x) == (a,)
            for y in (1, 2):
                assert rel.valid_outputs(x, a, y)


@pytest.mark.parametrize("n,omega", [(n, w) for n in (1, 2, 3, 4) for w in (2, 3, 4)])
def test_infer_graph_round_trip_disconnected(n, omega):
    g = gen_disconnected(n, omega)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    recovered, classes = infer_graph(rel, rel.n, rel.omega)
    assert recovered == g
    assert len(classes) == g.order


@pytest.mark.parametrize("n,omega,r", [(2, 3, 1), (3, 3, 1), (4, 3, 1),
                                       (2, 4, 1), (3, 4, 1), (2, 5, 2)])
def test_infer_graph_round_trip_chain(n, omega, r):
    g = gen_nncc(n, omega, r)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    recovered, classes = infer_graph(rel, rel.n, rel.omega)
    assert recovered == g


@pytest.mark.parametrize("q", [5, 13])
def test_infer_graph_round_trip_paley(q):
    g = gen_paley(q)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    recovered, classes = infer_graph(rel, rel.n, rel.omega)
    # align recovered classes with original vertices through clique membership
    mapping = {}
    for idx, members in enumerate(classes, start=1):
        x, a = members[0]
        mapping[idx] = cliques.clique(x)[a]
    assert recovered.order == g.order
    remapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in recovered.edges}
    assert remapped == set(g.edges)


def test_infer_graph_rejects_broken_diagonal():
    g = gen_disconnected(2, 2)
    rel = build_relation(g, enumerate_maximum_cliques(g))
    bad = tuple(t for t in rel.tuples if t != (1, 0, 1, 0)) + ((1, 0, 1, 1),)
    with pytest.raises(InconsistentRelationError):
        infer_graph(Relation(2, 2, tuple(sorted(bad))), 2, 2)


def test_relation_json_round_trip(chain5):
    _, _, rel = chain5
    assert Relation.from_json(rel.to_json()).tuples == rel.tuples
