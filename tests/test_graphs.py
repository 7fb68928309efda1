import itertools

import pytest

from cliquecomm import (
    EmptyGraphError,
    Graph,
    InvalidParamsError,
    check_conditions,
    complement,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    gen_paley,
)
from conftest import brute_force_max_cliques, g1_oracle


def test_disconnected_shapes():
    tri = gen_disconnected(1, 3)
    assert tri.order == 3 and tri.edge_count == 3

    two = gen_disconnected(2, 3)
    assert two.order == 6
    assert not two.adjacent(1, 4)
    cs = enumerate_maximum_cliques(two)
    assert cs.cliques == ((1, 2, 3), (4, 5, 6))

    four = gen_disconnected(4, 2)
    assert four.order == 8 and four.edge_count == 4


def test_disconnected_clique_layout():
    # vertex i of clique k is (k-1)*omega + i, and blocks never touch
    for n, omega in [(2, 2), (3, 3), (4, 2)]:
        g = gen_disconnected(n, omega)
        cs = enumerate_maximum_cliques(g)
        assert cs.count == n and cs.omega == omega
        for k in range(1, n + 1):
            assert cs.clique(k) == tuple(range((k - 1) * omega + 1, k * omega + 1))


def test_nncc_order_formula():
    assert gen_nncc(2, 3, 1).order == 5
    assert gen_nncc(1, 3, 1).order == 3
    g = gen_nncc(3, 5, 2)
    assert g.order == 3 * 3 + 2 == 11
    cs = enumerate_maximum_cliques(g)
    assert cs.count == 3 and cs.omega == 5
    for i in range(cs.count - 1):
        shared = set(cs.clique(i + 1)) & set(cs.clique(i + 2))
        assert len(shared) == 2
    assert not set(cs.clique(1)) & set(cs.clique(3))


def test_nncc_rejects_bad_overlap():
    with pytest.raises(InvalidParamsError):
        gen_nncc(2, 4, 2)  # r must stay below omega/2
    with pytest.raises(InvalidParamsError):
        gen_nncc(2, 3, 0)


def test_paley5_is_pentagon():
    g = gen_paley(5)
    assert g.order == 5
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
    cs = enumerate_maximum_cliques(g)
    assert cs.omega == 2 and cs.count == 5
    assert list(cs.cliques) == brute_force_max_cliques(g)


def test_paley13_regularity():
    q = 13
    g = gen_paley(q)
    assert all(g.degree(v) == (q - 1) // 2 for v in g.vertices)
    assert g.edge_count == q * (q - 1) // 4
    for u, v in itertools.combinations(g.vertices, 2):
        common = len(g.neighbors(u) & g.neighbors(v))
        if g.adjacent(u, v):
            assert common == (q - 5) // 4
        else:
            assert common == (q - 1) // 4


def test_paley_adjacency_is_circulant():
    q = 13
    g = gen_paley(q)
    for u, v in itertools.combinations(g.vertices, 2):
        u2 = (u % q) + 1
        v2 = (v % q) + 1
        assert g.adjacent(u, v) == g.adjacent(u2, v2)


def test_paley_rejects_bad_q():
    with pytest.raises(InvalidParamsError):
        gen_paley(9)  # prime power, not prime
    with pytest.raises(InvalidParamsError):
        gen_paley(7)  # 3 mod 4
    with pytest.raises(InvalidParamsError):
        gen_paley(12)


def test_enumerate_triangle_and_chain(chain5):
    tri = gen_disconnected(1, 3)
    assert enumerate_maximum_cliques(tri).cliques == ((1, 2, 3),)
    _, cliques, _ = chain5
    assert cliques.cliques == ((1, 2, 3), (3, 4, 5))


def test_enumerate_keeps_only_largest():
    # a triangle with a pendant edge: the 2-cliques are maximal but not maximum
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    cs = enumerate_maximum_cliques(g)
    assert cs.cliques == ((1, 2, 3),)


def test_enumerate_empty_graph():
    with pytest.raises(EmptyGraphError):
        enumerate_maximum_cliques(Graph(0, []))


def test_complement_involution_and_complete():
    for g in [gen_disconnected(2, 3), gen_nncc(2, 3, 1), gen_paley(5)]:
        assert complement(complement(g)) == g
    k4 = gen_disconnected(1, 4)
    assert complement(k4).edge_count == 0


def test_paley_self_complementary():
    # complement matches on degree sequence and common-neighbour counts
    for q in (5, 13):
        g = gen_paley(q)
        h = complement(g)
        assert sorted(g.degree(v) for v in g.vertices) == sorted(
            h.degree(v) for v in h.vertices
        )
        def counts(graph):
            adj, non = [], []
            for u, v in itertools.combinations(graph.vertices, 2):
                c = len(graph.neighbors(u) & graph.neighbors(v))
                (adj if graph.adjacent(u, v) else non).append(c)
            return sorted(adj), sorted(non)
        assert counts(g) == counts(h)


def test_conditions_on_families(chain5):
    g, cliques, _ = chain5
    rep = check_conditions(g, cliques)
    assert rep.covers_all_vertices and rep.pairs_distinguishable

    disc = gen_disconnected(2, 3)
    rep = check_conditions(disc, enumerate_maximum_cliques(disc))
    assert rep.covers_all_vertices and rep.pairs_distinguishable

    tri = gen_disconnected(1, 3)
    rep = check_conditions(tri, enumerate_maximum_cliques(tri))
    assert rep.pairs_distinguishable  # vacuous: only one clique

    p13 = gen_paley(13)
    rep = check_conditions(p13, enumerate_maximum_cliques(p13))
    assert rep.covers_all_vertices and rep.pairs_distinguishable


def test_condition_g0_fails_with_uncovered_vertex():
    g = Graph(3, [(1, 2)])
    rep = check_conditions(g, enumerate_maximum_cliques(g))
    assert not rep.covers_all_vertices


def test_g1_matches_triple_loop_oracle():
    import random

    graphs = [
        gen_disconnected(2, 2),
        gen_disconnected(2, 3),
        gen_disconnected(3, 2),
        gen_nncc(2, 3, 1),
        gen_paley(5),
        Graph(4, [(1, 2), (3, 4), (2, 3)]),
    ]
    rng = random.Random(11)
    for _ in range(40):
        nv = rng.randint(2, 8)
        edges = [e for e in itertools.combinations(range(1, nv + 1), 2)
                 if rng.random() < 0.45]
        if not edges:
            continue
        graphs.append(Graph(nv, edges))
    for g in graphs:
        cliques = enumerate_maximum_cliques(g)
        rep = check_conditions(g, cliques)
        assert rep.pairs_distinguishable == g1_oracle(g, cliques), g


def test_general_position_dimension():
    for n, omega in [(2, 2), (3, 2), (2, 3)]:
        g = gen_disconnected(n, omega)
        rep = check_conditions(g, enumerate_maximum_cliques(g))
        assert rep.general_position_dim == omega
    p13 = gen_paley(13)
    rep = check_conditions(p13, enumerate_maximum_cliques(p13))
    assert rep.general_position_dim == (13 + 1) // 2


def test_general_position_dim_cap():
    p17 = gen_paley(17)
    rep = check_conditions(p17, enumerate_maximum_cliques(p17))
    assert rep.general_position_dim == 9


def test_graph_json_round_trip(chain5):
    g, _, _ = chain5
    assert Graph.from_json(g.to_json()) == g
    data = g.to_json()
    assert all(i < j for i, j in data["edges"])


def test_general_position_dim_matches_subset_search_oracle():
    # brute force: the smallest vertex set whose removal disconnects the
    # complement (complete complements count as inseparable)
    def oracle(g):
        comp = complement(g)
        verts = list(comp.vertices)

        def connected_after(removed):
            left = [v for v in verts if v not in removed]
            if len(left) <= 1:
                return True
            seen = {left[0]}
            stack = [left[0]]
            while stack:
                u = stack.pop()
                for w in comp.neighbors(u):
                    if w not in removed and w not in seen:
                        seen.add(w)
                        stack.append(w)
            return len(seen) == len(left)

        for size in range(0, g.order - 1):
            for removed in itertools.combinations(verts, size):
                if not connected_after(set(removed)):
                    return g.order - size
        return g.order - (g.order - 1)

    for g in [gen_disconnected(2, 2), gen_disconnected(3, 2), gen_disconnected(2, 3),
              gen_nncc(2, 3, 1), gen_nncc(3, 3, 1), gen_paley(5),
              Graph(4, [(1, 2), (2, 3), (3, 4)])]:
        rep = check_conditions(g, enumerate_maximum_cliques(g))
        assert rep.general_position_dim == oracle(g), g
