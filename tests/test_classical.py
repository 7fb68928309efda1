import random
from fractions import Fraction

import pytest

from cliquecomm import (
    CapExceededError,
    ConditionsNotMetError,
    Graph,
    SearchExhaustedError,
    build_relation,
    ccr_protocol,
    check_consistency,
    check_coverage,
    check_optimality,
    enumerate_consistent_strategies,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    gen_paley,
    is_orthogonal_array,
    min_oa_rows,
    mixture_for_coverage,
    mixture_for_optimality,
    payoff,
    sccr_protocol,
    strategy_partition,
    verify_classical_lower_bound,
)


def setup_graph(g):
    cliques = enumerate_maximum_cliques(g)
    return g, cliques, build_relation(g, cliques)


def test_ccr_chain5(chain5):
    g, cliques, rel = chain5
    s = ccr_protocol(g, cliques, rel)
    assert s.m == 3 and s.deterministic
    assert check_consistency(s.table(2, 3), rel)[0]
    # the shared vertex pins label 2 of the first clique to label 0 of the second
    part = strategy_partition(s)
    assert ((1, 2), (2, 0)) in part
    # lexicographic tie-break picks the swap-free pairing first
    assert part == (((1, 0), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 0)))


def test_ccr_single_clique():
    g, cliques, rel = setup_graph(gen_disconnected(1, 4))
    s = ccr_protocol(g, cliques, rel)
    assert s.m == 4
    assert all(s.encoder[(1, a)] == a for a in range(4))


def test_ccr_disconnected_lex_first():
    g, cliques, rel = setup_graph(gen_disconnected(3, 2))
    s = ccr_protocol(g, cliques, rel)
    assert strategy_partition(s) == (
        ((1, 0), (2, 0), (3, 0)),
        ((1, 1), (2, 1), (3, 1)),
    )


def test_enumerate_chain5_two_patterns(chain5):
    g, cliques, rel = chain5
    pool = enumerate_consistent_strategies(g, cliques, rel)
    assert len(pool) == 2
    partitions = {strategy_partition(s) for s in pool}
    assert partitions == {
        (((1, 0), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 0))),
        (((1, 0), (2, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 0))),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumerate_disconnected_counts(n):
    g, cliques, rel = setup_graph(gen_disconnected(n, 2))
    pool = enumerate_consistent_strategies(g, cliques, rel)
    assert len(pool) == 2 ** (n - 1)
    tables = {tuple(map(tuple, s.table(n, 2).entries)) for s in pool}
    assert len(tables) == len(pool)


def test_enumerate_single_clique():
    g, cliques, rel = setup_graph(gen_disconnected(1, 3))
    assert len(enumerate_consistent_strategies(g, cliques, rel)) == 1


def test_strategy_tables_symmetric_permutation_blocks(chain5):
    g, cliques, rel = chain5
    for s in enumerate_consistent_strategies(g, cliques, rel):
        t = s.table(rel.n, rel.omega)
        size = rel.n * rel.omega
        m = [[t.entry_by_index(r, c) for c in range(size)] for r in range(size)]
        for r in range(size):
            for c in range(size):
                assert m[r][c] == m[c][r]
        for x in range(rel.n):
            for y in range(rel.n):
                block = [[m[x * 3 + i][y * 3 + j] for j in range(3)] for i in range(3)]
                assert all(sum(row) == 1 for row in block)
                assert all(sum(col) == 1 for col in zip(*block))


def test_sccr_chain5(chain5):
    g, cliques, rel = chain5
    s = sccr_protocol(g, cliques, rel)
    assert s.m == 5
    t = s.table(rel.n, rel.omega)
    report = payoff(t, rel)
    assert report.value == Fraction(1, 2)
    assert check_consistency(t, rel)[0] and check_coverage(t, rel)[0]


@pytest.mark.parametrize("n,omega", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_sccr_message_counts(n, omega):
    g, cliques, rel = setup_graph(gen_disconnected(n, omega))
    assert sccr_protocol(g, cliques, rel).m == n * omega


def test_sccr_single_clique_payoff_one():
    g, cliques, rel = setup_graph(gen_disconnected(1, 3))
    s = sccr_protocol(g, cliques, rel)
    assert s.m == 3
    report = payoff(s.table(1, 3), rel)
    assert report.value == 1 and report.max_valid_outputs == 1
    assert check_optimality(s.table(1, 3), rel)


def test_sccr_requires_coverage():
    g = Graph(3, [(1, 2)])
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    with pytest.raises(ConditionsNotMetError):
        sccr_protocol(g, cliques, rel)


def test_sccr_skips_the_connectivity_search(monkeypatch):
    # sccr reads only G0 and G1, so it runs no connectivity search
    from cliquecomm import graphs

    def fail(g):
        raise AssertionError("complement connectivity computed")

    monkeypatch.setattr(graphs, "_complement_connectivity", fail)
    g, cliques, rel = setup_graph(gen_paley(13))
    assert sccr_protocol(g, cliques, rel).m == 13


def test_lower_bound_chain5(chain5):
    g, cliques, rel = chain5
    assert verify_classical_lower_bound(g, cliques, rel, 4)
    assert not verify_classical_lower_bound(g, cliques, rel, 5)


def test_lower_bound_single_clique_pigeonhole():
    g, cliques, rel = setup_graph(gen_disconnected(1, 3))
    assert verify_classical_lower_bound(g, cliques, rel, 2)


@pytest.mark.parametrize("make", [
    lambda: gen_disconnected(2, 2),
    lambda: gen_disconnected(3, 2),
    lambda: gen_disconnected(2, 3),
    lambda: gen_nncc(2, 3, 1),
    lambda: gen_paley(5),
])
def test_lower_bound_one_below_order(make):
    g, cliques, rel = setup_graph(make())
    assert g.order <= 7
    assert verify_classical_lower_bound(g, cliques, rel, g.order - 1)


def test_randomized_encoders_beat_the_bound_on_three_cliques():
    # with a randomized encoder the order-of-graph bound is not tight here:
    # five messages cover all of disc(3,2) while the deterministic bound is 6
    from cliquecomm import randomized_encoding_feasible

    g, cliques, rel = setup_graph(gen_disconnected(3, 2))
    witness = randomized_encoding_feasible(g, cliques, rel, 5)
    assert witness is not None and len(witness) == 5
    assert verify_classical_lower_bound(g, cliques, rel, 5)
    # the chain graph admits no such shortcut one message below its order
    g, cliques, rel = setup_graph(gen_nncc(2, 3, 1))
    assert randomized_encoding_feasible(g, cliques, rel, 4) is None


@pytest.mark.parametrize("n", list(range(2, 9)))
def test_coverage_mixture_disconnected(n):
    g, cliques, rel = setup_graph(gen_disconnected(n, 2))
    mix = mixture_for_coverage(g, cliques, rel)
    assert mix.coin_inputs == n
    t = mix.table(n, 2)
    assert check_consistency(t, rel)[0] and check_coverage(t, rel)[0]
    assert payoff(t, rel).value == Fraction(1, n)


def test_coverage_mixture_chain5(chain5):
    g, cliques, rel = chain5
    mix = mixture_for_coverage(g, cliques, rel)
    assert mix.coin_inputs == 2
    assert payoff(mix.table(2, 3), rel).value == Fraction(1, 2)


def test_coverage_mixture_single_clique():
    g, cliques, rel = setup_graph(gen_disconnected(1, 3))
    mix = mixture_for_coverage(g, cliques, rel)
    assert mix.coin_inputs == 1


def test_coverage_mixture_falls_back_to_every_strategy():
    # no single-clique variant of the canonical strategy reaches every
    # admissible tuple of this chain; the 36 consistent strategies together do
    g, cliques, rel = setup_graph(gen_nncc(3, 4, 1))
    pool = enumerate_consistent_strategies(g, cliques, rel)
    mix = mixture_for_coverage(g, cliques, rel)
    assert len(pool) == 36 and mix.strategies == tuple(pool)
    assert set(mix.weights) == {Fraction(1, 36)}
    t = mix.table(3, 4)
    assert check_consistency(t, rel)[0] and check_coverage(t, rel)[0]


def test_coverage_mixture_raises_when_no_strategy_reaches_a_tuple():
    # the path 4-2-1-3: its three edges admit consistent strategies, and some
    # admissible tuple is chosen by none of them
    g, cliques, rel = setup_graph(Graph(4, [(1, 2), (1, 3), (2, 4)]))
    assert enumerate_consistent_strategies(g, cliques, rel)
    with pytest.raises(SearchExhaustedError, match="no consistent strategy reaches"):
        mixture_for_coverage(g, cliques, rel)


def test_coverage_mixture_fallback_respects_the_strategy_cap(monkeypatch):
    from cliquecomm import classical

    g, cliques, rel = setup_graph(gen_nncc(3, 4, 1))
    monkeypatch.setattr(classical, "STRATEGY_CAP", 35)
    with pytest.raises(CapExceededError):
        mixture_for_coverage(g, cliques, rel)


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 4)])
def test_optimal_mixture_sizes(n, expected):
    g, cliques, rel = setup_graph(gen_disconnected(n, 2))
    mix = mixture_for_optimality(g, cliques, rel)
    assert mix.coin_inputs == expected
    t = mix.table(n, 2)
    assert check_optimality(t, rel)
    assert payoff(t, rel).value == Fraction(1, 2)


def test_optimal_mixture_rows_form_orthogonal_array():
    g, cliques, rel = setup_graph(gen_disconnected(4, 2))
    mix = mixture_for_optimality(g, cliques, rel)
    rows = []
    for s in mix.strategies:
        # block (C_1, C_i) is a swap exactly when message 0 decodes to 1
        rows.append(tuple(s.decoder[(0, y)][0][0] for y in range(2, 5)))
    assert sorted(rows) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert is_orthogonal_array(rows)


def test_optimal_mixture_chain5(chain5):
    g, cliques, rel = chain5
    mix = mixture_for_optimality(g, cliques, rel)
    assert mix.coin_inputs == 2
    assert check_optimality(mix.table(2, 3), rel)


def test_is_orthogonal_array_basics():
    assert is_orthogonal_array([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert is_orthogonal_array([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not is_orthogonal_array([(0, 0), (0, 0), (1, 1), (1, 1)])


def test_orthogonal_array_invariances():
    rng = random.Random(3)
    rows = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    for _ in range(20):
        perm_rows = rng.sample(rows, len(rows))
        cols = list(range(3))
        rng.shuffle(cols)
        flip = [rng.randint(0, 1) for _ in cols]
        transformed = [
            tuple(r[c] ^ f for c, f in zip(cols, flip)) for r in perm_rows
        ]
        assert is_orthogonal_array(transformed)


def test_min_oa_rows_small():
    assert min_oa_rows(1) == 2
    assert min_oa_rows(2) == 4
    assert min_oa_rows(3) == 4
    assert min_oa_rows(4) == 8


def test_min_oa_rows_up_to_seven_columns():
    # eight rows keep working up to seven columns (one per nonzero parity)
    for k in (5, 6, 7):
        assert min_oa_rows(k) == 8


def test_coverage_mixture_extends_to_larger_cliques():
    from fractions import Fraction as F

    g, cliques, rel = setup_graph(gen_disconnected(2, 3))
    mix = mixture_for_coverage(g, cliques, rel)
    t = mix.table(2, 3)
    assert check_coverage(t, rel)[0]
    assert payoff(t, rel).value == F(1, 3)
