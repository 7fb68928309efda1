"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import cliquecomm as cc
from conftest import CHAIN5_RELATION


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def setup_graph(g):
    cliques = cc.enumerate_maximum_cliques(g)
    return g, cliques, cc.build_relation(g, cliques)


@pytest.fixture(scope="module")
def chain():
    return setup_graph(cc.gen_nncc(2, 3, 1))


def test_criterion_1_relation_fidelity(chain):
    with criterion(1, "relation of the two-triangle chain matches the published 16 tuples"):
        _, _, rel = chain
        assert set(rel.tuples) == CHAIN5_RELATION
        assert rel.size == 16


def test_criterion_2_ccr_partitions(chain):
    with criterion(2, "3-message protocol found; exactly the two admissible label pairings"):
        g, cliques, rel = chain
        strategy = cc.ccr_protocol(g, cliques, rel)
        assert strategy.m == 3
        table = strategy.table(rel.n, rel.omega)
        assert cc.check_consistency(table, rel)[0]

        published = (((1, 0), (2, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 0)))
        lex_first = (((1, 0), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 0)))
        # the documented tie-break (lexicographic bijections) returns the
        # swap-free pairing; the published one is the other admissible pattern
        assert cc.strategy_partition(strategy) == lex_first

        pool = cc.enumerate_consistent_strategies(g, cliques, rel)
        assert len(pool) == 2
        assert {cc.strategy_partition(s) for s in pool} == {published, lex_first}


def test_criterion_3_sccr_and_lower_bounds(chain):
    with criterion(3, "5 messages with payoff 1/2; 4 messages provably insufficient"):
        g, cliques, rel = chain
        strategy = cc.sccr_protocol(g, cliques, rel)
        assert strategy.m == 5
        table = strategy.table(rel.n, rel.omega)
        assert cc.payoff(table, rel).value == Fraction(1, 2)
        assert cc.check_consistency(table, rel)[0]
        assert cc.check_coverage(table, rel)[0]
        assert cc.verify_classical_lower_bound(g, cliques, rel, 4)

        for make in (cc.gen_disconnected(2, 2), cc.gen_nncc(2, 3, 1)):
            g2, cliques2, rel2 = setup_graph(make)
            assert cc.verify_classical_lower_bound(g2, cliques2, rel2, g2.order - 1)


def test_criterion_4_unbounded_gap_table():
    with criterion(4, "classical messages grow as 2n while quantum dimension stays 2"):
        for n in range(2, 7):
            g, cliques, rel = setup_graph(cc.gen_disconnected(n, 2))
            assert cc.sccr_protocol(g, cliques, rel).m == 2 * n
            rep = cc.build_representation(g, cliques)
            assert rep.d == 2
            table = cc.quantum_table(cc.QuantumStrategy.create(rep, g, cliques), rel)
            assert cc.check_consistency(table, rel)[0]
            assert cc.check_coverage(table, rel)[0]


def test_criterion_5_paley_exactness():
    with criterion(5, "Paley identities, spectra, ranks, and payoffs for q in {5,13,17,29}"):
        from cliquecomm.paley import (
            adjacency_spectrum,
            expected_adjacency_spectrum,
            extract_vectors,
            spectrum_matches,
        )

        for q in (5, 13, 17, 29):
            assert cc.verify_character_square(q)
            assert spectrum_matches(adjacency_spectrum(q), expected_adjacency_spectrum(q))
            report = cc.optimal_gram(q)
            assert report.rank == (q + 1) // 2
            assert abs(report.entry_sum - q ** 1.5) <= 1e-6
            rep = extract_vectors(report)
            graph = cc.gen_paley(q)
            assert cc.verify_representation(rep, graph).ok
            want = (2 / (math.sqrt(q) + 1)) ** 2
            assert abs(cc.representation_payoff(rep, graph) - want) <= 1e-8

        # whole-table check on the small instances: raw measurement overlaps
        for q in (5, 13):
            g, cliques, rel = setup_graph(cc.gen_paley(q))
            rep = extract_vectors(cc.optimal_gram(q))
            table = cc.quantum_table(
                cc.QuantumStrategy.create(rep, g, cliques), rel, completion="omit"
            )
            want = (2 / (math.sqrt(q) + 1)) ** 2
            assert abs(float(cc.payoff(table, rel).value) - want) <= 1e-8


def test_criterion_6_public_coin_mixtures():
    with criterion(6, "coverage mixtures pay 1/n; optimal mixtures need {2,4,4} strategies"):
        for n in range(2, 7):
            g, cliques, rel = setup_graph(cc.gen_disconnected(n, 2))
            mix = cc.mixture_for_coverage(g, cliques, rel)
            table = mix.table(n, 2)
            assert cc.payoff(table, rel).value == Fraction(1, n)
            assert cc.check_consistency(table, rel)[0]
            assert cc.check_coverage(table, rel)[0]
        for n, expected in [(2, 2), (3, 4), (4, 4)]:
            g, cliques, rel = setup_graph(cc.gen_disconnected(n, 2))
            mix = cc.mixture_for_optimality(g, cliques, rel)
            assert mix.coin_inputs == expected
            assert cc.check_optimality(mix.table(n, 2), rel)
        assert cc.min_oa_rows(2) == 4
        assert cc.min_oa_rows(3) == 4


def test_criterion_7_mub_bound():
    with criterion(7, "qubit payoff reaches 1/2 with three bases and falls short with four"):
        g3, cliques3, _ = setup_graph(cc.gen_disconnected(3, 2))
        res3 = cc.optimize_payoff(g3, cliques3, 2, restarts=32, seed=0)
        assert res3.payoff >= 0.5 - 1e-6

        g4, cliques4, _ = setup_graph(cc.gen_disconnected(4, 2))
        res4 = cc.optimize_payoff(g4, cliques4, 2, restarts=32, seed=0)
        assert res4.payoff <= 0.5 - 0.01


def test_criterion_8_rsp_payoff():
    with criterion(8, "four symmetric equatorial bases pay sin^2(pi/8)"):
        report = cc.rsp_payoff(cc.symmetric_equatorial_angles(4))
        assert abs(report.payoff - math.sin(math.pi / 8) ** 2) <= 1e-12


def test_criterion_9_reconstruction(chain):
    with criterion(9, "exact success matches Monte Carlo; deterministic tables never reconstruct; families round-trip"):
        g, cliques, rel = chain
        best = cc.mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
        trials = 10_000
        for k in (50, 200, 1000):
            exact = cc.success_prob_exact(best, rel, k)
            rate, _ = cc.mc_success_rate(best, rel, k, trials=trials, seed=123)
            sigma = math.sqrt(max(exact * (1 - exact), 0.0) / trials)
            assert abs(rate - exact) <= 3 * sigma + 1e-9, (k, exact, rate)

        det = cc.ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
        for k in (1, 10, 100, 10_000):
            assert cc.success_prob_exact(det, rel, k) == 0.0

        cases = [cc.gen_disconnected(n, w) for n in (2, 3, 4) for w in (2, 3)]
        cases += [cc.gen_nncc(n, 3, 1) for n in (2, 3, 4)]
        for graph in cases:
            _, cliques2, rel2 = setup_graph(graph)
            table = cc.sccr_protocol(graph, cliques2, rel2).table(rel2.n, rel2.omega)
            k = 500 * rel2.n * rel2.n * rel2.omega
            log = cc.simulate_rounds(table, k, seed=11)
            res = cc.reconstruct(log, rel2.n, rel2.omega, truth=rel2)
            assert res.success, graph
            assert res.inferred_graph == graph

        for q in (5, 13):
            graph = cc.gen_paley(q)
            _, cliques2, rel2 = setup_graph(graph)
            table = cc.sccr_protocol(graph, cliques2, rel2).table(rel2.n, rel2.omega)
            k = 120 * rel2.n * rel2.n * rel2.omega
            log = cc.simulate_rounds(table, k, seed=11)
            res = cc.reconstruct(log, rel2.n, rel2.omega, truth=rel2)
            assert res.success, q
            mapping = {
                idx: cliques2.clique(x)[a]
                for idx, members in enumerate(res.inferred_classes, start=1)
                for x, a in members[:1]
            }
            remapped = {
                tuple(sorted((mapping[u], mapping[v])))
                for u, v in res.inferred_graph.edges
            }
            assert remapped == set(graph.edges)


def test_criterion_10_dimension_witness(chain):
    with criterion(10, "dimension claim appears exactly on the ten intact tables of twenty"):
        g, cliques, rel = chain
        rng = np.random.default_rng(2024)
        pool = cc.enumerate_consistent_strategies(g, cliques, rel)
        size = rel.n * rel.omega

        valid_tables = []
        for i in range(10):
            w = Fraction(int(rng.integers(1, 10)), 1)
            weights = [w, Fraction(10) - w]
            weights = [x / 10 for x in weights]
            valid_tables.append(
                cc.mix_tables(list(zip([s.table(2, 3) for s in pool], weights)))
            )

        excluded = [
            (x, a, y, b)
            for x in (1, 2) for a in range(3) for y in (1, 2) for b in range(3)
            if (x, a, y, b) not in rel
        ]
        perturbed_tables = []
        for i in range(10):
            base = valid_tables[i]
            arr = np.array([[float(e) for e in row] for row in base.entries])
            x, a, y, b = excluded[int(rng.integers(0, len(excluded)))]
            r = (x - 1) * 3 + a
            eps = 1e-6
            block = slice((y - 1) * 3, y * 3)
            donor = (y - 1) * 3 + b
            row = arr[r, block]
            take = int(np.argmax(row))
            arr[r, (y - 1) * 3 + take] -= eps
            arr[r, donor] += eps
            perturbed_tables.append(cc.ProbTable(2, 3, arr, kind="float"))

        for t in valid_tables:
            assert cc.dimension_witness(t, rel, 3).claimed_dimension == 3
        for t in perturbed_tables:
            assert cc.dimension_witness(t, rel, 3).claimed_dimension is None
