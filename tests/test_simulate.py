import itertools
import math

import numpy as np
import pytest

from cliquecomm import (
    InvalidParamsError,
    ProbTable,
    QuantumStrategy,
    build_relation,
    build_representation,
    ccr_protocol,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    gen_paley,
    mc_success_rate,
    mixture_for_optimality,
    payoff_vs_rounds_report,
    quantum_table,
    reconstruct,
    sccr_protocol,
    simulate_rounds,
    success_prob_exact,
)
from cliquecomm.simulate import success_curve_csv, tuple_probabilities


def setup_graph(g):
    cliques = enumerate_maximum_cliques(g)
    return g, cliques, build_relation(g, cliques)


def test_zero_rounds_empty_log(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    log = simulate_rounds(t, 0, seed=1)
    assert log.rounds == () and log.k == 0
    assert log.generator == "pcg64"


def test_seed_reproducibility(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    a = simulate_rounds(t, 500, seed=9)
    b = simulate_rounds(t, 500, seed=9)
    c = simulate_rounds(t, 500, seed=10)
    assert a.rounds == b.rounds
    assert a.rounds != c.rounds


def test_deterministic_table_fixed_outputs(chain5):
    g, cliques, rel = chain5
    t = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    log = simulate_rounds(t, 400, seed=3)
    by_input = {}
    for x, a, y, b in log.rounds:
        by_input.setdefault((x, a, y), set()).add(b)
    assert all(len(bs) == 1 for bs in by_input.values())


def test_observed_frequencies_match_table(chain5):
    g, cliques, rel = chain5
    t = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    k = 100_000
    log = simulate_rounds(t, k, seed=17)
    counts = {}
    for tup in log.rounds:
        counts[tup] = counts.get(tup, 0) + 1
    probs = tuple_probabilities(t, rel)
    for tup, p in zip(rel.tuples, probs):
        got = counts.get(tup, 0)
        sigma = math.sqrt(k * p * (1 - p))
        assert abs(got - k * p) <= 4 * sigma + 1e-9, tup


def test_only_admissible_tuples_observed(chain5):
    g, cliques, rel = chain5
    rep = build_representation(g, cliques)
    t = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    log = simulate_rounds(t, 5000, seed=2)
    assert set(log.rounds) <= set(rel.tuples)


def test_reconstruct_single_round_insufficient(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    log = simulate_rounds(t, 1, seed=0)
    res = reconstruct(log, rel.n, rel.omega, truth=rel)
    assert not res.inputs_covered and res.success is False


def test_reconstruct_success_and_graph(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    log = simulate_rounds(t, 2500, seed=21)
    res = reconstruct(log, rel.n, rel.omega, truth=rel)
    assert res.success and res.inputs_covered
    assert res.inferred_graph == g


def test_reconstruct_never_succeeds_deterministically(chain5):
    g, cliques, rel = chain5
    t = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    for seed in range(5):
        log = simulate_rounds(t, 4000, seed=seed)
        res = reconstruct(log, rel.n, rel.omega, truth=rel)
        assert res.success is False


def test_success_prob_zero_iff_coverage_fails(chain5):
    g, cliques, rel = chain5
    det = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    assert all(success_prob_exact(det, rel, k) == 0.0 for k in (1, 10, 1000))
    good = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    assert success_prob_exact(good, rel, 400) > 0.999


def test_success_prob_single_clique_closed_form():
    g, cliques, rel = setup_graph(gen_disconnected(1, 2))
    t = sccr_protocol(g, cliques, rel).table(1, 2)
    # two coupons of probability 1/2 each: P_k = 1 - 2 (1/2)^k + 0^k
    for k in (1, 2, 3, 6, 10):
        expected = 1 - 2 * 0.5 ** k + (0.0 if k else 1.0)
        assert success_prob_exact(t, rel, k) == pytest.approx(expected, abs=1e-12)


def test_success_prob_matches_sequence_enumeration():
    # independent oracle: enumerate all k-round outcome sequences of a
    # two-clique table and add up those covering the whole relation
    g, cliques, rel = setup_graph(gen_disconnected(2, 2))
    t = mixture_for_optimality(g, cliques, rel).table(2, 2)
    probs = tuple_probabilities(t, rel)
    k = 3  # k < size gives 0; also check a couple of small nonzero cases
    assert success_prob_exact(t, rel, k) == 0.0

    g1, cliques1, rel1 = setup_graph(gen_disconnected(1, 2))
    t1 = sccr_protocol(g1, cliques1, rel1).table(1, 2)
    probs1 = tuple_probabilities(t1, rel1)
    for k in (2, 3, 4):
        total = 0.0
        for seq in itertools.product(range(rel1.size), repeat=k):
            if set(seq) == set(range(rel1.size)):
                p = 1.0
                for i in seq:
                    p *= probs1[i]
                total += p
        assert success_prob_exact(t1, rel1, k) == pytest.approx(total, abs=1e-12)


def test_success_prob_monotone_and_limits(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    values = [success_prob_exact(t, rel, k) for k in (16, 32, 64, 128, 512, 2000)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > 1 - 1e-6


def test_negative_rounds_and_trials_are_rejected(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    with pytest.raises(InvalidParamsError, match="k must be nonnegative"):
        success_prob_exact(t, rel, -5)
    with pytest.raises(InvalidParamsError, match="k must be nonnegative"):
        mc_success_rate(t, rel, -5, trials=10, seed=0)
    for trials in (0, -3):
        with pytest.raises(InvalidParamsError, match="trials must be positive"):
            mc_success_rate(t, rel, 100, trials=trials, seed=0)


def test_mc_agrees_with_exact(chain5):
    g, cliques, rel = chain5
    t = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    for k in (60, 250):
        exact = success_prob_exact(t, rel, k)
        rate, stderr = mc_success_rate(t, rel, k, trials=4000, seed=13)
        sigma = max(math.sqrt(exact * (1 - exact) / 4000), 1e-6)
        assert abs(rate - exact) <= 3.5 * sigma


def test_report_monotone_and_dominance(chain5):
    g, cliques, rel = chain5
    best = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    rows = payoff_vs_rounds_report(best, rel, [10, 50, 100, 400])
    assert all(a[1] <= b[1] + 1e-12 for a, b in zip(rows, rows[1:]))

    # degrade the forced entries by leaking mass outside the relation: the
    # degraded table is pointwise no better on the relation, so its success
    # curve is dominated at every k
    size = rel.n * rel.omega
    leaked = np.array([[float(best.entries[r][c]) for c in range(size)]
                       for r in range(size)])
    for x, a in best.rows():
        r = (x - 1) * rel.omega + a
        row_valid = rel.valid_outputs(x, a, x)
        keep = (x - 1) * rel.omega + row_valid[0]
        spill = (x - 1) * rel.omega + ((row_valid[0] + 1) % rel.omega)
        leaked[r, keep] -= 0.2
        leaked[r, spill] += 0.2
    worse = ProbTable(rel.n, rel.omega, leaked, kind="float")
    for k in (20, 80, 300):
        assert success_prob_exact(worse, rel, k) <= success_prob_exact(best, rel, k)


def test_run_log_csv(chain5):
    g, cliques, rel = chain5
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    log = simulate_rounds(t, 3, seed=4)
    lines = log.to_csv().strip().splitlines()
    assert lines[0] == "round,x,a,y,b"
    assert len(lines) == 4


def test_success_curve_csv(chain5):
    g, cliques, rel = chain5
    t = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    rows = payoff_vs_rounds_report(t, rel, [50, 100])
    text = success_curve_csv(rows)
    assert text.splitlines()[0] == "k,P_exact"
    text = success_curve_csv(rows, [(0.5, 0.01), (0.9, 0.01)])
    assert text.splitlines()[0] == "k,P_exact,P_mc,stderr"


@pytest.mark.parametrize("make", [
    lambda: gen_disconnected(2, 2),
    lambda: gen_disconnected(3, 3),
    lambda: gen_disconnected(4, 2),
    lambda: gen_nncc(2, 3, 1),
    lambda: gen_nncc(4, 3, 1),
    lambda: gen_paley(5),
])
def test_reconstruction_round_trip_families(make):
    g, cliques, rel = setup_graph(make())
    t = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    k = 400 * rel.n * rel.n * rel.omega
    log = simulate_rounds(t, k, seed=99)
    res = reconstruct(log, rel.n, rel.omega, truth=rel)
    assert res.success
    assert res.inferred_graph is not None
    assert res.inferred_graph.order == g.order
