"""The mask and numerator kernels against their per-tuple loop oracles.

Random small graphs come from hypothesis; the generator families
(disconnected, nncc, Paley) are checked by parametrization.  Runs are
derandomized so the suite gives the same verdict every time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loop_oracles as oracle
from cliquecomm import (
    Graph,
    InconsistentRelationError,
    InvalidParamsError,
    ProbTable,
    QuantumStrategy,
    Relation,
    RunLog,
    build_relation,
    build_representation,
    ccr_protocol,
    check_conditions,
    check_consistency,
    check_coverage,
    enumerate_consistent_strategies,
    enumerate_maximum_cliques,
    extract_vectors,
    gen_disconnected,
    gen_nncc,
    gen_paley,
    infer_graph,
    mc_success_rate,
    mix_tables,
    mixture_for_optimality,
    optimal_gram,
    payoff,
    quantum_table,
    reconstruct,
    sccr_protocol,
    simulate_rounds,
)
from cliquecomm import simulate
from cliquecomm.relation import row_classes
from cliquecomm.simulate import tuple_probabilities
from conftest import consistency_oracle

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

FAMILIES = {
    "disconnected(1,3)": lambda: gen_disconnected(1, 3),
    "disconnected(2,2)": lambda: gen_disconnected(2, 2),
    "disconnected(3,2)": lambda: gen_disconnected(3, 2),
    "disconnected(2,3)": lambda: gen_disconnected(2, 3),
    "disconnected(3,3)": lambda: gen_disconnected(3, 3),
    "nncc(2,3,1)": lambda: gen_nncc(2, 3, 1),
    "nncc(3,4,1)": lambda: gen_nncc(3, 4, 1),
    "nncc(2,5,2)": lambda: gen_nncc(2, 5, 2),
    "paley(5)": lambda: gen_paley(5),
    "paley(13)": lambda: gen_paley(13),
}


@st.composite
def graphs(draw, max_order=7, min_order=1):
    order = draw(st.integers(min_order, max_order))
    pairs = list(itertools.combinations(range(1, order + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(order, [p for p, k in zip(pairs, keep) if k])


def instance(g):
    cliques = enumerate_maximum_cliques(g)
    return g, cliques, build_relation(g, cliques)


def same_outcome(f, g):
    """Both calls return equal values, or both raise the same error."""
    try:
        expected = f()
    except (InconsistentRelationError, InvalidParamsError) as exc:
        with pytest.raises(type(exc)) as info:
            g()
        assert str(info.value) == str(exc)
        return None
    assert g() == expected
    return expected


# ---------------------------------------------------------------------------
# The relation mask
# ---------------------------------------------------------------------------

def check_relation(g):
    g, cliques, rel = instance(g)
    n, omega = cliques.count, cliques.omega
    loop = oracle.relation_tuples(g, cliques)
    assert rel.tuples == loop
    assert rel.size == len(loop) == int(rel.mask.sum())
    assert list(rel.tuples) == sorted(rel.tuples)
    for x, a, y, b in itertools.product(range(1, n + 1), range(omega),
                                        range(1, n + 1), range(omega)):
        inside = (x, a, y, b) in rel
        assert inside == consistency_oracle(g, cliques, x, a, y, b)
        assert inside == ((y, b, x, a) in rel)
    for x, a in itertools.product(range(1, n + 1), range(omega)):
        assert rel.valid_outputs(x, a, x) == (a,)
    assert rel.max_valid_outputs() == oracle.max_valid_outputs(rel)
    assert Relation.from_json(rel.to_json()) == rel
    assert Relation(n, omega, loop) == rel
    return g, cliques, rel


@PROPERTY
@given(graphs())
def test_mask_matches_loops_on_random_graphs(g):
    check_relation(g)


@pytest.mark.parametrize("family", FAMILIES)
def test_mask_matches_loops_on_families(family):
    check_relation(FAMILIES[family]())


def test_relation_rejects_tuples_out_of_range():
    for bad in [(0, 0, 1, 0), (1, 2, 1, 0), (1, 0, 3, 0), (1, 0, 1, -1)]:
        with pytest.raises(InvalidParamsError):
            Relation(2, 2, [bad])


MALFORMED_ROWS = [
    [[1, 0, 1], [1, 1, 1], [2, 0, 2], [2, 1, 2]],  # four triples, 12 integers
    [1, 0, 1, 0],  # one flat tuple
    [[1, 0, 1, 0], [1, 1]],  # ragged
    [[1.7, 0, 1, 0]],  # not integers
    [["1", "0", "1", "0"]],
    5,
]


@pytest.mark.parametrize("bad", MALFORMED_ROWS)
def test_relation_rejects_malformed_tuples(bad):
    with pytest.raises(InvalidParamsError):
        Relation(2, 2, bad)


def test_relation_accepts_no_tuples():
    assert Relation(2, 2, []).size == 0 and Relation(2, 2, set()).tuples == ()


def test_relation_equality_and_hash_follow_the_mask():
    rel = build_relation(gen_nncc(2, 3, 1), enumerate_maximum_cliques(gen_nncc(2, 3, 1)))
    again = Relation(rel.n, rel.omega, reversed(rel.tuples))
    assert again == rel and hash(again) == hash(rel)
    assert again.tuples == rel.tuples
    assert Relation(rel.n, rel.omega, rel.tuples[1:]) != rel


# ---------------------------------------------------------------------------
# infer_graph
# ---------------------------------------------------------------------------

def check_infer(rel):
    return same_outcome(lambda: oracle.infer_graph(rel, rel.n, rel.omega),
                        lambda: infer_graph(rel, rel.n, rel.omega))


def assert_round_trip(g, cliques, rel):
    recovered, classes = infer_graph(rel, rel.n, rel.omega)
    name = {i: cliques.clique(m[0][0])[m[0][1]] for i, m in enumerate(classes, start=1)}
    assert recovered.order == g.order
    assert {tuple(sorted((name[u], name[v]))) for u, v in recovered.edges} == set(g.edges)


@PROPERTY
@given(graphs())
def test_infer_graph_matches_loop_and_round_trips(g):
    g, cliques, rel = instance(g)
    check_infer(rel)
    if check_conditions(g, cliques).reconstruction_ready:
        assert_round_trip(g, cliques, rel)


@PROPERTY
@given(graphs(max_order=6), st.data())
def test_infer_graph_matches_loop_on_partial_supports(g, data):
    # partial or corrupted supports hit the diagonal, totality and
    # ambiguity errors, which reconstruct relies on
    _, cliques, rel = instance(g)
    size = rel.n * rel.omega
    flips = data.draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                               max_size=4))
    mask = rel.mask.copy()
    for r, c in flips:
        mask[r, c] = not mask[r, c]
    check_infer(Relation.from_mask(rel.n, rel.omega, mask))


def assert_row_classes_match_axis0(mask):
    _, first, inverse = np.unique(mask, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    class_of, count = row_classes(mask)
    assert count == len(first)
    assert np.array_equal(class_of, rank[inverse.ravel()])


@pytest.mark.parametrize("family", FAMILIES)
def test_row_classes_match_axis0_unique_on_families(family):
    assert_row_classes_match_axis0(instance(FAMILIES[family]())[2].mask)


@PROPERTY
@given(graphs(), st.data())
def test_row_classes_match_axis0_unique_on_random_masks(g, data):
    mask = instance(g)[2].mask
    assert_row_classes_match_axis0(mask)
    # rows repeated, shuffled and cut to widths that are not whole bytes
    rows = data.draw(st.lists(st.integers(0, len(mask) - 1), min_size=1, max_size=12))
    width = data.draw(st.integers(1, mask.shape[1]))
    assert_row_classes_match_axis0(mask[rows, :width])


@pytest.mark.parametrize("family", FAMILIES)
def test_infer_graph_round_trips_on_families(family):
    g, cliques, rel = instance(FAMILIES[family]())
    check_infer(rel)
    assert_round_trip(g, cliques, rel)


# ---------------------------------------------------------------------------
# Tables and the three checks
# ---------------------------------------------------------------------------

@st.composite
def exact_tables(draw, n, omega, max_den=6):
    """Random normalized Fraction rows; zeros appear often, so some tables
    are consistent and some miss coverage."""
    rows = []
    for _ in range(n * omega):
        row = []
        for _ in range(n):
            weights = draw(st.lists(st.integers(0, max_den), min_size=omega, max_size=omega))
            if not any(weights):
                weights[draw(st.integers(0, omega - 1))] = 1
            total = sum(weights)
            row += [Fraction(w, total) for w in weights]
        rows.append(row)
    return rows


def compare_checks(table, rel):
    assert check_consistency(table, rel) == oracle.check_consistency(table, rel)
    assert check_coverage(table, rel) == oracle.check_coverage(table, rel)
    report = payoff(table, rel)
    value, witness, eta = oracle.payoff(table, rel)
    assert (report.witness, report.max_valid_outputs) == (witness, eta)
    assert report.value == value
    assert report.upper_bound == Fraction(1, eta)


@PROPERTY
@given(st.sampled_from(["nncc(2,3,1)", "disconnected(2,2)", "disconnected(2,3)", "paley(5)"]),
       st.data())
def test_checks_match_loops(family, data):
    _, _, rel = instance(FAMILIES[family]())
    rows = data.draw(exact_tables(rel.n, rel.omega))
    exact = ProbTable(rel.n, rel.omega, rows, kind="exact")
    assert exact.entries == tuple(map(tuple, rows))
    compare_checks(exact, rel)
    floats = ProbTable(rel.n, rel.omega, [[float(e) for e in row] for row in rows], kind="float")
    compare_checks(floats, rel)


def test_checks_match_loops_on_families():
    for family in ("nncc(3,4,1)", "disconnected(3,3)", "paley(13)"):
        g, cliques, rel = instance(FAMILIES[family]())
        compare_checks(sccr_protocol(g, cliques, rel).table(rel.n, rel.omega), rel)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_exact_rendering_and_float_view(n, omega, data):
    # denominators up to 10**6 push the common denominator past 2**53 in
    # many draws, which exercises the Python-int numerators
    rows = data.draw(exact_tables(n, omega, max_den=10 ** 6))
    table = ProbTable(n, omega, rows, kind="exact")
    assert table.num.dtype == (object if table.den > 2 ** 53 else np.int64)
    rendered = [[f"{e.numerator}/{e.denominator}" for e in row] for row in rows]
    assert table.to_json()["entries"] == rendered
    lines = [f"# n={n} omega={omega} kind=exact"] + [",".join(r) for r in rendered]
    assert table.to_csv() == "\n".join(lines) + "\n"
    view = table.as_float()
    assert view.dtype == np.float64
    assert view.tolist() == [[float(e) for e in row] for row in rows]
    assert ProbTable.from_json(table.to_json()).entries == table.entries
    assert table.den == math.lcm(*(e.denominator for row in rows for e in row))


@PROPERTY
@given(st.integers(1, 2), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_validation_matches_loop(n, omega, exact, subnormalized, data):
    size = n * omega
    if exact:
        cell = st.fractions(min_value=-1, max_value=2, max_denominator=4)
    else:
        cell = st.floats(min_value=-0.5, max_value=1.5)
    entries = data.draw(st.lists(st.lists(cell, min_size=size, max_size=size),
                                 min_size=size, max_size=size))
    if data.draw(st.booleans()):  # often valid: normalize each block
        for row in entries:
            for y in range(n):
                block = [abs(e) for e in row[y * omega:(y + 1) * omega]]
                total = sum(block) or 1
                row[y * omega:(y + 1) * omega] = [e / total for e in block]
                if sum(block) == 0:
                    row[y * omega] = 1 if exact else 1.0
    kind = "exact" if exact else "float"

    def construct():
        ProbTable(n, omega, entries, kind=kind, subnormalized=subnormalized)

    same_outcome(lambda: oracle.validate(n, omega, entries, kind, subnormalized), construct)


def test_mixture_and_strategy_tables_match_fraction_loops():
    for family in ("nncc(2,3,1)", "disconnected(3,2)"):
        g, cliques, rel = instance(FAMILIES[family]())
        pool = enumerate_consistent_strategies(g, cliques, rel)
        sccr = sccr_protocol(g, cliques, rel)
        for s in pool + [sccr]:
            expected = oracle.strategy_entries(s, rel.n, rel.omega)
            assert s.table(rel.n, rel.omega).entries == tuple(map(tuple, expected))
        weights = [Fraction(i + 1, 1) for i in range(len(pool))] + [Fraction(3)]
        weights = [w / sum(weights) for w in weights]
        weighted = list(zip([s.table(rel.n, rel.omega) for s in pool + [sccr]], weights))
        mixed = mix_tables(weighted)
        assert mixed.entries == tuple(map(tuple, oracle.mix_entries(weighted)))
        assert mixed.den == math.lcm(*(e.denominator for row in mixed.entries for e in row))


# ---------------------------------------------------------------------------
# Quantum tables
# ---------------------------------------------------------------------------

# summation order differs from the loop (matmul against one vdot per entry);
# entries lie in [0, 1], so 64 units in the last place of 1.0 bound it
QUANTUM_TOL = 64 * np.finfo(float).eps


@pytest.mark.parametrize("family,d", [("disconnected(2,2)", None), ("disconnected(3,3)", 4),
                                      ("nncc(2,3,1)", None), ("nncc(3,4,1)", 5),
                                      ("paley(5)", "paley"), ("paley(13)", "paley")])
@pytest.mark.parametrize("completion", ["uniform", "omit"])
def test_quantum_table_matches_triple_loop(family, d, completion):
    g, cliques, rel = instance(FAMILIES[family]())
    if d == "paley":
        rep = extract_vectors(optimal_gram(g.order))
    else:
        rep = build_representation(g, cliques, d)
    strategy = QuantumStrategy.create(rep, g, cliques)
    table = quantum_table(strategy, rel, completion=completion)
    entries, subnormal = oracle.quantum_entries(strategy, rel, completion)
    assert np.max(np.abs(table.entries - entries)) <= QUANTUM_TOL
    assert table.subnormalized == subnormal
    assert np.array_equal(table.nonzero_mask(), np.abs(entries) > 1e-9)


# ---------------------------------------------------------------------------
# Simulation gathers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["nncc(2,3,1)", "disconnected(3,2)", "paley(5)"])
def test_simulation_matches_whole_row_gather(family, monkeypatch):
    g, cliques, rel = instance(FAMILIES[family]())
    exact = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    rep = build_representation(g, cliques, cliques.omega + 1)
    floats = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    for table in (exact, floats):
        assert np.array_equal(table.as_float(), oracle.table_as_float(table))
        for k, seed in [(0, 1), (1, 2), (257, 3)]:
            assert simulate_rounds(table, k, seed).rounds == \
                oracle.simulate_rounds(table, k, seed)
        for k, trials, chunk in [(0, 5, 512), (20, 40, 512), (60, 700, 256)]:
            monkeypatch.setattr(simulate, "MC_CHUNK", chunk)
            assert mc_success_rate(table, rel, k, trials, seed=7) == \
                oracle.mc_success_rate(table, rel, k, trials, seed=7, chunk=chunk)
        input_p = 1.0 / (rel.n * rel.n * rel.omega)
        loop = [float(table.prob(*t)) * input_p for t in rel.tuples]
        assert tuple_probabilities(table, rel).tolist() == loop


@pytest.mark.parametrize("family", ["nncc(2,3,1)", "disconnected(3,3)"])
def test_sampler_matches_gather_on_subnormalized_tables(family, monkeypatch):
    # the residual of each block falls on its last output in both, also
    # where that output's entry is zero
    g, cliques, rel = instance(FAMILIES[family]())
    full = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega).as_float()
    table = ProbTable(rel.n, rel.omega, 0.75 * full, kind="float", subnormalized=True)
    assert (full == 0).any()
    assert simulate_rounds(table, 300, 4).rounds == oracle.simulate_rounds(table, 300, 4)
    k = rel.size + 40
    monkeypatch.setattr(simulate, "MC_CHUNK", 128)
    assert mc_success_rate(table, rel, k, 300, seed=5) == \
        oracle.mc_success_rate(table, rel, k, 300, seed=5, chunk=128)


@pytest.mark.parametrize("subnormalized", [False, True])
@pytest.mark.parametrize("k", [16, 17, 40, 54, 300, 1000])
def test_mc_early_exit_matches_gather(chain5, k, subnormalized, monkeypatch):
    # chain5 has |R| = 16 tuples, and about |R| H_|R| = 54 rounds show them
    # all: k = |R| is the first window alone, 17..54 stop mid-doubling with
    # trials still live, and k >> |R| lets every trial leave early; 300
    # trials in chunks of 128 leave a last chunk of 44
    g, cliques, rel = chain5
    table = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    if subnormalized:
        table = ProbTable(rel.n, rel.omega, 0.75 * table.as_float(), kind="float",
                          subnormalized=True)
    for seed, trials, chunk in [(7, 300, 128), (8, 300, 512), (9, 100, 1)]:
        monkeypatch.setattr(simulate, "MC_CHUNK", chunk)
        got = mc_success_rate(table, rel, k, trials, seed=seed)
        assert got == oracle.mc_success_rate(table, rel, k, trials, seed=seed, chunk=chunk)
    if k in (40, 54):
        assert 0 < got[0] < 1  # some trials leave and some stay to the end


@pytest.mark.parametrize("family", ["nncc(2,3,1)", "disconnected(3,2)"])
def test_mc_without_draws_matches_gather(family):
    g, cliques, rel = instance(FAMILIES[family]())
    table = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    # fewer rounds than tuples: pigeonhole
    for k in (1, rel.size - 1):
        assert mc_success_rate(table, rel, k, 50, seed=3) == \
            oracle.mc_success_rate(table, rel, k, 50, seed=3)
    # a deterministic table gives some admissible tuple probability zero
    det = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    assert not check_coverage(det, rel)[0]
    assert mc_success_rate(det, rel, 4 * rel.size, 50, seed=3) == \
        oracle.mc_success_rate(det, rel, 4 * rel.size, 50, seed=3) == (0.0, math.sqrt(1e-12 / 50))


# ---------------------------------------------------------------------------
# Run logs and reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", MALFORMED_ROWS)
def test_run_log_rejects_malformed_rounds(bad):
    with pytest.raises(InvalidParamsError):
        RunLog(bad, 4, 0)


def test_run_log_holds_its_rounds_as_an_array():
    rounds = ((1, 0, 2, 1), (2, 1, 1, 0), (1, 0, 2, 1))
    log = RunLog(rounds, 3, 7)
    assert log.array.dtype == np.int64 and log.array.shape == (3, 4)
    assert not log.array.flags.writeable
    assert log.rounds == rounds and log == RunLog(list(rounds), 3, 7)
    assert hash(log) == hash(RunLog(list(rounds), 3, 7)) and log != RunLog(rounds, 3, 8)
    assert RunLog([], 0, 1).rounds == () and RunLog([], 0, 1).to_csv() == "round,x,a,y,b\r\n"
    with pytest.raises(InvalidParamsError):
        RunLog(rounds, 4, 7)  # k disagrees with the rounds


LOG_FAMILIES = ["disconnected(1,3)", "disconnected(2,2)", "nncc(2,3,1)", "paley(5)"]


@st.composite
def run_logs(draw):
    """(relation, rounds): the whole relation, a log seeing every input but
    with arbitrary outputs, or a part of the relation; then a few rounds
    drawn around the index range, some of them out of it, and a shuffle."""
    rel = instance(FAMILIES[draw(st.sampled_from(LOG_FAMILIES))]())[2]
    n, omega = rel.n, rel.omega
    kind = draw(st.sampled_from(["relation", "covering", "partial"]))
    if kind == "relation":
        rounds = list(rel.tuples)
    elif kind == "covering":
        rounds = [(x, a, y, draw(st.integers(0, omega - 1)))
                  for x, a, y in itertools.product(range(1, n + 1), range(omega),
                                                   range(1, n + 1))]
        rounds += draw(st.lists(st.sampled_from(rel.tuples), max_size=8))
    else:
        rounds = draw(st.lists(st.sampled_from(rel.tuples), max_size=2 * rel.size))
    around = st.tuples(st.integers(0, n + 1), st.integers(-1, omega),
                       st.integers(0, n + 1), st.integers(-1, omega))
    rounds += draw(st.lists(around, max_size=3))
    return rel, draw(st.permutations(rounds))


def assert_reconstruct_matches_loop(rounds, rel, truth):
    log = RunLog(rounds, len(rounds), 0)
    got = reconstruct(log, rel.n, rel.omega, truth=truth)
    want = oracle.reconstruct(log.rounds, rel.n, rel.omega, truth=truth)
    assert got.observed == want.observed
    assert got.inputs_covered == want.inputs_covered
    assert got.success == want.success
    assert got.inferred_graph == want.inferred_graph
    assert got.inferred_classes == want.inferred_classes
    assert log.to_csv() == oracle.run_log_csv(rounds)


@PROPERTY
@given(run_logs(), st.booleans())
def test_reconstruct_matches_loop_on_random_logs(log, with_truth):
    rel, rounds = log
    assert_reconstruct_matches_loop(rounds, rel, rel if with_truth else None)


@pytest.mark.parametrize("stray,covered", [
    ((0, 0, 1, 0), False), ((1, 3, 1, 0), False), ((1, 0, 3, 0), False),
    ((1, 0, 1, 3), True), ((1, 0, 1, -1), True),
])
def test_reconstruct_keeps_out_of_range_rounds(stray, covered):
    rel = instance(FAMILIES["disconnected(2,3)"]())[2]
    # the stray round is the only sighting of its input
    rounds = [t for t in rel.tuples if t[:3] != stray[:3]] + [stray]
    assert_reconstruct_matches_loop(rounds, rel, rel)
    res = reconstruct(RunLog(rounds, len(rounds), 0), rel.n, rel.omega, truth=rel)
    assert stray in res.observed
    assert res.inputs_covered is covered
    assert res.success is False and res.inferred_graph is None
