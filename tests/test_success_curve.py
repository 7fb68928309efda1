"""The exact success curve against exact rational arithmetic.

`success_prob_exact` evaluates the coupon-collector generating function as
a product of truncated Poisson pmf vectors.  `loop_oracles` sums the grouped
inclusion-exclusion in Fractions, whose value is exact, wherever it has
under 10^5 terms.  The two agree to 1e-12 relative where the probability is
at least 1e-9, and to 1e-18 absolute below that.  Random graphs come from
hypothesis (derandomized).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loop_oracles as oracle
from cliquecomm import (
    CapExceededError,
    ProbTable,
    SearchExhaustedError,
    ccr_protocol,
    mixture_for_coverage,
    mixture_for_optimality,
    sccr_protocol,
    success_prob_exact,
)
from cliquecomm import simulate
from test_array_core import FAMILIES, PROPERTY, graphs, instance
from test_vertex_arrays import uniform_table

REL_TOL, ABS_TOL, FLOOR = 1e-12, 1e-18, 1e-9
MAX_TERMS = 10 ** 5


def assert_exact(table, rel, k):
    exact = float(oracle.success_prob_fraction(table, rel, k))
    value = success_prob_exact(table, rel, k)
    bound = REL_TOL * exact if exact >= FLOOR else ABS_TOL
    assert abs(value - exact) <= bound, (k, value, exact)


def family_tables(g):
    """The uniform-decoder table (the sccr table, where sccr_protocol's
    conditions hold) and the coverage mixture's table, where one exists."""
    g, cliques, rel = instance(g)
    tables = [uniform_table(rel)]
    try:
        tables.append(mixture_for_coverage(g, cliques, rel).table(rel.n, rel.omega))
    except (SearchExhaustedError, CapExceededError):
        pass
    return rel, [t for t in tables if oracle.success_terms(t, rel)[1] < MAX_TERMS]


def test_chain5_optimal_mixture(chain5):
    g, cliques, rel = chain5
    table = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    for k in (16, 17, 20, 25, 32, 50, 100, 200, 400, 1000, 2000, 5000):
        assert_exact(table, rel, k)


@pytest.mark.parametrize("make", ["sccr", "optimal"])
@pytest.mark.parametrize("n, omega", [(2, 2), (3, 2), (2, 3)])
def test_disconnected_tables(n, omega, make):
    g, cliques, rel = instance(FAMILIES[f"disconnected({n},{omega})"]())
    build = sccr_protocol if make == "sccr" else mixture_for_optimality
    table = build(g, cliques, rel).table(rel.n, rel.omega)
    for k in (rel.size, rel.size + 1, rel.size + 5, 30, 50, 100, 200, 500, 1000, 2000):
        assert_exact(table, rel, k)


def test_nncc_coverage_mixture():
    g, cliques, rel = instance(FAMILIES["nncc(3,4,1)"]())
    table = mixture_for_coverage(g, cliques, rel).table(rel.n, rel.omega)
    assert rel.size == 82
    for k in (82, 200, 500, 2000):
        assert_exact(table, rel, k)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_families(family):
    rel, tables = family_tables(FAMILIES[family]())
    for table in tables:
        for factor in (1, 2, 5, 20):
            assert_exact(table, rel, factor * rel.size + factor // 5)


@PROPERTY
@given(graphs(max_order=8), st.data())
def test_random_graphs(g, data):
    rel, tables = family_tables(g)
    k = data.draw(st.integers(rel.size, 30 * rel.size))
    for table in tables:
        assert_exact(table, rel, k)


def test_mass_outside_the_relation_is_a_round_without_a_tuple(chain5):
    g, cliques, rel = chain5
    best = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    # a subnormalized table and one that leaks mass outside the relation:
    # in both, part of each round shows no admissible tuple
    scaled = ProbTable(rel.n, rel.omega, 0.9 * best.as_float(), kind="float",
                       subnormalized=True)
    leaked = best.as_float().copy()
    outside = np.flatnonzero(~rel.mask[0])[0]
    inside = np.flatnonzero(rel.mask[0] & (leaked[0] >= 0.25))[0]
    leaked[0, inside] -= 0.25
    leaked[0, outside] += 0.25
    leaked = ProbTable(rel.n, rel.omega, leaked, kind="float")
    for table in (scaled, leaked):
        for k in (16, 20, 50, 200, 1000):
            assert_exact(table, rel, k)
        assert success_prob_exact(table, rel, 200) < success_prob_exact(best, rel, 200)


def test_zero_below_the_relation_size_and_without_coverage(chain5):
    g, cliques, rel = chain5
    best = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    det = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    for table, k in ((best, 0), (best, rel.size - 1), (det, 100)):
        assert oracle.success_prob_fraction(table, rel, k) == 0
        assert success_prob_exact(table, rel, k) == 0.0


def test_one_past_the_union_bound_without_a_k_long_vector(chain5, monkeypatch):
    g, cliques, rel = chain5
    best = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    assert float(oracle.success_prob_fraction(best, rel, 1000)) == 1.0

    def no_vector(j):
        raise AssertionError(f"pmf vectors built for k = {len(j)}")

    # the failure probability is below sum_i (1 - p_i)^k, under 2^-55 here
    monkeypatch.setattr(simulate, "_log_norm", no_vector)
    assert success_prob_exact(best, rel, 1000) == success_prob_exact(best, rel, 10 ** 6) == 1.0
    with pytest.raises(AssertionError, match="k = 400"):
        success_prob_exact(best, rel, 400)


def test_float_inclusion_exclusion_cancels_where_the_curve_does_not(chain5):
    g, cliques, rel = chain5
    best = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    exact = float(oracle.success_prob_fraction(best, rel, 16))
    loop = oracle.success_prob_inclusion_exclusion(best, rel, 16)
    assert abs(loop - exact) > 1e-9 * exact
    assert abs(success_prob_exact(best, rel, 16) - exact) <= REL_TOL * exact
    for k in (17, 25, 50, 100, 400):
        assert success_prob_exact(best, rel, k) == pytest.approx(
            oracle.success_prob_inclusion_exclusion(best, rel, k), rel=1e-8)
