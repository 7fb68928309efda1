"""The classical layer's counts and constructions against the searches they replace.

The lower bound is a count of distinct mask rows, the label-bijection
enumeration an iterative generator, and the minimum orthogonal array a
Hadamard construction; `tests/loop_oracles.py` keeps the recursive
searches.  Random small graphs come from derandomized hypothesis runs,
the generator families by parametrization.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import loop_oracles as oracle
from cliquecomm import (
    CapExceededError,
    PublicCoinMixture,
    SearchExhaustedError,
    ccr_protocol,
    check_coverage,
    classical,
    enumerate_consistent_strategies,
    gen_disconnected,
    gen_nncc,
    gen_paley,
    is_orthogonal_array,
    min_oa_rows,
    mixture_for_coverage,
    mixture_for_optimality,
    verify_classical_lower_bound,
)
from cliquecomm.classical import (
    STRATEGY_CAP,
    _assignments,
    _orthogonal_array,
    _single_clique_variants,
    _strategy_from_assignment,
)
from test_array_core import graphs, instance

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

FAMILIES = {
    "disconnected(1,3)": lambda: gen_disconnected(1, 3),
    "disconnected(3,2)": lambda: gen_disconnected(3, 2),
    "disconnected(5,2)": lambda: gen_disconnected(5, 2),
    "disconnected(2,3)": lambda: gen_disconnected(2, 3),
    "disconnected(3,3)": lambda: gen_disconnected(3, 3),
    "nncc(2,3,1)": lambda: gen_nncc(2, 3, 1),
    "nncc(3,4,1)": lambda: gen_nncc(3, 4, 1),
    "nncc(2,5,2)": lambda: gen_nncc(2, 5, 2),
    "paley(5)": lambda: gen_paley(5),
    "paley(13)": lambda: gen_paley(13),
}


def outcome(f):
    """(value, None) or (None, (error type, message))."""
    try:
        return f(), None
    except (SearchExhaustedError, CapExceededError) as exc:
        return None, (type(exc), str(exc))


def oracle_pool(rel):
    solutions = oracle.assignment_search(rel, find_all=True, limit=STRATEGY_CAP + 1)
    if len(solutions) > STRATEGY_CAP:
        raise CapExceededError(f"more than {STRATEGY_CAP} strategies")
    return [_strategy_from_assignment(a) for a in solutions]


def uniform(strategies):
    w = Fraction(1, len(strategies))
    return PublicCoinMixture(tuple(strategies), tuple(w for _ in strategies))


def oracle_coverage_mixture(rel):
    """The single-clique variants, else the whole strategy pool, uniformly."""
    variants = oracle.coverage_variants(rel)
    if variants is None:
        raise SearchExhaustedError(
            "no omega-message consistent strategy exists for this instance")
    mix = uniform([_strategy_from_assignment(a) for a in variants])
    if check_coverage(mix.table(rel.n, rel.omega), rel)[0]:
        return mix
    mix = uniform(oracle_pool(rel))
    if not check_coverage(mix.table(rel.n, rel.omega), rel)[0]:
        raise SearchExhaustedError(
            "no consistent strategy reaches some admissible tuple here")
    return mix


def check_against_searches(g):
    g, cliques, rel = instance(g)
    for m in range(g.order + 2):
        assert verify_classical_lower_bound(g, cliques, rel, m) is \
            oracle.classical_lower_bound(rel, m)
    assignments = list(_assignments(rel))
    assert assignments == oracle.assignment_search(rel, find_all=True)
    first = oracle.assignment_search(rel, find_all=False)
    if first:
        assert ccr_protocol(g, cliques, rel) == _strategy_from_assignment(first[0])
        assert _single_clique_variants(rel) == oracle.coverage_variants(rel)
    else:
        with pytest.raises(SearchExhaustedError):
            ccr_protocol(g, cliques, rel)
    pool = outcome(lambda: enumerate_consistent_strategies(g, cliques, rel))
    assert pool == outcome(lambda: oracle_pool(rel))
    assert outcome(lambda: mixture_for_coverage(g, cliques, rel)) == \
        outcome(lambda: oracle_coverage_mixture(rel))
    # the mixture search itself is unchanged; only its strategy pool is
    # new, so it runs once on each pool (small pools keep the
    # combination search short)
    if pool[0] is not None and len(pool[0]) <= 8:
        with mock.patch.object(classical, "enumerate_consistent_strategies",
                               lambda g, cliques, rel: oracle_pool(rel)):
            expected = outcome(lambda: mixture_for_optimality(g, cliques, rel))
        assert outcome(lambda: mixture_for_optimality(g, cliques, rel)) == expected


@PROPERTY
@given(graphs(max_order=8))
def test_classical_layer_matches_searches_on_random_graphs(g):
    check_against_searches(g)


@pytest.mark.parametrize("family", FAMILIES)
def test_classical_layer_matches_searches_on_families(family):
    check_against_searches(FAMILIES[family]())


def test_ccr_past_the_recursion_limit():
    g, cliques, rel = instance(gen_disconnected(1100, 2))
    s = ccr_protocol(g, cliques, rel)
    assert s.m == 2 and all(s.encoder[(x, a)] == a for x, a in s.encoder)


@pytest.mark.parametrize("k", range(2, 48))
def test_min_oa_rows_meets_rao_bound(k):
    rows = _orthogonal_array(k)
    assert min_oa_rows(k) == len(rows) == 4 * -(-(k + 1) // 4)
    assert rows.shape[1] == k and is_orthogonal_array(rows)


def test_is_orthogonal_array_matches_pair_loop():
    # random arrays up to 12 x 6, every fifth with entries up to 2, and each
    # constructed array as built, without its last row and with one entry flipped
    rng = np.random.default_rng(0)
    arrays = [rng.integers(0, 3 if i % 5 == 0 else 2,
                           size=(rng.integers(1, 13), rng.integers(2, 7)))
              for i in range(2000)]
    for k in range(2, 48):
        rows = _orthogonal_array(k)
        flipped = rows.copy()
        flipped[rng.integers(len(rows)), rng.integers(k)] ^= 1
        arrays += [rows, rows[:-1], flipped]
    verdicts = [is_orthogonal_array(rows) for rows in arrays]
    assert verdicts == [oracle.is_orthogonal_array(rows) for rows in arrays]
    assert sum(verdicts[:2000]) > 0 and sum(verdicts[2000:]) == 46


@pytest.mark.parametrize("k", range(2, 7))
def test_min_oa_rows_matches_search(k):
    n_rows = min_oa_rows(k)
    assert oracle.oa_exists(n_rows, k)
    assert all(not oracle.oa_exists(n, k) for n in range(4, n_rows, 4))


def test_min_oa_rows_edges():
    assert min_oa_rows(1) == 2
    # 52 = 51 + 1 = 2 * 26 is reached by neither Paley construction, and 26
    # is no Hadamard order to double
    with pytest.raises(SearchExhaustedError):
        min_oa_rows(48)
