import numpy as np
import pytest

from cliquecomm import (
    InvalidParamsError,
    QuantumStrategy,
    build_relation,
    enumerate_maximum_cliques,
    gen_paley,
    lovasz_theta,
    optimal_gram,
    paley_payoff,
    payoff,
    quadratic_residues,
    quantum_table,
    representation_payoff,
    verify_character_square,
    verify_representation,
)
from cliquecomm.paley import (
    adjacency_from_character,
    adjacency_matrix,
    adjacency_spectrum,
    character_matrix,
    expected_adjacency_spectrum,
    extract_vectors,
    fourier_eigenvector_check,
    spectrum_matches,
    verify_adjacency_square,
)

QS = [5, 13, 17, 29]


def test_quadratic_residue_sets():
    assert quadratic_residues(5) == frozenset({1, 4})
    assert quadratic_residues(13) == frozenset({1, 3, 4, 9, 10, 12})
    for q in QS:
        assert len(quadratic_residues(q)) == (q - 1) // 2


@pytest.mark.parametrize("q", QS)
def test_character_square_identity(q):
    assert verify_character_square(q)


@pytest.mark.parametrize("q", QS)
def test_adjacency_from_character_exact(q):
    assert np.array_equal(adjacency_from_character(q), adjacency_matrix(q))


@pytest.mark.parametrize("q", QS)
def test_adjacency_square_identity(q):
    assert verify_adjacency_square(q)


@pytest.mark.parametrize("q", [5, 13])
def test_adjacency_spectrum_values(q):
    eigs = adjacency_spectrum(q)
    assert spectrum_matches(eigs, expected_adjacency_spectrum(q))
    second = (-1 + np.sqrt(q)) / 2
    assert np.sum(np.abs(eigs - second) < 1e-9) == (q - 1) // 2


def test_character_matrix_admits_every_odd_prime():
    k = character_matrix(7)
    assert np.array_equal(k, -k.T)
    for check in (verify_character_square, adjacency_from_character):
        with pytest.raises(InvalidParamsError):
            check(7)
    for q in (2, 9):
        with pytest.raises(InvalidParamsError):
            character_matrix(q)


def test_prime_power_rejected():
    with pytest.raises(InvalidParamsError):
        adjacency_spectrum(9)
    with pytest.raises(InvalidParamsError):
        optimal_gram(9)


@pytest.mark.parametrize("q,rank", [(5, 3), (13, 7), (17, 9), (29, 15)])
def test_gram_rank(q, rank):
    report = optimal_gram(q)
    assert report.rank == rank == (q + 1) // 2
    assert report.spectrum[-1] == pytest.approx(np.sqrt(q), abs=1e-9)
    assert report.entry_sum == pytest.approx(q ** 1.5, abs=1e-6)


@pytest.mark.parametrize("q", [5, 13])
def test_extracted_vectors(q):
    g = gen_paley(q)
    report = optimal_gram(q)
    rep = extract_vectors(report)
    assert rep.d == (q + 1) // 2
    assert len(rep.vectors) == q
    assert verify_representation(rep, g).ok
    gram = np.array([
        [np.vdot(rep.vector(u), rep.vector(v)).real for v in g.vertices]
        for u in g.vertices
    ])
    assert np.max(np.abs(gram - report.matrix)) < 1e-8


@pytest.mark.parametrize("q", [5, 17])
def test_theta(q):
    assert lovasz_theta(q) == pytest.approx(np.sqrt(q), abs=1e-12)


@pytest.mark.parametrize("q", [5, 13])
def test_fourier_vectors_diagonalize(q):
    assert fourier_eigenvector_check(q)


@pytest.mark.parametrize("q", [5, 13])
def test_representation_payoff_matches_formula(q):
    g = gen_paley(q)
    rep = extract_vectors(optimal_gram(q))
    assert representation_payoff(rep, g) == pytest.approx(paley_payoff(q), abs=1e-8)


def test_quantum_table_raw_overlaps_q5():
    q = 5
    g = gen_paley(q)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    rep = extract_vectors(optimal_gram(q))
    strategy = QuantumStrategy.create(rep, g, cliques)
    raw = quantum_table(strategy, rel, completion="omit")
    assert raw.subnormalized
    assert payoff(raw, rel).value == pytest.approx(paley_payoff(q), abs=1e-8)
    # the normalized completion can only raise entries inside the relation
    filled = quantum_table(strategy, rel, completion="uniform")
    for t in rel.tuples:
        assert filled.prob(*t) >= raw.prob(*t) - 1e-12


@pytest.mark.parametrize("q", QS)
def test_quantum_table_payoff_all_instances(q):
    g = gen_paley(q)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    rep = extract_vectors(optimal_gram(q))
    strategy = QuantumStrategy.create(rep, g, cliques)
    raw = quantum_table(strategy, rel, completion="omit")
    assert float(payoff(raw, rel).value) == pytest.approx(paley_payoff(q), abs=1e-9)


def test_subnormalized_table_json_round_trip():
    from cliquecomm import ProbTable

    q = 5
    g = gen_paley(q)
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    rep = extract_vectors(optimal_gram(q))
    raw = quantum_table(QuantumStrategy.create(rep, g, cliques), rel,
                        completion="omit")
    back = ProbTable.from_json(raw.to_json())
    assert back.subnormalized
    assert float(payoff(back, rel).value) == pytest.approx(paley_payoff(q), abs=1e-8)
