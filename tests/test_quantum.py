import itertools
import math

import numpy as np
import pytest

from cliquecomm import (
    ConditionsNotMetError,
    InvalidParamsError,
    OrthogonalRepresentation,
    QuantumStrategy,
    UnverifiedRepresentationError,
    build_relation,
    build_representation,
    ccr_protocol,
    check_consistency,
    check_coverage,
    check_mub,
    detect_mub,
    dimension_witness,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    mixture_for_optimality,
    optimize_payoff,
    payoff,
    quantum_table,
    representation_payoff,
    rsp_payoff,
    symmetric_equatorial_angles,
    verify_representation,
)

Z = np.eye(2, dtype=complex)
X = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
Y = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)


def setup_graph(g):
    cliques = enumerate_maximum_cliques(g)
    return g, cliques, build_relation(g, cliques)


def zx_representation():
    """Two disjoint edges carried by the computational and Hadamard bases."""
    return OrthogonalRepresentation([Z[:, 0], Z[:, 1], X[:, 0], X[:, 1]])


def test_standard_basis_on_clique_is_faithful():
    g, cliques, _ = setup_graph(gen_disconnected(1, 4))
    rep = OrthogonalRepresentation(np.eye(4, dtype=complex))
    assert verify_representation(rep, g).ok


def test_duplicate_bases_are_not_faithful():
    g = gen_disconnected(2, 2)
    rep = OrthogonalRepresentation([Z[:, 0], Z[:, 1], Z[:, 0], Z[:, 1]])
    report = verify_representation(rep, g)
    assert not report.ok
    kinds = {v[0] for v in report.violations}
    assert kinds & {"nonedge_orthogonal", "duplicate_vector"}


def test_zx_representation_faithful_with_half_overlaps():
    g, cliques, rel = setup_graph(gen_disconnected(2, 2))
    rep = zx_representation()
    assert verify_representation(rep, g).ok
    strategy = QuantumStrategy.create(rep, g, cliques)
    t = quantum_table(strategy, rel)
    for x, a in t.rows():
        for y in (1, 2):
            if x != y:
                for b in (0, 1):
                    assert t.prob(x, a, y, b) == pytest.approx(0.5, abs=1e-12)
    assert payoff(t, rel).value == pytest.approx(0.5, abs=1e-12)


def test_same_clique_gives_identity_block():
    g, cliques, rel = setup_graph(gen_disconnected(2, 2))
    strategy = QuantumStrategy.create(zx_representation(), g, cliques)
    t = quantum_table(strategy, rel)
    for x in (1, 2):
        for a in (0, 1):
            for b in (0, 1):
                assert t.prob(x, a, x, b) == pytest.approx(float(a == b), abs=1e-12)


@pytest.mark.parametrize("make,d", [
    (lambda: gen_disconnected(2, 2), 2),
    (lambda: gen_disconnected(4, 2), 2),
    (lambda: gen_disconnected(2, 3), 3),
    (lambda: gen_nncc(2, 3, 1), 3),
    (lambda: gen_nncc(3, 3, 1), 3),
    (lambda: gen_nncc(2, 5, 2), 5),
])
def test_build_representation_families(make, d):
    g, cliques, rel = setup_graph(make())
    rep = build_representation(g, cliques)
    assert rep.d == d
    assert verify_representation(rep, g).ok
    t = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    assert check_consistency(t, rel)[0]
    assert check_coverage(t, rel)[0]


def test_build_representation_single_clique_standard_basis():
    g, cliques, _ = setup_graph(gen_disconnected(1, 3))
    rep = build_representation(g, cliques)
    for v in g.vertices:
        assert np.allclose(rep.vector(v), np.eye(3)[:, v - 1])


def test_build_representation_shares_vertex_vector(chain5):
    g, cliques, _ = chain5
    rep = build_representation(g, cliques)
    # vertex 3 sits in both cliques; its single vector serves both bases
    assert verify_representation(rep, g).ok
    assert rep.vectors.shape == (g.order, 3)
    for other in (1, 2):
        assert rep.overlap_sq(3, other) == pytest.approx(0.0, abs=1e-18)


def test_build_representation_fallback_path():
    from cliquecomm.quantum import _build_by_ascent

    g, cliques, _ = setup_graph(gen_disconnected(2, 2))
    rep = _build_by_ascent(g, 2, seed=5)
    assert verify_representation(rep, g).ok


def test_quantum_table_requires_verified_strategy():
    g, cliques, rel = setup_graph(gen_disconnected(2, 2))
    rep = OrthogonalRepresentation([Z[:, 0], Z[:, 1], Z[:, 0], Z[:, 1]])
    with pytest.raises(UnverifiedRepresentationError):
        QuantumStrategy.create(rep, g, cliques)
    unverified = QuantumStrategy(rep, cliques, verified=False)
    with pytest.raises(UnverifiedRepresentationError):
        quantum_table(unverified, rel)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vector_fails_verification(bad):
    g, cliques, _ = setup_graph(gen_disconnected(2, 2))
    vecs = np.array(build_representation(g, cliques, seed=0).vectors)
    vecs[1] = bad
    rep = OrthogonalRepresentation(vecs)
    report = verify_representation(rep, g)
    assert not report.ok and [v[:3] for v in report.violations] == [("norm", 2, None)]
    with pytest.raises(UnverifiedRepresentationError):
        QuantumStrategy.create(rep, g, cliques)


def test_coverage_fails_without_faithfulness():
    # force the table through with an unfaithful representation: the zero
    # cross overlap shows up as a missing admissible entry
    g, cliques, rel = setup_graph(gen_disconnected(2, 2))
    theta = 0.0  # second basis equals the first
    basis2 = np.array([[math.cos(theta), -math.sin(theta)],
                       [math.sin(theta), math.cos(theta)]], dtype=complex)
    rep = OrthogonalRepresentation([Z[:, 0], Z[:, 1], basis2[:, 0], basis2[:, 1]])
    forced = QuantumStrategy(rep, cliques, verified=True)
    t = quantum_table(forced, rel)
    assert check_consistency(t, rel)[0]
    assert not check_coverage(t, rel)[0]


def test_optimize_three_bases_reaches_half():
    g, cliques, _ = setup_graph(gen_disconnected(3, 2))
    res = optimize_payoff(g, cliques, 2, restarts=8, seed=1)
    assert res.payoff >= 0.5 - 1e-6
    assert verify_representation(res.rep, g).ok


def test_optimize_four_bases_capped_by_line_packing():
    g, cliques, _ = setup_graph(gen_disconnected(4, 2))
    res = optimize_payoff(g, cliques, 2, restarts=8, seed=1)
    assert res.payoff < 0.5 - 0.01
    # four lines in three real dimensions cannot beat the cube diagonals
    assert res.payoff == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_optimize_rejects_small_dimension():
    g, cliques, _ = setup_graph(gen_disconnected(2, 3))
    with pytest.raises(InvalidParamsError):
        optimize_payoff(g, cliques, 2)


def test_optimize_never_ends_below_the_constructed_start(chain5):
    g, cliques, _ = chain5
    start = build_representation(g, cliques, 3)
    for restarts in (0, 32):
        res = optimize_payoff(g, cliques, 3, restarts=restarts)
        assert res.payoff >= representation_payoff(start, g)
        assert verify_representation(res.rep, g).ok


def test_optimize_rejects_negative_restarts(chain5):
    g, cliques, _ = chain5
    with pytest.raises(InvalidParamsError):
        optimize_payoff(g, cliques, restarts=-1)


def test_check_mub_pairs():
    assert check_mub([Z, X], 2)
    assert not check_mub([Z, Z], 2)
    assert check_mub([Z, X, Y], 2)
    for b1, b2 in itertools.combinations([Z, X, Y], 2):
        assert check_mub([b1, b2], 2)
    with pytest.raises(InvalidParamsError):
        check_mub([Z, np.array([[1, 1], [0, 1]], dtype=complex)], 2)


def test_detect_mub_on_three_cliques():
    g, cliques, rel = setup_graph(gen_disconnected(3, 2))
    rep = OrthogonalRepresentation([Z[:, 0], Z[:, 1], X[:, 0], X[:, 1], Y[:, 0], Y[:, 1]])
    t = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    assert detect_mub(t, rel, g, cliques)


def test_detect_mub_rejects_biased_bases():
    g, cliques, rel = setup_graph(gen_disconnected(2, 2))
    theta = math.pi / 5  # not the unbiased angle pi/4
    basis2 = np.array([[math.cos(theta), -math.sin(theta)],
                       [math.sin(theta), math.cos(theta)]], dtype=complex)
    rep = OrthogonalRepresentation([Z[:, 0], Z[:, 1], basis2[:, 0], basis2[:, 1]])
    t = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    assert not detect_mub(t, rel, g, cliques)


def test_detect_mub_single_clique_trivial():
    g, cliques, rel = setup_graph(gen_disconnected(1, 2))
    rep = OrthogonalRepresentation([Z[:, 0], Z[:, 1]])
    t = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    assert detect_mub(t, rel, g, cliques)


def test_detect_mub_wrong_family(chain5):
    g, cliques, rel = chain5
    t = quantum_table(
        QuantumStrategy.create(build_representation(g, cliques), g, cliques), rel
    )
    with pytest.raises(ConditionsNotMetError):
        detect_mub(t, rel, g, cliques)


def test_rsp_symmetric_four():
    report = rsp_payoff(symmetric_equatorial_angles(4))
    assert report.payoff == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-12)


def test_rsp_two_unbiased_directions():
    assert rsp_payoff([0.0, math.pi / 2]).payoff == pytest.approx(0.5, abs=1e-12)


def test_rsp_single_direction():
    assert rsp_payoff([0.7]).payoff == 1.0


def test_rsp_rotation_invariance():
    for n in (2, 3, 4, 5):
        base = symmetric_equatorial_angles(n)
        p0 = rsp_payoff(base).payoff
        for shift in (0.1, 1.3, 2.9):
            shifted = [t + shift for t in base]
            assert rsp_payoff(shifted).payoff == pytest.approx(p0, abs=1e-12)


def test_rsp_duplicates_flagged():
    report = rsp_payoff([0.2, 0.2 + math.pi, 1.0])
    assert report.payoff == 0.0 and report.duplicate_pair == (0, 1)


def test_dimension_witness(chain5):
    g, cliques, rel = chain5
    good = ccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    assert dimension_witness(good, rel, 3).claimed_dimension == 3

    qt = quantum_table(
        QuantumStrategy.create(build_representation(g, cliques), g, cliques), rel
    )
    assert dimension_witness(qt, rel, 3).claimed_dimension == 3
    assert "3" in dimension_witness(qt, rel, 3).message

    mixed = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    assert dimension_witness(mixed, rel, 3).claimed_dimension == 3


def test_dimension_witness_no_claim(chain5):
    from fractions import Fraction

    _, _, rel = chain5
    H = Fraction(1, 2)
    rows = [
        [H, H, 0, 0, H, H],  # diagonal block leaks off the diagonal
        [0, 1, 0, 0, H, H],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [H, H, 0, 0, 1, 0],
        [H, H, 0, 0, 0, 1],
    ]
    from cliquecomm import ProbTable

    bad = ProbTable(2, 3, rows, kind="exact")
    assert dimension_witness(bad, rel, 3).claimed_dimension is None
    assert dimension_witness(bad, rel, 3).message == "no claim"


def test_representation_json_round_trip(chain5):
    g, cliques, _ = chain5
    rep = build_representation(g, cliques)
    back = OrthogonalRepresentation.from_json(rep.to_json())
    assert back.d == rep.d
    for v in g.vertices:
        assert np.allclose(back.vector(v), rep.vector(v))


def test_optimize_single_clique_trivial():
    g, cliques, _ = setup_graph(gen_disconnected(1, 3))
    res = optimize_payoff(g, cliques, 3, restarts=2)
    assert res.payoff == 1.0
    assert verify_representation(res.rep, g).ok
