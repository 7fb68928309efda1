"""Exact and spectral analysis of Paley graphs on a prime field.

The quadratic character chi over Z_q (q prime, q = 1 mod 4) gives the
matrix K with K[k,l] = chi(k-l), which satisfies K^2 = qI - J exactly; the
adjacency matrix is A = (K + J - I)/2 and obeys A^2 = (q-1)/4 (J+I) - A.
Those integer identities pin the adjacency spectrum to (q-1)/2 once and
(-1 +- sqrt(q))/2 with multiplicity (q-1)/2 each, which in turn makes the
Gram matrix I + 2/(sqrt(q)+1) A(complement) rank (q+1)/2 and yields unit
vectors whose non-adjacent overlaps are all 2/(sqrt(q)+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailedError, InvalidParamsError
from .graphs import gen_paley, is_prime
from .quantum import RANK_TOL, OrthogonalRepresentation, _factor_gram

SPECTRUM_TOL = 1e-9
FOURIER_TOL = 1e-8


def _require_paley_prime(q: int):
    if not is_prime(q):
        raise InvalidParamsError(f"q={q} is not prime")
    if q % 4 != 1:
        raise InvalidParamsError(f"q={q} is not 1 mod 4")


def quadratic_residues(q: int) -> frozenset[int]:
    """Nonzero quadratic residues mod prime q; always (q-1)/2 of them."""
    if not is_prime(q):
        raise InvalidParamsError(f"q={q} is not prime")
    return frozenset((x * x) % q for x in range(1, q))


def character_matrix(q: int) -> np.ndarray:
    """Integer matrix of quadratic-character values chi(k-l) in {-1, 0, 1}, for
    any odd prime q; skew-symmetric when q = 3 mod 4 (Paley I Hadamard)."""
    if not is_prime(q) or q == 2:
        raise InvalidParamsError(f"q={q} is not an odd prime")
    residues = quadratic_residues(q)
    chi = np.empty(q, dtype=np.int64)
    chi[0] = 0
    for d in range(1, q):
        chi[d] = 1 if d in residues else -1
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return chi[idx]


def verify_character_square(q: int) -> bool:
    """Exact integer check that the character matrix squares to qI - J."""
    _require_paley_prime(q)
    k = character_matrix(q)
    expected = q * np.eye(q, dtype=np.int64) - np.ones((q, q), dtype=np.int64)
    return bool(np.array_equal(k @ k, expected))


def adjacency_matrix(q: int) -> np.ndarray:
    return gen_paley(q).adjacency[1:, 1:].astype(np.int64)


def adjacency_from_character(q: int) -> np.ndarray:
    """A = (K + J - I)/2; exact integer identity with the edge-built adjacency."""
    _require_paley_prime(q)
    k = character_matrix(q)
    j = np.ones((q, q), dtype=np.int64)
    i = np.eye(q, dtype=np.int64)
    num = k + j - i
    if np.any(num % 2):
        raise InvalidParamsError("character matrix parity broken")
    return num // 2


def verify_adjacency_square(q: int) -> bool:
    """Exact check of A^2 = (q-1)/4 (J + I) - A."""
    a = adjacency_matrix(q)
    j = np.ones((q, q), dtype=np.int64)
    i = np.eye(q, dtype=np.int64)
    return bool(np.array_equal(a @ a, (q - 1) // 4 * (j + i) - a))


def expected_adjacency_spectrum(q: int) -> list[tuple[float, int]]:
    r = np.sqrt(q)
    return [
        ((q - 1) / 2, 1),
        ((-1 + r) / 2, (q - 1) // 2),
        ((-1 - r) / 2, (q - 1) // 2),
    ]


def adjacency_spectrum(q: int) -> np.ndarray:
    """Eigenvalues of the adjacency matrix, ascending."""
    _require_paley_prime(q)
    return np.linalg.eigvalsh(adjacency_matrix(q).astype(float))


def spectrum_matches(eigs: np.ndarray, expected: list[tuple[float, int]]) -> bool:
    """Multiset comparison of computed eigenvalues against (value, multiplicity),
    each within SPECTRUM_TOL."""
    want = np.sort(np.concatenate([[v] * m for v, m in expected]))
    got = np.sort(np.asarray(eigs, dtype=float))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= SPECTRUM_TOL))


@dataclass(frozen=True)
class GramReport:
    q: int
    matrix: np.ndarray
    spectrum: np.ndarray
    rank: int
    entry_sum: float


def optimal_gram(q: int) -> GramReport:
    """Gram matrix I + 2/(sqrt(q)+1) A(complement) with its spectrum and rank.

    Its nonzero spectrum is sqrt(q) once and 2 sqrt(q)/(1+sqrt(q)) with
    multiplicity (q-1)/2, so the rank is (q+1)/2; the total entry sum is
    q^(3/2).
    """
    _require_paley_prime(q)
    a_comp = ~gen_paley(q).adjacency[1:, 1:] & ~np.eye(q, dtype=bool)
    m = np.eye(q) + 2 / (np.sqrt(q) + 1) * a_comp
    eigs = np.linalg.eigvalsh(m)
    rank = int(np.sum(eigs > RANK_TOL))
    expected = [
        (np.sqrt(q), 1),
        (2 * np.sqrt(q) / (1 + np.sqrt(q)), (q - 1) // 2),
        (0.0, (q - 1) // 2),
    ]
    if not spectrum_matches(eigs, expected):
        raise ConstructionFailedError(f"Gram spectrum off for q={q}")
    entry_sum = float(m.sum())
    if abs(entry_sum - q ** 1.5) > 1e-6:
        raise ConstructionFailedError(f"Gram entry sum off for q={q}")
    return GramReport(q, m, eigs, rank, entry_sum)


def extract_vectors(report: GramReport) -> OrthogonalRepresentation:
    """Factor the Gram matrix into unit vectors, one per field element.

    The eigendecomposition keeps the (q+1)/2 positive eigenpairs; rows of
    eigvecs * sqrt(eigvals) reproduce the Gram matrix, so adjacent pairs are
    orthogonal and non-adjacent overlaps are 2/(sqrt(q)+1).  This is the
    factorization of `quantum.build_representation` on conference graphs.
    """
    return OrthogonalRepresentation(_factor_gram(report.matrix))


def lovasz_theta(q: int) -> float:
    """sqrt(q), cross-checked against the Gram matrix entry sum divided by q."""
    report = optimal_gram(q)
    theta = float(np.sqrt(q))
    if abs(report.entry_sum / q - theta) > 1e-9:
        raise ConstructionFailedError("entry-sum cross-check failed")
    return theta


def fourier_eigenvector_check(q: int) -> bool:
    """Fourier vectors diagonalize the Gram matrix with the predicted eigenvalues.

    The all-ones vector carries sqrt(q).  With edges on residue differences,
    the Gauss sum puts the kernel on the residue frequencies: residue indices
    carry zero and non-residue indices carry 2 sqrt(q)/(1+sqrt(q)); each
    residual norm is within FOURIER_TOL.
    """
    report = optimal_gram(q)
    residues = quadratic_residues(q)
    root = np.exp(2j * np.pi / q)
    m = report.matrix.astype(complex)
    for lam in range(q):
        vec = root ** (lam * np.arange(q))
        vec /= np.linalg.norm(vec)
        out = m @ vec
        if lam == 0:
            want = np.sqrt(q)
        elif lam in residues:
            want = 0.0
        else:
            want = 2 * np.sqrt(q) / (1 + np.sqrt(q))
        if np.linalg.norm(out - want * vec) > FOURIER_TOL:
            return False
    return True


def paley_payoff(q: int) -> float:
    """Squared non-adjacent overlap (2/(sqrt(q)+1))^2 of the optimal vectors."""
    _require_paley_prime(q)
    return float((2 / (np.sqrt(q) + 1)) ** 2)


def analyze(q: int) -> dict:
    """Summary record: degree, spectrum, theta, Gram rank, and quantum payoff."""
    report = optimal_gram(q)
    return {
        "q": q,
        "degree": (q - 1) // 2,
        "adjacency_spectrum": [
            [float(v), int(m)] for v, m in expected_adjacency_spectrum(q)
        ],
        "theta": lovasz_theta(q),
        "rank": report.rank,
        "representation_dim": (q + 1) // 2,
        "payoff": paley_payoff(q),
    }
