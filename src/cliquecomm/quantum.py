"""Quantum strategies from faithful orthogonal representations.

A representation assigns each vertex a unit vector with orthogonality
exactly on edges.  Alice sends the vector selected by her labelled clique;
Bob measures in his clique's basis and answers with the outcome's label, so
the Born rule fills the conditional-probability table with squared overlaps.
The payoff of the representation itself is the smallest squared overlap
over non-adjacent vertex pairs, and maximizing it over representations of a
fixed dimension is the quantum figure of merit for reconstruction.

Disjoint cliques, chains of cliques and conference graphs (Paley graphs
among them) have closed-form representations, the last one in dimension
(q+1)/2 and up; the rest, and every payoff maximization, run one gradient
ascent of a soft minimum of the non-edge overlaps |V V^H|^2 under an edge
penalty or, for disjoint cliques, a QR retraction of each clique's frame
(Absil-Mahony-Sepulchre, 2008).  The default dimension is omega where a
clique closed form exists and the general-position dimension
(Lovasz-Saks-Schrijver) elsewhere, which is (q+1)/2 on a conference graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditionsNotMetError,
    ConstructionFailedError,
    InvalidParamsError,
    UnverifiedRepresentationError,
)
from .graphs import SCHEMA_VERSION, CliqueSet, Graph, _complement_connectivity, clique_membership
from .relation import Relation, selected_vertices
from .tables import ProbTable, check_consistency
from .tables import payoff as table_payoff

ORTHO_TOL = 1e-9
ANGLE_TOL = 1e-9
# eigenvalues at or below this count as zero when a Gram matrix is factored
RANK_TOL = 1e-6

GOLDEN_ANGLE = np.pi * (3 - np.sqrt(5))


class OrthogonalRepresentation:
    """Unit complex vectors in a common dimension d, one per vertex: row
    v - 1 of the read-only (order, d) matrix `vectors` is vertex v's."""

    def __init__(self, vectors):
        vectors = np.array(vectors, dtype=complex)
        if vectors.ndim != 2:
            raise InvalidParamsError("a representation is one vector per row")
        vectors.flags.writeable = False
        self.vectors = vectors

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def vector(self, v: int) -> np.ndarray:
        return self.vectors[v - 1]

    def overlap_sq(self, u: int, v: int) -> float:
        return float(abs(np.vdot(self.vector(u), self.vector(v))) ** 2)

    def to_json(self) -> dict:
        pairs = np.stack([self.vectors.real, self.vectors.imag], axis=2).tolist()
        return {
            "schema_version": SCHEMA_VERSION,
            "d": self.d,
            "vectors": {str(v): vec for v, vec in enumerate(pairs, start=1)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "OrthogonalRepresentation":
        """Raises InvalidParamsError unless the vectors are keyed 1..m and
        each holds d [re, im] pairs."""
        d, vectors = int(data["d"]), data["vectors"]
        m = len(vectors)
        try:
            by_vertex = {int(v): vec for v, vec in vectors.items()}
            rows = [by_vertex[v] for v in range(1, m + 1)]
            pairs = np.array(rows, dtype=float) if m else np.empty((0, d, 2))
        except (AttributeError, KeyError, TypeError, ValueError):  # other keys, ragged entries
            pairs = None
        if pairs is None or pairs.shape != (m, d, 2):
            raise InvalidParamsError(
                f"representation vectors must be keyed 1..{m}, each {d} [re, im] pairs"
            )
        # each [re, im] pair is the memory layout of one complex128
        return cls(pairs.view(complex)[:, :, 0])


VIOLATION_KINDS = (None, "edge_not_orthogonal", "nonedge_orthogonal", "duplicate_vector")


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple = field(default_factory=tuple)


def verify_representation(rep: OrthogonalRepresentation, g: Graph) -> VerificationReport:
    """Check unit norms, orthogonality on edges, and faithfulness off edges.

    Faithfulness means non-adjacent distinct vertices have nonzero overlap;
    vectors equal up to a global phase also fail, since distinct vertices
    must carry distinct states.  A vertex past the last row is missing, and
    a vector with a NaN or infinite entry fails the norm check.  Every
    comparison allows ORTHO_TOL.
    """
    vecs = rep.vectors[:g.order]
    with np.errstate(invalid="ignore"):  # inf * 0 in an infinite entry's square
        norms = np.linalg.norm(vecs, axis=1).tolist()
    violations = [("norm", v, None, norm) for v, norm in enumerate(norms, start=1)
                  if not abs(norm - 1) <= ORTHO_TOL]
    violations += [("missing", v, None, None) for v in range(len(vecs) + 1, g.order + 1)]
    if violations:
        return VerificationReport(False, tuple(violations))
    overlap = np.abs(vecs.conj() @ vecs.T) ** 2
    adj = g.adjacency[1:, 1:]
    # 0 for a sound pair, else the index of its kind in VIOLATION_KINDS
    kind = np.select(
        [adj & (overlap > ORTHO_TOL), ~adj & (overlap <= ORTHO_TOL),
         ~adj & (np.abs(overlap - 1) <= ORTHO_TOL)],
        [1, 2, 3],
    )
    for i, j in np.argwhere(np.triu(kind, k=1)).tolist():
        violations.append((VIOLATION_KINDS[kind[i, j]], i + 1, j + 1, float(overlap[i, j])))
    return VerificationReport(not violations, tuple(violations))


def representation_payoff(rep: OrthogonalRepresentation, g: Graph) -> float:
    """Smallest squared overlap over non-adjacent distinct vertex pairs."""
    nonedge = np.triu(~g.adjacency[1:, 1:], k=1)
    if not nonedge.any():
        return 1.0
    vecs = rep.vectors
    return float((np.abs(vecs @ vecs.conj().T) ** 2)[nonedge].min())


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _generic_unitary(dim: int, offset: int = 0) -> np.ndarray:
    """Deterministic unitary with irrational phase structure: golden-angle
    diagonal phases composed with a real rotation that mixes all coordinates."""
    phases = np.exp(1j * GOLDEN_ANGLE * (np.arange(dim) + 1 + offset))
    seedmat = np.cos(
        GOLDEN_ANGLE * (np.arange(1, dim + 1)[:, None] * np.arange(1, dim + 1)[None, :] + offset)
    ) + dim * np.eye(dim)
    rot, _ = np.linalg.qr(seedmat)
    return np.diag(phases) @ rot


def _closed_form(g: Graph, cliques: CliqueSet):
    """The closed-form builder of the graph, or None.

    The clique closed forms need cliques that cover every vertex and hold
    every edge.  Vertex-disjoint cliques take _build_disconnected; a chain,
    whose consecutive cliques share one common number of vertices and whose
    other pairs share none, takes _build_chain.  Any other conference graph
    takes _build_conference.
    """
    # float64 products count exactly here and, unlike int64 ones, run on BLAS
    member = clique_membership(cliques, g.order).astype(float)
    # shared[i, j] counts the vertices cliques i+1 and j+1 share; within[u, v]
    # says whether u and v lie in a common clique, so its diagonal is coverage
    shared, within = member @ member.T, member.T @ member > 0
    if (within.diagonal()[1:].all()
            and np.array_equal(g.adjacency, within & ~np.eye(g.order + 1, dtype=bool))):
        if not np.triu(shared, k=1).any():
            return _build_disconnected
        chain = shared.diagonal(1)
        if chain[0] and (chain == chain[0]).all() and not np.triu(shared, k=2).any():
            return _build_chain
    return _build_conference if _is_conference(g) else None


def _is_conference(g: Graph) -> bool:
    """Whether A^2 = (q-1)/4 (J + I) - A for the order q = 1 (mod 4): a
    conference graph, such as a Paley graph under any labelling.

    The order and the degrees (q-1)/2 are checked first, as they are
    cheap.  The product is taken in float64, which is exact for 0/1
    matrices of any order here and runs on BLAS, unlike an int64 product.
    """
    q = g.order
    a = g.adjacency[1:, 1:]
    if q % 4 != 1 or not (a.sum(axis=1) == (q - 1) // 2).all():
        return False
    a = a.astype(float)
    return bool(np.array_equal(a @ a, (q - 1) / 4 * (1 + np.eye(q)) - a))


def _build_disconnected(g: Graph, cliques: CliqueSet, d: int, attempt: int,
                        rng: np.random.Generator) -> OrthogonalRepresentation:
    """Clique k gets the columns of u^k, u a generic unitary, in its
    vertices' rows; the coordinates past omega stay zero."""
    omega = cliques.omega
    if attempt == 0:
        u = _generic_unitary(omega)
    else:
        z = rng.standard_normal((omega, omega)) + 1j * rng.standard_normal((omega, omega))
        u, _ = np.linalg.qr(z)
    vectors = np.zeros((g.order, d), dtype=complex)
    basis = np.eye(omega, dtype=complex)
    for k, c in enumerate(np.asarray(cliques.cliques) - 1):
        if k > 0:
            basis = u @ basis
        vectors[c, :omega] = basis.T
    return OrthogonalRepresentation(vectors)


def _build_chain(g: Graph, cliques: CliqueSet, d: int, attempt: int,
                 rng: np.random.Generator) -> OrthogonalRepresentation:
    """The first clique gets the standard basis; each later one keeps the
    vectors of the vertices it shares with earlier cliques and completes
    them with a generic basis of their orthogonal complement."""
    omega = cliques.omega
    vectors = np.zeros((g.order, d), dtype=complex)
    placed = np.zeros(g.order, dtype=bool)
    rows = np.asarray(cliques.cliques) - 1
    vectors[rows[0], :omega] = np.eye(omega)
    placed[rows[0]] = True
    for k in range(1, cliques.count):
        shared, new = rows[k][placed[rows[k]]], rows[k][~placed[rows[k]]]
        span = vectors[shared, :omega].T
        # orthonormal basis of the complement of the shared span
        q, _ = np.linalg.qr(np.column_stack([span, np.eye(omega, dtype=complex)]))
        comp = q[:, len(shared): omega]
        dim = comp.shape[1]
        if attempt == 0:
            w = _generic_unitary(dim, offset=7 * k)
        else:
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            w, _ = np.linalg.qr(z)
        vectors[new, :omega] = (comp @ w).T
        placed[new] = True
    return OrthogonalRepresentation(vectors)


def _factor_gram(gram: np.ndarray) -> np.ndarray:
    """Rows whose Gram matrix is the positive semidefinite `gram`: its
    eigenvectors of eigenvalue above RANK_TOL, each scaled by the root of
    its eigenvalue."""
    eigvals, eigvecs = np.linalg.eigh(gram)
    if np.any(eigvals < -1e-9):
        raise ConstructionFailedError("Gram matrix is not positive semidefinite")
    keep = eigvals > RANK_TOL
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


def _build_conference(g: Graph, cliques: CliqueSet, d: int, attempt: int,
                      rng: np.random.Generator) -> OrthogonalRepresentation:
    """The factored Gram matrix I + 2/(sqrt(q)+1) (J - I - A) of rank
    (q+1)/2, padded with zero columns up to d: edges are orthogonal and
    every non-adjacent overlap is 2/(sqrt(q)+1) (the spectral argument in
    `paley`'s module docstring rests on the conference identity alone)."""
    q = g.order
    gram = np.eye(q) + 2 / (np.sqrt(q) + 1) * (~g.adjacency[1:, 1:] & ~np.eye(q, dtype=bool))
    factor = _factor_gram(gram)
    vectors = np.zeros((q, d), dtype=complex)
    vectors[:, :factor.shape[1]] = factor
    return OrthogonalRepresentation(vectors)


# (beta, mu) stages of the ascent: the soft minimum hardens towards the exact
# minimum while the edge penalty stiffens towards orthogonality
SCHEDULE = ((20.0, 0.5), (200.0, 5.0), (2000.0, 50.0), (20000.0, 500.0), (20000.0, 50000.0))
STEPS = 150
ATTEMPTS = 16


def _objective(vecs, nonedge, adj, beta, mu):
    """Soft minimum of the non-edge overlaps p and of 1 - p (so that no two
    vertices merge), minus mu times the edge overlaps, and its gradient
    (W o V V^H) V for W = df/dp, projected onto each row's unit sphere."""
    gram = vecs @ vecs.conj().swapaxes(1, 2)
    overlap = np.abs(gram) ** 2
    near = np.where(nonedge, overlap, np.inf)
    far = np.where(nonedge, 1 - overlap, np.inf)
    lo = np.minimum(near, far).min(axis=(1, 2))[:, None, None]
    near, far = np.exp(-beta * (near - lo)), np.exp(-beta * (far - lo))
    total = (near + far).sum(axis=(1, 2)) / 2
    weights = (near - far) / total[:, None, None] - mu * adj
    value = lo[:, 0, 0] - np.log(total) / beta - mu * (adj * overlap).sum(axis=(1, 2)) / 2
    grad = 2 * (weights * gram) @ vecs
    grad -= np.sum(vecs.conj() * grad, axis=2, keepdims=True).real * vecs
    return value, grad


def _ascend(vecs: np.ndarray, g: Graph, blocks: np.ndarray | None) -> np.ndarray:
    """Gradient ascent of _objective on a batch of row-vector matrices.

    A step is retracted by renormalizing rows or, given the vertex indices
    of a partition into cliques, by one batched QR of every clique's block,
    which keeps edges exact without the penalty.  Each step length grows
    after an improving step and halves after a failing one, which is undone.
    """
    nonedge = ~g.adjacency[1:, 1:] & ~np.eye(g.order, dtype=bool)
    adj = g.adjacency[1:, 1:].astype(float)

    def retract(x):
        if blocks is None:
            return x / np.linalg.norm(x, axis=2, keepdims=True)
        out = np.empty_like(x)
        out[:, blocks] = np.linalg.qr(x[:, blocks].swapaxes(2, 3))[0].swapaxes(2, 3)
        return out

    vecs = retract(vecs)
    for beta, mu in SCHEDULE:
        mu = 0.0 if blocks is not None else mu
        value, grad = _objective(vecs, nonedge, adj, beta, mu)
        step = np.full(len(vecs), 1.0 / beta)
        for _ in range(STEPS):
            trial = retract(vecs + step[:, None, None] * grad)
            tvalue, tgrad = _objective(trial, nonedge, adj, beta, mu)
            up = tvalue >= value
            vecs = np.where(up[:, None, None], trial, vecs)
            grad = np.where(up[:, None, None], tgrad, grad)
            value = np.where(up, tvalue, value)
            step = np.where(up, 1.5 * step, 0.5 * step)
    return vecs


def _certify(vecs: np.ndarray, g: Graph) -> list:
    """Gauss-Seidel polish of a batch's edges, then verification: a certified
    representation or None per batch entry."""
    vecs = vecs.copy()
    edges = np.argwhere(np.triu(g.adjacency[1:, 1:], k=1)).tolist()
    active = np.ones(len(vecs), dtype=bool)
    # project out neighbour components until edges are orthogonal to machine
    # precision; a finished entry is left as it is
    for _ in range(200):
        worst = np.zeros(len(vecs))
        for i, j in edges:
            ov = np.sum(vecs[:, i].conj() * vecs[:, j], axis=1)
            worst = np.maximum(worst, np.abs(ov))
            new = vecs[:, j] - ov[:, None] * vecs[:, i]
            new /= np.linalg.norm(new, axis=1, keepdims=True)
            vecs[:, j] = np.where(active[:, None], new, vecs[:, j])
        active &= worst >= 1e-14
        if not active.any():
            break
    reps = [OrthogonalRepresentation(x) for x in vecs]
    return [rep if verify_representation(rep, g).ok else None for rep in reps]


def _random_starts(seed: int, count: int, order: int, d: int) -> list:
    rngs = [np.random.default_rng((seed, r)) for r in range(count)]
    return [rng.standard_normal((order, d)) + 1j * rng.standard_normal((order, d))
            for rng in rngs]


def _build_by_ascent(g: Graph, d: int, seed: int) -> OrthogonalRepresentation:
    """The first of ATTEMPTS random starts, ascended as one batch, that certifies."""
    starts = np.array(_random_starts(seed, ATTEMPTS, g.order, d))
    for rep in _certify(_ascend(starts, g, None), g):
        if rep is not None:
            return rep
    raise ConstructionFailedError("numeric search found no certified representation")


def _dimension(g: Graph, cliques: CliqueSet, d: int | None, builder) -> int:
    """d, or by default omega where a clique closed form exists and
    otherwise the general-position dimension order minus the complement's
    connectivity (Lovasz-Saks-Schrijver), which is never below omega.  On
    a conference graph that is (q+1)/2, taken without the connectivity
    search: the complement is a connected strongly regular graph of degree
    (q-1)/2, and its connectivity is its degree (Brouwer-Mesner)."""
    if d is None:
        if builder is _build_conference:
            d = (g.order + 1) // 2
        elif builder is not None:
            d = cliques.omega
        else:
            d = g.order - _complement_connectivity(g)
    if d < cliques.omega:
        raise InvalidParamsError(f"dimension {d} below clique size {cliques.omega}")
    return d


def _builder_and_dimension(g: Graph, cliques: CliqueSet, d: int | None):
    """The closed-form builder that reaches dimension d, or None, and d
    with its default filled in; the conference form needs d >= (q+1)/2."""
    builder = _closed_form(g, cliques)
    d = _dimension(g, cliques, d, builder)
    if builder is _build_conference and d < (g.order + 1) // 2:
        builder = None
    return builder, d


def _construct(g: Graph, cliques: CliqueSet, d: int, seed: int,
               builder) -> OrthogonalRepresentation:
    """The closed form of `builder`, certified, retried with fresh generic
    choices until one certifies; without a builder, the ascent."""
    if builder is None:
        return _build_by_ascent(g, d, seed)
    for attempt in range(8):
        rng = np.random.default_rng((seed, attempt))
        rep = builder(g, cliques, d, attempt, rng)
        if verify_representation(rep, g).ok:
            return rep
    raise ConstructionFailedError("no certified representation after retries")


def build_representation(
    g: Graph, cliques: CliqueSet, d: int | None = None, seed: int = 0
) -> OrthogonalRepresentation:
    """Faithful orthogonal representation, certified before it is returned.

    Disjoint cliques get one generic rotated basis per clique; chains of
    overlapping cliques reuse the shared vectors and complete each clique
    inside the orthogonal complement; a conference graph (a Paley graph,
    say) in dimension at least (q+1)/2 gets the factored Gram matrix of
    its Lovasz-optimal vectors; anything else goes through the ascent of
    optimize_payoff from random starts, returning the first that
    certifies.  Every path re-verifies the result and retries with fresh
    generic choices before giving up.  d defaults to omega for the two
    clique closed forms and to the general-position dimension otherwise,
    (q+1)/2 on a conference graph.
    """
    builder, d = _builder_and_dimension(g, cliques, d)
    return _construct(g, cliques, d, seed, builder)


# ---------------------------------------------------------------------------
# Strategy and table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumStrategy:
    """Representation plus per-clique projective measurements onto clique vectors."""

    rep: OrthogonalRepresentation
    cliques: CliqueSet
    verified: bool = False

    @classmethod
    def create(cls, rep: OrthogonalRepresentation, g: Graph,
               cliques: CliqueSet) -> "QuantumStrategy":
        report = verify_representation(rep, g)
        if not report.ok:
            raise UnverifiedRepresentationError(
                f"representation fails checks: {report.violations[:3]}"
            )
        return cls(rep, cliques, verified=True)


def quantum_table(strategy: QuantumStrategy, rel: Relation,
                  completion: str = "uniform") -> ProbTable:
    """Born-rule table of the prepare-and-measure protocol.

    In dimension omega the clique basis is complete and rows are exactly the
    squared overlaps.  Above omega some amplitude falls outside the clique
    span; 'uniform' completion hands that mass to a uniformly random
    admissible output (keeping rows normalized and zeros outside the
    relation), 'omit' records the raw overlaps and leaves rows subnormalized.
    The overlaps are |U U^H|^2 for the matrix U of selected vectors, one row
    per (clique, label) slot.
    """
    if not strategy.verified:
        raise UnverifiedRepresentationError("strategy representation not verified")
    if completion not in ("uniform", "omit"):
        raise InvalidParamsError(f"unknown completion {completion!r}")
    cliques = strategy.cliques
    n, omega = cliques.count, cliques.omega
    size = n * omega
    # one row per slot: the vector of the vertex that slot selects
    u = strategy.rep.vectors[selected_vertices(cliques) - 1]
    entries = np.clip(np.abs(u.conj() @ u.T) ** 2, 0.0, 1.0)
    blocks = entries.reshape(size, n, omega)
    residual = 1.0 - blocks.sum(axis=2)
    short = residual > 1e-12
    subnormal = False
    if completion == "uniform":
        counts = rel.output_counts()
        share = np.divide(residual, counts, out=np.zeros_like(residual),
                          where=short & (counts > 0))
        blocks += rel.mask.reshape(size, n, omega) * share[:, :, None]
    else:
        subnormal = bool(short.any())
    return ProbTable(n, omega, entries, kind="float", subnormalized=subnormal)


# ---------------------------------------------------------------------------
# Payoff optimization over representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeResult:
    rep: OrthogonalRepresentation
    payoff: float


def optimize_payoff(
    g: Graph,
    cliques: CliqueSet,
    d: int | None = None,
    restarts: int = 32,
    seed: int = 0,
) -> OptimizeResult:
    """Maximize the smallest non-adjacent squared overlap in dimension d.

    The closed-form representation, where one exists, and `restarts`
    random starts run the ascent, with one orthonormal frame per clique
    for vertex-disjoint cliques and an edge penalty otherwise.  The best
    certified end point or the unmoved closed form is returned with its
    payoff: a lower bound on the optimum, never below the closed form.
    d defaults as in build_representation.
    """
    if restarts < 0:
        raise InvalidParamsError(f"restarts={restarts} is negative")
    builder, d = _builder_and_dimension(g, cliques, d)
    if 2 * len(g.edges) == g.order * (g.order - 1):
        # a complete graph has no non-adjacent pair to pay off
        return OptimizeResult(_construct(g, cliques, d, seed, builder), 1.0)
    # without a closed form, the random starts include build_representation's
    starts = [] if builder is None else [_construct(g, cliques, d, seed, builder)]
    vecs = [rep.vectors for rep in starts] + _random_starts(seed, restarts, g.order, d)
    blocks = np.asarray(cliques.cliques) - 1 if builder is _build_disconnected else None
    ends = _certify(_ascend(np.array(vecs), g, blocks), g) if vecs else []
    candidates = starts + [rep for rep in ends if rep is not None]
    if not candidates:
        raise ConstructionFailedError("no restart produced a certified representation")
    values = [representation_payoff(rep, g) for rep in candidates]
    best = int(np.argmax(values))
    return OptimizeResult(candidates[best], values[best])


# ---------------------------------------------------------------------------
# MUB detection, remote state preparation, dimension witness
# ---------------------------------------------------------------------------

def check_mub(bases, d: int, tol: float = ORTHO_TOL) -> bool:
    """All cross squared overlaps between the orthonormal bases equal 1/d."""
    mats = [np.asarray(b, dtype=complex) for b in bases]
    for b in mats:
        if b.shape != (d, d):
            raise InvalidParamsError("each basis must be d x d with column vectors")
        if np.max(np.abs(b.conj().T @ b - np.eye(d))) > 1e-9:
            raise InvalidParamsError("basis is not orthonormal")
    for b1, b2 in itertools.combinations(mats, 2):
        cross = np.abs(b1.conj().T @ b2) ** 2
        if np.max(np.abs(cross - 1.0 / d)) > tol:
            return False
    return True


def detect_mub(table: ProbTable, rel: Relation, g: Graph, cliques: CliqueSet) -> bool:
    """On vertex-disjoint cliques, an optimal payoff certifies unbiased bases.

    With two or more disjoint cliques the bound is 1/omega and reaching it
    forces every cross overlap to 1/omega, which is the mutual-unbiasedness
    condition; a single clique meets its bound of 1 vacuously.  The payoff
    must equal the bound within ORTHO_TOL.
    """
    if _closed_form(g, cliques) is not _build_disconnected:
        raise ConditionsNotMetError("MUB detection needs vertex-disjoint cliques")
    report = table_payoff(table, rel)
    return abs(float(report.value) - float(report.upper_bound)) <= ORTHO_TOL


@dataclass(frozen=True)
class RspReport:
    payoff: float
    duplicate_pair: tuple | None = None


def symmetric_equatorial_angles(n: int) -> tuple[float, ...]:
    """n equally spaced antipodal directions on the Bloch equator."""
    return tuple(k * math.pi / n for k in range(n))


def rsp_payoff(angles) -> RspReport:
    """Payoff of the entanglement-assisted protocol on equatorial qubit bases.

    Angles are Bloch-equator directions, one orthogonal state pair each (a
    basis repeats with period pi).  Remote state preparation delivers the
    selected state exactly, so cross probabilities between bases at angular
    distance delta are cos^2(delta/2) and sin^2(delta/2), and the payoff is
    the smallest of those over distinct basis pairs.  Coinciding bases leave
    a zero entry inside the relation, so the payoff collapses to zero;
    bases within ANGLE_TOL of each other, modulo pi, coincide.
    """
    angles = [float(t) for t in angles]
    if not angles:
        raise InvalidParamsError("need at least one direction")
    if len(angles) == 1:
        return RspReport(1.0)
    best = 1.0
    for i, j in itertools.combinations(range(len(angles)), 2):
        delta = angles[i] - angles[j]
        if abs(math.remainder(delta, math.pi)) < ANGLE_TOL:
            return RspReport(0.0, (i, j))
        c, s = math.cos(delta / 2) ** 2, math.sin(delta / 2) ** 2
        best = min(best, c, s)
    return RspReport(best)


@dataclass(frozen=True)
class WitnessReport:
    claimed_dimension: int | None

    @property
    def message(self) -> str:
        if self.claimed_dimension is None:
            return "no claim"
        return f"operational dimension >= {self.claimed_dimension}"


def dimension_witness(table: ProbTable, rel: Relation, omega: int) -> WitnessReport:
    """Claim a dimension bound exactly when the table vanishes outside the relation.

    Any zero-error protocol must separate the omega labels of a single
    clique, so a table with exact zeros on every excluded tuple witnesses an
    operational dimension of at least omega, whatever produced it.
    """
    ok, _ = check_consistency(table, rel)
    return WitnessReport(omega if ok else None)
