"""Classical one-way zero-error protocols for the clique-labelling relation.

Three layers live here.  First, deterministic strategies with the minimum
message count (one message per label class): every such strategy is a choice
of one bijection per clique between messages and labels, and a depth-first
search over those bijections yields the canonical protocol and the full
enumeration.  Second, the reconstruction protocol that encodes the selected
vertex itself and decodes uniformly over admissible outputs, plus the lower
bound showing fewer messages cannot reconstruct: one message per distinct
admissible-output row.  Third, public-coin mixtures of deterministic
strategies, whose optimality question on disjoint edges is a binary
orthogonal array of strength two, constructed here from Hadamard matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceededError,
    ConditionsNotMetError,
    ConstructionFailedError,
    InvalidParamsError,
    SearchExhaustedError,
)
from .graphs import SCHEMA_VERSION, CliqueSet, Graph, is_prime
from .graphs import _covers_all_vertices, _pairs_distinguishable
from .paley import character_matrix
from .relation import Relation, row_classes, selected_vertices, slot_index
from .tables import ProbTable, check_coverage, mix_tables

STRATEGY_CAP = 4096  # strategies enumerate_consistent_strategies returns at most
MIXTURE_ROW_CAP = 8  # strategies in the largest mixture searched for optimality
MIXTURE_COMBINATION_CAP = 2_000_000  # multisets tried per mixture size
ENCODING_COMBINATION_CAP = 5_000_000  # message-set families tried per m


@dataclass(frozen=True)
class ClassicalStrategy:
    """Encoder from Alice inputs to messages, decoder from (message, clique) to outputs.

    The decoder value is a distribution, a tuple of (label, weight) pairs with
    exact rational weights; deterministic strategies have single-entry
    distributions of weight 1.
    """

    m: int
    encoder: dict
    decoder: dict

    @property
    def deterministic(self) -> bool:
        return all(len(dist) == 1 for dist in self.decoder.values())

    def table(self, n: int, omega: int) -> ProbTable:
        """Exact table: integer numerators over the lcm of the decoder
        weights' denominators."""
        size = n * omega
        weights = {key: [(b, Fraction(p)) for b, p in dist]
                   for key, dist in self.decoder.items()}
        den = math.lcm(*{p.denominator for dist in weights.values() for _, p in dist})
        scaled = {key: [(b, p.numerator * (den // p.denominator)) for b, p in dist]
                  for key, dist in weights.items()}
        num = [[0] * size for _ in range(size)]
        starts = [slot_index(omega, y, 0) for y in range(1, n + 1)]
        for (x, a), msg in self.encoder.items():
            row = num[slot_index(omega, x, a)]
            for y, start in enumerate(starts, 1):
                for b, p in scaled[(msg, y)]:
                    row[start + b] = p
        return ProbTable.from_numerators(n, omega, num, den)

    def to_json(self) -> dict:
        dec = []
        for (msg, y), dist in sorted(self.decoder.items()):
            if len(dist) == 1 and dist[0][1] == 1:
                dec.append([msg, y, dist[0][0]])
            else:
                dec.append(
                    [msg, y, [[b, f"{Fraction(p).numerator}/{Fraction(p).denominator}"]
                              for b, p in dist]]
                )
        return {
            "schema_version": SCHEMA_VERSION,
            "m": self.m,
            "encoder": [[x, a, msg] for (x, a), msg in sorted(self.encoder.items())],
            "decoder": dec,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClassicalStrategy":
        encoder = {(x, a): msg for x, a, msg in data["encoder"]}
        decoder = {}
        for msg, y, out in data["decoder"]:
            if isinstance(out, list):
                decoder[(msg, y)] = tuple((b, Fraction(p)) for b, p in out)
            else:
                decoder[(msg, y)] = ((out, Fraction(1)),)
        return cls(int(data["m"]), encoder, decoder)


def _strategy_from_assignment(assignment: tuple[tuple[int, ...], ...]) -> ClassicalStrategy:
    """Build the strategy whose message i means 'label pi_x(i) for clique x'."""
    n = len(assignment)
    omega = len(assignment[0])
    encoder = {}
    decoder = {}
    for x, perm in enumerate(assignment, start=1):
        for msg, a in enumerate(perm):
            encoder[(x, a)] = msg
            decoder[(msg, x)] = ((a, Fraction(1)),)
    return ClassicalStrategy(omega, encoder, decoder)


def _fits(mask: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Which candidate bijections keep every paired tuple admissible.

    rows[j, i] is the slot message i takes in an already placed clique j,
    cols[p, i] the slot it would take under candidate p; one gather of the
    mask answers all candidates at once.
    """
    return mask[rows[:, None, :], cols[None, :, :]].all(axis=(0, 2))


def _assignments(rel: Relation):
    """Per-clique label bijections keeping all paired tuples admissible, in order.

    The first clique keeps the identity bijection (message relabelling is a
    symmetry, so this loses nothing and makes the enumeration duplicate-free);
    later cliques take permutations in lexicographic order, so the
    assignments come out in lexicographic order.  Depth-first with an
    explicit stack, so the clique count is not bounded by recursion depth.
    """
    n, omega = rel.n, rel.omega
    perm_tuples = list(itertools.permutations(range(omega)))
    perms = np.array(perm_tuples, dtype=np.intp)
    rows = np.empty((n, omega), dtype=np.intp)  # slot of each message, per placed clique
    rows[0] = np.arange(omega)
    chosen = [0]

    def candidates(k):
        return iter(np.flatnonzero(_fits(rel.mask, rows[:k], k * omega + perms)).tolist())

    if n == 1:
        yield (perm_tuples[0],)
        return
    stack = [candidates(1)]  # one candidate iterator per clique past the first
    while stack:
        k = len(stack)
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            continue
        chosen[k:] = [p]
        rows[k] = k * omega + perms[p]
        if k + 1 == n:
            yield tuple(perm_tuples[i] for i in chosen)
        else:
            stack.append(candidates(k + 1))


def _first_assignment(rel: Relation) -> tuple[tuple[int, ...], ...]:
    first = next(_assignments(rel), None)
    if first is None:
        raise SearchExhaustedError(
            "no omega-message consistent strategy exists for this instance"
        )
    return first


def ccr_protocol(g: Graph, cliques: CliqueSet, rel: Relation) -> ClassicalStrategy:
    """A deterministic omega-message strategy consistent with the relation.

    Messages partition Alice's inputs into label classes, one row per clique
    each; diagonal blocks force this shape, so an exhaustive backtracking over
    per-clique bijections is complete.  Ties break by lexicographic order of
    the bijections, first solution returned.
    """
    return _strategy_from_assignment(_first_assignment(rel))


def strategy_partition(strategy: ClassicalStrategy) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Message classes as tuples of (clique, label), for inspection and tests."""
    classes = [[] for _ in range(strategy.m)]
    for (x, a), msg in sorted(strategy.encoder.items()):
        classes[msg].append((x, a))
    return tuple(tuple(c) for c in classes)


def sccr_protocol(g: Graph, cliques: CliqueSet, rel: Relation) -> ClassicalStrategy:
    """Vertex-encoding strategy with uniform decoding over admissible outputs.

    Inputs selecting the same vertex share a message, so the message count is
    the graph order; Bob spreads his output uniformly over every admissible
    label, which covers the whole relation and meets the algebraic payoff
    bound.  Requires every vertex covered by a maximum clique and all
    cross-clique vertex pairs distinguishable.
    """
    # G0 and G1 only: the connectivity search behind G2 is not needed here
    if not (_covers_all_vertices(g, cliques) and _pairs_distinguishable(g, cliques)):
        raise ConditionsNotMetError(
            "graph must cover all vertices and distinguish cross-clique pairs"
        )
    slots = itertools.product(range(1, cliques.count + 1), range(cliques.omega))
    # message v - 1 for an input selecting vertex v
    encoder = dict(zip(slots, (selected_vertices(cliques) - 1).tolist()))
    defining_row = {}
    for slot, msg in encoder.items():
        defining_row.setdefault(msg, slot)
    decoder = {}
    for msg, (x, a) in defining_row.items():
        for y in range(1, cliques.count + 1):
            outs = rel.valid_outputs(x, a, y)
            w = Fraction(1, len(outs))
            decoder[(msg, y)] = tuple((b, w) for b in outs)
    return ClassicalStrategy(g.order, encoder, decoder)


def enumerate_consistent_strategies(
    g: Graph, cliques: CliqueSet, rel: Relation
) -> list[ClassicalStrategy]:
    """All omega-message deterministic strategies whose tables stay on the relation.

    Distinct assignments give distinct tables (the first clique's bijection is
    pinned), so no further deduplication is needed.
    """
    solutions = list(itertools.islice(_assignments(rel), STRATEGY_CAP + 1))
    if len(solutions) > STRATEGY_CAP:
        raise CapExceededError(f"more than {STRATEGY_CAP} strategies")
    return [_strategy_from_assignment(s) for s in solutions]


# ---------------------------------------------------------------------------
# Exhaustive lower-bound oracle for reconstruction with private coins
# ---------------------------------------------------------------------------

def _vertex_rows(cliques: CliqueSet, rel: Relation):
    """(masks, membership) per selected vertex: the admissible outputs of
    each Bob clique as a bit set over labels, from the first input that
    selects the vertex (the rows of one vertex are identical), and the
    cliques holding it."""
    vertices, first = np.unique(selected_vertices(cliques), return_index=True)
    bits = rel.mask.reshape(-1, rel.n, rel.omega) @ (1 << np.arange(rel.omega))
    masks = dict(zip(vertices.tolist(), map(tuple, bits[first].tolist())))
    membership = {v: frozenset(cliques.cliques_containing(v)) for v in masks}
    return masks, membership


def _message_candidates(vertices, masks, membership, n, omega):
    """Nonempty vertex sets usable as one message: clique-disjoint with
    nonempty admissible output sets for every Bob clique."""
    verts = sorted(vertices)
    out = []

    def extend(prefix, used_cliques, allowed, start):
        for idx in range(start, len(verts)):
            v = verts[idx]
            if membership[v] & used_cliques:
                continue
            new_allowed = tuple(al & masks[v][y] for y, al in enumerate(allowed))
            if any(al == 0 for al in new_allowed):
                continue
            chosen = prefix + (v,)
            out.append((frozenset(chosen), new_allowed))
            extend(chosen, used_cliques | membership[v], new_allowed, idx + 1)

    full = (1 << omega) - 1
    extend((), frozenset(), tuple(full for _ in range(n)), 0)
    return out


def verify_classical_lower_bound(
    g: Graph, cliques: CliqueSet, rel: Relation, m: int
) -> bool:
    """True iff no deterministic m-message encoding admits a covering decoder.

    Bob's decoder may randomize: per (message, clique) he owns an output set,
    which must be admissible for every input sharing the message (zero
    error) and must cover every admissible output of every such input
    (coverage).  Both hold together only when all inputs behind a message
    have identical admissible-output vectors, that is identical mask rows,
    so the fewest messages any encoder needs is the number of distinct rows.
    """
    return row_classes(rel.mask)[1] > m


def randomized_encoding_feasible(
    g: Graph,
    cliques: CliqueSet,
    rel: Relation,
    m: int,
):
    """Witness for the stronger adversary whose encoder is randomized too.

    Alice may split one input over several messages; a message is then a set
    of selected vertices with clique-disjoint membership, Bob's output set
    per (message, clique) is the intersection of the members' admissible
    sets, and coverage asks that each vertex's admissible outputs are the
    union over its messages.  Returns the message family (tuple of vertex
    frozensets) if some m-message protocol covers the relation, else None.
    Disjoint-clique graphs with three or more cliques do admit such covers
    below the graph order, so this is strictly stronger than the
    deterministic-encoder bound.
    """
    n = cliques.count
    masks, membership = _vertex_rows(cliques, rel)
    vertices = sorted(masks)
    if m >= len(vertices):
        return tuple(frozenset([v]) for v in vertices)
    candidates = _message_candidates(vertices, masks, membership, n, cliques.omega)
    take = min(m, len(candidates))
    total = math.comb(len(candidates), take)
    if total > ENCODING_COMBINATION_CAP:
        raise CapExceededError(
            f"{total} message-set combinations exceed cap {ENCODING_COMBINATION_CAP}"
        )
    for combo in itertools.combinations(range(len(candidates)), take):
        covered = set()
        for ci in combo:
            covered |= candidates[ci][0]
        if covered != set(vertices):
            continue
        feasible = True
        for v in vertices:
            for y in range(n):
                need = masks[v][y]
                got = 0
                for ci in combo:
                    vs, allowed = candidates[ci]
                    if v in vs:
                        got |= allowed[y]
                if need & ~got:
                    feasible = False
                    break
            if not feasible:
                break
        if feasible:
            return tuple(candidates[ci][0] for ci in combo)
    return None


# ---------------------------------------------------------------------------
# Public-coin mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublicCoinMixture:
    """Weighted family of deterministic strategies switched by a shared coin."""

    strategies: tuple[ClassicalStrategy, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.strategies) != len(self.weights):
            raise InvalidParamsError("one weight per strategy")
        if sum(self.weights) != 1 or any(w <= 0 for w in self.weights):
            raise InvalidParamsError("weights must be positive and sum to 1")

    @property
    def coin_inputs(self) -> int:
        return len(self.strategies)

    def table(self, n: int, omega: int) -> ProbTable:
        return mix_tables(
            [(s.table(n, omega), w) for s, w in zip(self.strategies, self.weights)]
        )

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "weights": [f"{w.numerator}/{w.denominator}" for w in self.weights],
            "strategies": [s.to_json() for s in self.strategies],
        }


def _single_clique_variants(rel: Relation) -> list[tuple[tuple[int, ...], ...]]:
    """The first assignment, then each admissible variant of it in one clique
    past the first, cliques in order and bijections in lexicographic order."""
    n, omega = rel.n, rel.omega
    base = _first_assignment(rel)
    perm_tuples = list(itertools.permutations(range(omega)))
    perms = np.array(perm_tuples, dtype=np.intp)
    rows = np.arange(n)[:, None] * omega + np.array(base, dtype=np.intp)
    # variants differ from the base, and from each other, in exactly one
    # clique, so they are distinct; only tuples pairing that clique change
    chosen = [base]
    for i in range(1, n):
        cols = i * omega + perms
        fits = _fits(rel.mask, rows[:i], cols) & _fits(rel.mask.T, rows[i + 1:], cols)
        chosen += [base[:i] + (perm_tuples[p],) + base[i + 1:]
                   for p in np.flatnonzero(fits).tolist() if perm_tuples[p] != base[i]]
    return chosen


def _uniform_mixture(strategies) -> PublicCoinMixture:
    w = Fraction(1, len(strategies))
    return PublicCoinMixture(tuple(strategies), tuple(w for _ in strategies))


def mixture_for_coverage(g: Graph, cliques: CliqueSet, rel: Relation) -> PublicCoinMixture:
    """Uniform mixture of consistent strategies putting weight on every admissible tuple.

    Starts from the canonical strategy and adds, for each clique past the
    first, every variant whose bijection for that clique alone is replaced
    by an admissible alternative.  Size-two cliques have one alternative
    each, so n disjoint edges give the identity table plus the n-1
    single-swap tables and the payoff is exactly 1/n; larger cliques
    contribute more variants and a correspondingly smaller payoff.  When
    the variants leave part of the relation uncovered, the mixture is the
    uniform one over every consistent strategy (CapExceededError past
    STRATEGY_CAP of them): no mixture reaches a tuple that none of them
    reaches, so it raises only when no covering mixture exists.
    """
    n, omega = rel.n, rel.omega
    mixture = _uniform_mixture(
        [_strategy_from_assignment(a) for a in _single_clique_variants(rel)]
    )
    if check_coverage(mixture.table(n, omega), rel)[0]:
        return mixture
    mixture = _uniform_mixture(enumerate_consistent_strategies(g, cliques, rel))
    if not check_coverage(mixture.table(n, omega), rel)[0]:
        raise SearchExhaustedError(
            "no consistent strategy reaches some admissible tuple here"
        )
    return mixture


def mixture_for_optimality(
    g: Graph,
    cliques: CliqueSet,
    rel: Relation,
) -> PublicCoinMixture:
    """Smallest uniform mixture of deterministic strategies meeting the payoff bound.

    A uniform mixture of N consistent strategies has entry counts/N, and the
    bound 1/eta is met exactly iff every admissible tuple is chosen by at
    least N/eta of the strategies.  The search tries N = eta, 2*eta, ... over
    multisets from the full strategy pool in lexicographic order, so the
    witness found is deterministic.  On n disjoint two-cliques the strategies
    map to binary rows and the condition is a strength-two orthogonal array.
    """
    pool = enumerate_consistent_strategies(g, cliques, rel)
    n, omega = rel.n, rel.omega
    # keep enumeration (lexicographic assignment) order so the first witness
    # found is deterministic and matches the canonical array of this size
    # a deterministic table is 0/1 over denominator 1, so its numerators at
    # the relation's tuples (in lexicographic order) are its choice counts
    pool_tables = [(s.table(n, omega).num[rel.mask].tolist(), s) for s in pool]
    eta = rel.max_valid_outputs()
    positions = range(rel.size)

    for big_n in range(eta, MIXTURE_ROW_CAP + 1, eta):
        quota = big_n // eta
        total = math.comb(len(pool_tables) + big_n - 1, big_n)
        if total > MIXTURE_COMBINATION_CAP:
            raise CapExceededError("mixture search space exceeds cap")
        for combo in itertools.combinations_with_replacement(
            range(len(pool_tables)), big_n
        ):
            if all(
                sum(pool_tables[ci][0][j] for ci in combo) >= quota
                for j in positions
            ):
                return _uniform_mixture([pool_tables[ci][1] for ci in combo])
    raise SearchExhaustedError(
        f"no uniform mixture of at most {MIXTURE_ROW_CAP} strategies meets the bound"
    )


# ---------------------------------------------------------------------------
# Binary orthogonal arrays of strength two
# ---------------------------------------------------------------------------

def is_orthogonal_array(rows) -> bool:
    """Whether every pair of columns carries all four binary pairs equally often.

    With S = 1 - 2 rows (entries +-1), k >= 2 binary columns form such an
    array exactly when every column of S sums to zero and S^T S = N I.
    """
    rows = [tuple(int(x) for x in r) for r in rows]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        return False
    a = np.array(rows, dtype=np.int64)
    if not np.isin(a, (0, 1)).all():
        return False
    s = 1 - 2 * a
    k = a.shape[1]
    return k < 2 or (not s.sum(axis=0).any()
                     and np.array_equal(s.T @ s, len(a) * np.eye(k, dtype=np.int64)))


def _conference(q: int, sign: int) -> np.ndarray:
    """[[0, 1^T], [sign * 1, Q]], Q the quadratic-character matrix of prime q."""
    return np.block([[np.zeros((1, 1), dtype=np.int64), np.ones((1, q), dtype=np.int64)],
                     [np.full((q, 1), sign, dtype=np.int64), character_matrix(q)]])


def _hadamard(order: int) -> np.ndarray | None:
    """A normalized Hadamard matrix (first row and column all +1), or None.

    Paley I covers order q + 1 for a prime q = 3 mod 4 (I + S with S the
    skew conference matrix), Paley II order 2(q + 1) for a prime q = 1 mod 4
    (from the symmetric conference matrix C as C x [[1,1],[1,-1]] +
    I x [[1,-1],[-1,-1]]), and Sylvester doubling [[H, H], [H, -H]] every
    order twice a covered one.  Together they cover every order 4..48.
    """
    if order == 1:
        return np.ones((1, 1), dtype=np.int64)
    if order % 2:
        return None
    if order % 4 == 0 and is_prime(order - 1):  # q = order - 1 = 3 mod 4
        h = _conference(order - 1, -1) + np.eye(order, dtype=np.int64)
    elif order % 8 == 4 and is_prime(order // 2 - 1):  # q = order/2 - 1 = 1 mod 4
        h = (np.kron(_conference(order // 2 - 1, 1), [[1, 1], [1, -1]])
             + np.kron(np.eye(order // 2, dtype=np.int64), [[1, -1], [-1, -1]]))
    else:
        half = _hadamard(order // 2)
        if half is None:
            return None
        h = np.block([[half, half], [half, -half]])
    h = h * h[0]
    return h * h[:, :1]


def _orthogonal_array(k: int) -> np.ndarray:
    """A binary strength-two orthogonal array with k >= 2 columns and the
    fewest rows, N = 4 ceil((k + 1) / 4) (Rao's bound, with N a multiple of
    four).  Its rows are columns 1..k of a normalized Hadamard matrix of
    order N mapped +1 -> 0 and -1 -> 1: those columns are balanced and
    pairwise orthogonal, so each column pair shows every pattern N/4 times.
    """
    n_rows = 4 * -(-(k + 1) // 4)
    h = _hadamard(n_rows)
    if h is None:
        raise SearchExhaustedError(
            f"no Hadamard matrix of order {n_rows} from Sylvester doubling or Paley I/II"
        )
    rows = (1 - h[:, 1:k + 1]) // 2
    if not is_orthogonal_array(rows):
        raise ConstructionFailedError(f"order-{n_rows} rows fail the strength-two check")
    return rows


def min_oa_rows(k: int) -> int:
    """Minimum row count of a binary strength-two orthogonal array with k columns.

    One column cannot express the strength-two condition; two rows {0, 1} are
    taken as the degenerate answer there.  From two columns on, the array is
    constructed from a Hadamard matrix and certified.
    """
    if k < 1:
        raise InvalidParamsError("k must be positive")
    if k == 1:
        return 2
    return len(_orthogonal_array(k))
