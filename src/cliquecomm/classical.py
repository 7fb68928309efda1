"""Classical one-way zero-error protocols for the clique-labelling relation.

Three layers live here.  First, deterministic strategies with the minimum
message count (one message per label class): every such strategy is a choice
of one bijection per clique between messages and labels, and a backtracking
search over those bijections yields the canonical protocol and the full
enumeration.  Second, the reconstruction protocol that encodes the selected
vertex itself and decodes uniformly over admissible outputs, plus the
exhaustive oracle showing fewer messages cannot reconstruct.  Third,
public-coin mixtures of deterministic strategies, whose optimality question
reduces to finding small binary orthogonal arrays of strength two.
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
    InvalidParamsError,
    SearchExhaustedError,
)
from .graphs import SCHEMA_VERSION, CliqueSet, Graph, check_conditions
from .relation import Relation, selected_vertex, slot_index
from .tables import ProbTable, mix_tables


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


def _assignment_search(rel: Relation, find_all: bool, limit: int | None = None):
    """Backtrack over per-clique label bijections keeping all paired tuples admissible.

    The first clique keeps the identity bijection (message relabelling is a
    symmetry, so this loses nothing and makes the enumeration duplicate-free);
    later cliques try permutations in lexicographic order, so the first
    solution found is the lexicographically least assignment.
    """
    n, omega = rel.n, rel.omega
    identity = tuple(range(omega))
    perms = list(itertools.permutations(range(omega)))
    solutions = []

    def compatible(assign, k, perm):
        for j, pj in enumerate(assign):
            for i in range(omega):
                if (j + 1, pj[i], k + 1, perm[i]) not in rel:
                    return False
        return True

    def place(assign):
        k = len(assign)
        if k == n:
            solutions.append(tuple(assign))
            return not find_all
        for perm in perms:
            if compatible(assign, k, perm):
                if place(assign + [perm]):
                    return True
                if limit is not None and len(solutions) >= limit:
                    return True
        return False

    place([identity])
    return solutions


def ccr_protocol(g: Graph, cliques: CliqueSet, rel: Relation) -> ClassicalStrategy:
    """A deterministic omega-message strategy consistent with the relation.

    Messages partition Alice's inputs into label classes, one row per clique
    each; diagonal blocks force this shape, so an exhaustive backtracking over
    per-clique bijections is complete.  Ties break by lexicographic order of
    the bijections, first solution returned.
    """
    solutions = _assignment_search(rel, find_all=False)
    if not solutions:
        raise SearchExhaustedError(
            "no omega-message consistent strategy exists for this instance"
        )
    return _strategy_from_assignment(solutions[0])


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
    # only G0 and G1 are read; dim_cap=0 skips the connectivity search
    report = check_conditions(g, cliques, dim_cap=0)
    if not report.reconstruction_ready:
        raise ConditionsNotMetError(
            "graph must cover all vertices and distinguish cross-clique pairs"
        )
    vertex_msg = {v: v - 1 for v in g.vertices}
    encoder = {}
    defining_row = {}
    for x in range(1, cliques.count + 1):
        for a in range(cliques.omega):
            v = selected_vertex(cliques.clique(x), a)
            encoder[(x, a)] = vertex_msg[v]
            defining_row.setdefault(v, (x, a))
    decoder = {}
    for v, (x, a) in defining_row.items():
        for y in range(1, cliques.count + 1):
            outs = rel.valid_outputs(x, a, y)
            w = Fraction(1, len(outs))
            decoder[(vertex_msg[v], y)] = tuple((b, w) for b in outs)
    return ClassicalStrategy(g.order, encoder, decoder)


def enumerate_consistent_strategies(
    g: Graph, cliques: CliqueSet, rel: Relation, limit: int = 4096
) -> list[ClassicalStrategy]:
    """All omega-message deterministic strategies whose tables stay on the relation.

    Distinct assignments give distinct tables (the first clique's bijection is
    pinned), so no further deduplication is needed.
    """
    solutions = _assignment_search(rel, find_all=True, limit=limit + 1)
    if len(solutions) > limit:
        raise CapExceededError(f"more than {limit} strategies")
    return [_strategy_from_assignment(s) for s in solutions]


# ---------------------------------------------------------------------------
# Exhaustive lower-bound oracle for reconstruction with private coins
# ---------------------------------------------------------------------------

def _vertex_rows(cliques: CliqueSet, rel: Relation):
    """Group Alice inputs by selected vertex; rows of one vertex are identical."""
    rows = {}
    for x in range(1, cliques.count + 1):
        for a in range(cliques.omega):
            v = selected_vertex(cliques.clique(x), a)
            rows.setdefault(v, (x, a))
    # admissible outputs of each (row, y) block as a bit set over labels
    bits = rel.mask.reshape(-1, rel.n, rel.omega) @ (1 << np.arange(rel.omega))
    masks = {v: tuple(bits[(x - 1) * rel.omega + a].tolist()) for v, (x, a) in rows.items()}
    membership = {v: frozenset(cliques.cliques_containing(v)) for v in rows}
    return rows, masks, membership


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
    g: Graph,
    cliques: CliqueSet,
    rel: Relation,
    m: int,
    max_nodes: int = 5_000_000,
) -> bool:
    """True iff no deterministic m-message encoding admits a covering decoder.

    Bob's decoder may randomize: per (message, clique) he owns an output set,
    which must be admissible for every input sharing the message (zero
    error) and must cover every admissible output of every such input
    (coverage).  Both hold together only when all inputs behind a message
    have identical admissible-output vectors, so the exhaustive search over
    encoders prunes any block mixing two different vectors and only branches
    on opening new message blocks.
    """
    # an input's admissible-output vector is its mask row
    sigs = [row.tobytes() for row in rel.mask]
    visited = 0

    def place(i, blocks):
        nonlocal visited
        visited += 1
        if visited > max_nodes:
            raise CapExceededError("encoder search exceeded node cap")
        if i == len(sigs):
            return True
        if sigs[i] in blocks:
            return place(i + 1, blocks)
        if len(blocks) < m:
            return place(i + 1, blocks + [sigs[i]])
        return False

    return not place(0, [])


def randomized_encoding_feasible(
    g: Graph,
    cliques: CliqueSet,
    rel: Relation,
    m: int,
    max_combinations: int = 5_000_000,
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
    rows, masks, membership = _vertex_rows(cliques, rel)
    vertices = sorted(rows)
    if m >= len(vertices):
        return tuple(frozenset([v]) for v in vertices)
    candidates = _message_candidates(vertices, masks, membership, n, cliques.omega)
    take = min(m, len(candidates))
    total = math.comb(len(candidates), take)
    if total > max_combinations:
        raise CapExceededError(
            f"{total} message-set combinations exceed cap {max_combinations}"
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


def _assignment_of(strategy: ClassicalStrategy, n: int, omega: int):
    perms = []
    for x in range(1, n + 1):
        perm = [None] * omega
        for a in range(omega):
            perm[strategy.encoder[(x, a)]] = a
        perms.append(tuple(perm))
    return perms


def mixture_for_coverage(g: Graph, cliques: CliqueSet, rel: Relation) -> PublicCoinMixture:
    """Uniform mixture of single-clique variants putting weight on every admissible tuple.

    Starts from the canonical strategy and adds, for each clique past the
    first, every variant whose bijection for that clique alone is replaced
    by an admissible alternative.  Size-two cliques have one alternative
    each, so n disjoint edges give the identity table plus the n-1
    single-swap tables and the payoff is exactly 1/n; larger cliques
    contribute more variants and a correspondingly smaller payoff.  Raises
    when even the full variant family leaves part of the relation uncovered.
    """
    n, omega = rel.n, rel.omega
    base = ccr_protocol(g, cliques, rel)
    assign = _assignment_of(base, n, omega)
    chosen = [tuple(assign)]
    for i in range(1, n):
        for perm in itertools.permutations(range(omega)):
            if perm == assign[i]:
                continue
            trial = list(assign)
            trial[i] = perm
            if _pairwise_admissible(trial, rel):
                chosen.append(tuple(trial))
    unique = []
    for a in chosen:
        if a not in unique:
            unique.append(a)
    w = Fraction(1, len(unique))
    mixture = PublicCoinMixture(
        tuple(_strategy_from_assignment(a) for a in unique),
        tuple(w for _ in unique),
    )
    from .tables import check_coverage

    if not check_coverage(mixture.table(n, omega), rel)[0]:
        raise SearchExhaustedError(
            "single-clique variants do not reach every admissible tuple here"
        )
    return mixture


def _pairwise_admissible(assign, rel: Relation) -> bool:
    n, omega = rel.n, rel.omega
    for j in range(n):
        for k in range(j + 1, n):
            for i in range(omega):
                if (j + 1, assign[j][i], k + 1, assign[k][i]) not in rel:
                    return False
    return True


def mixture_for_optimality(
    g: Graph,
    cliques: CliqueSet,
    rel: Relation,
    max_rows: int = 8,
    max_combinations: int = 2_000_000,
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

    for big_n in range(eta, max_rows + 1, eta):
        quota = big_n // eta
        total = math.comb(len(pool_tables) + big_n - 1, big_n)
        if total > max_combinations:
            raise CapExceededError("mixture search space exceeds cap")
        for combo in itertools.combinations_with_replacement(
            range(len(pool_tables)), big_n
        ):
            if all(
                sum(pool_tables[ci][0][j] for ci in combo) >= quota
                for j in positions
            ):
                w = Fraction(1, big_n)
                return PublicCoinMixture(
                    tuple(pool_tables[ci][1] for ci in combo),
                    tuple(w for _ in combo),
                )
    raise SearchExhaustedError(
        f"no uniform mixture of at most {max_rows} strategies meets the bound"
    )


# ---------------------------------------------------------------------------
# Binary orthogonal arrays of strength two
# ---------------------------------------------------------------------------

def is_orthogonal_array(rows, t: int = 2) -> bool:
    """Whether every pair of columns carries all four binary pairs equally often."""
    if t != 2:
        raise InvalidParamsError("only strength 2 is supported")
    rows = [tuple(int(x) for x in r) for r in rows]
    if not rows:
        return False
    k = len(rows[0])
    if any(len(r) != k for r in rows):
        return False
    if any(x not in (0, 1) for r in rows for x in r):
        return False
    n_rows = len(rows)
    if k < 2:
        return True  # no column pair to constrain
    if n_rows % 4:
        return False
    lam = n_rows // 4
    for c1, c2 in itertools.combinations(range(k), 2):
        counts = [0, 0, 0, 0]
        for r in rows:
            counts[2 * r[c1] + r[c2]] += 1
        if any(c != lam for c in counts):
            return False
    return True


def _oa_exists(n_rows: int, k: int) -> bool:
    """Backtracking search with nondecreasing rows and an all-zero first row.

    Any strength-two array can be column-flipped so its lexicographically
    least row is all zeros, so this canonical form preserves existence.
    """
    lam = n_rows // 4
    pairs = list(itertools.combinations(range(k), 2))
    counts = {p: [0, 0, 0, 0] for p in pairs}

    def add(r, sign):
        for p in pairs:
            pat = 2 * ((r >> p[0]) & 1) + ((r >> p[1]) & 1)
            counts[p][pat] += sign

    def over_quota():
        return any(c > lam for cs in counts.values() for c in cs)

    def place(start, remaining):
        if remaining == 0:
            return all(c == lam for cs in counts.values() for c in cs)
        for r in range(start, 2 ** k):
            add(r, +1)
            if not over_quota() and place(r, remaining - 1):
                return True
            add(r, -1)
        return False

    add(0, +1)
    return place(0, n_rows - 1)


def min_oa_rows(k: int, max_k: int = 8, max_rows: int = 16) -> int:
    """Minimum row count of a binary strength-two orthogonal array with k columns.

    One column cannot express the strength-two condition; two rows {0, 1} are
    taken as the degenerate answer there.  Row counts step by four since each
    column pair must split evenly into four patterns.
    """
    if k < 1:
        raise InvalidParamsError("k must be positive")
    if k > max_k:
        raise CapExceededError(f"k={k} exceeds cap {max_k}")
    if k == 1:
        return 2
    for n_rows in range(4, max_rows + 1, 4):
        if _oa_exists(n_rows, k):
            return n_rows
    raise SearchExhaustedError(f"no array found with at most {max_rows} rows")
