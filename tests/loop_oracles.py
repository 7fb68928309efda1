"""Per-tuple loop versions of the array kernels, kept as test oracles.

Each function restates one kernel the library computes over the relation
mask, an integer numerator matrix, or a graph's adjacency and clique
membership matrices, the slow way: one tuple, entry, slot pair or vertex
pair at a time, through public accessors only (`rel.tuples`,
`table.prob`, `g.adjacent`, `g.neighbors`, `cliques.cliques_containing`,
`rep.overlap_sq`).  The property tests compare the two.  The clique
labelling rule itself is stated here too: `label_to_colouring`,
`colouring_to_label` and `labels_consistent`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from cliquecomm import (
    Graph,
    InconsistentRelationError,
    InvalidParamsError,
    Relation,
    build_relation,
)
from cliquecomm.quantum import ORTHO_TOL, _generic_unitary
from cliquecomm.simulate import ReconstructionResult
from cliquecomm.tables import ZERO_TOL, CompressedTable


def label_to_colouring(clique, a):
    """Binary colouring of a clique's vertices with the 1 at position a."""
    if not 0 <= a < len(clique):
        raise InvalidParamsError(f"label {a} out of range for clique of size {len(clique)}")
    return {v: int(i == a) for i, v in enumerate(clique)}


def colouring_to_label(clique, colouring):
    """Inverse of label_to_colouring."""
    ones = [i for i, v in enumerate(clique) if colouring.get(v, 0) == 1]
    if len(ones) != 1:
        raise InvalidParamsError("colouring must assign 1 to exactly one clique vertex")
    return ones[0]


def labels_consistent(g, cliques, x, a, y, b):
    """Whether labelling clique x with a and clique y with b is consistent.

    Reduces to a condition on the two selected vertices: they are the same
    vertex or they are not adjacent, which is one test since no vertex is
    adjacent to itself.  A selected vertex inside the other party's clique
    is adjacent to every other vertex there, so the shared-colour rule
    needs no clause of its own.
    """
    if not (0 <= a < cliques.omega and 0 <= b < cliques.omega):
        raise InvalidParamsError(f"label out of range for clique size {cliques.omega}")
    return not g.adjacent(cliques.clique(x)[a], cliques.clique(y)[b])


def relation_tuples(g, cliques):
    """Every consistent tuple in lexicographic order, by labels_consistent."""
    n, omega = cliques.count, cliques.omega
    tuples = []
    for x in range(1, n + 1):
        for a in range(omega):
            for y in range(1, n + 1):
                outs = [b for b in range(omega) if labels_consistent(g, cliques, x, a, y, b)]
                if not outs:
                    raise InconsistentRelationError(
                        f"input ({x},{a},{y}) admits no consistent output"
                    )
                tuples.extend((x, a, y, b) for b in outs)
    return tuple(tuples)


def valid_outputs(index, omega, x, a, y):
    return tuple(b for b in range(omega) if (x, a, y, b) in index)


def max_valid_outputs(rel):
    index = frozenset(rel.tuples)
    return max(
        len(valid_outputs(index, rel.omega, x, a, y))
        for x in range(1, rel.n + 1)
        for a in range(rel.omega)
        for y in range(1, rel.n + 1)
    )


def check_consistency(table, rel):
    index = frozenset(rel.tuples)
    violations = []
    for x, a in table.rows():
        for y in range(1, rel.n + 1):
            valid = set(valid_outputs(index, rel.omega, x, a, y))
            for b in range(rel.omega):
                if b not in valid and not table.is_zero(table.prob(x, a, y, b)):
                    violations.append((x, a, y, b, table.prob(x, a, y, b)))
    return not violations, violations


def check_coverage(table, rel):
    missing = [t for t in rel.tuples if table.is_zero(table.prob(*t))]
    return not missing, missing


def payoff(table, rel):
    """(value, witness, max valid outputs): the first strict minimum over
    the tuples in lexicographic order."""
    best = None
    witness = None
    for t in rel.tuples:
        v = table.prob(*t)
        if best is None or v < best:
            best, witness = v, t
    return best, witness, max_valid_outputs(rel)


def validate(n, omega, entries, kind, subnormalized=False):
    """The block-by-block ProbTable validation; raises InvalidParamsError."""
    size = n * omega
    for r in range(size):
        for y in range(1, n + 1):
            block = [entries[r][(y - 1) * omega + c] for c in range(omega)]
            if any(e < 0 or e > 1 for e in map(float, block)):
                raise InvalidParamsError("entries must lie in [0, 1]")
            total = sum(block)
            if kind == "exact":
                if total != 1:
                    raise InvalidParamsError(
                        f"row {r}, clique {y}: block sums to {total}, not 1"
                    )
            elif subnormalized:
                if float(total) > 1 + ZERO_TOL:
                    raise InvalidParamsError("block sum exceeds 1")
            elif abs(float(total) - 1) > ZERO_TOL:
                raise InvalidParamsError(
                    f"row {r}, clique {y}: block sums to {float(total)}"
                )


def mix_entries(weighted):
    """Fraction-by-Fraction convex combination of exact tables' entries."""
    n, omega = weighted[0][0].n, weighted[0][0].omega
    size = n * omega
    acc = [[Fraction(0)] * size for _ in range(size)]
    for t, w in weighted:
        for r in range(size):
            for c in range(size):
                acc[r][c] += Fraction(w) * t.entries[r][c]
    return acc


def strategy_entries(strategy, n, omega):
    """A classical strategy's table, one Fraction per decoder weight."""
    size = n * omega
    entries = [[Fraction(0)] * size for _ in range(size)]
    for (x, a), msg in strategy.encoder.items():
        r = (x - 1) * omega + a
        for y in range(1, n + 1):
            for b, p in strategy.decoder[(msg, y)]:
                entries[r][(y - 1) * omega + b] = Fraction(p)
    return entries


def quantum_entries(strategy, rel, completion="uniform"):
    """Born-rule table by one vdot per (input, Bob clique, output):
    returns (entries, subnormalized)."""
    cliques = strategy.cliques
    n, omega = cliques.count, cliques.omega
    index = frozenset(rel.tuples)
    entries = np.zeros((n * omega, n * omega))
    subnormal = False
    for x in range(1, n + 1):
        for a in range(omega):
            u = strategy.rep.vector(cliques.clique(x)[a])
            r = (x - 1) * omega + a
            for y in range(1, n + 1):
                probs = np.array([
                    abs(np.vdot(u, strategy.rep.vector(w))) ** 2
                    for w in cliques.clique(y)
                ])
                probs = np.clip(probs, 0.0, 1.0)
                residual = 1.0 - probs.sum()
                if residual > 1e-12:
                    if completion == "uniform":
                        valid = valid_outputs(index, omega, x, a, y)
                        probs[list(valid)] += residual / len(valid)
                    else:
                        subnormal = True
                entries[r, (y - 1) * omega: y * omega] = probs
    return entries, subnormal


def infer_graph(rel, n, omega):
    """Slot pairs that force each other and share a row support, merged by
    union-find; adjacency from the verdicts over representative pairs."""
    if n != rel.n or omega != rel.omega:
        raise InvalidParamsError("n/omega do not match the relation")
    index = frozenset(rel.tuples)

    def outputs(x, a, y):
        return valid_outputs(index, omega, x, a, y)

    slots = [(x, a) for x in range(1, n + 1) for a in range(omega)]
    for x, a in slots:
        if outputs(x, a, x) != (a,):
            raise InconsistentRelationError(
                f"diagonal determinism fails at clique {x}, label {a}"
            )
        for y in range(1, n + 1):
            if not outputs(x, a, y):
                raise InconsistentRelationError(f"relation not total at input ({x},{a},{y})")

    parent = {s: s for s in slots}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(s, t):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[max(rs, rt)] = min(rs, rt)

    supports = {
        (x, a): frozenset((y, b) for y in range(1, n + 1) for b in outputs(x, a, y))
        for x, a in slots
    }
    for (x, a), (y, b) in itertools.combinations(slots, 2):
        if x == y:
            continue
        if (
            outputs(x, a, y) == (b,)
            and outputs(y, b, x) == (a,)
            and supports[(x, a)] == supports[(y, b)]
        ):
            union((x, a), (y, b))

    groups = {}
    for s in slots:
        groups.setdefault(find(s), []).append(s)
    classes = sorted((tuple(sorted(m)) for m in groups.values()), key=lambda m: m[0])

    edges = []
    for i, j in itertools.combinations(range(len(classes)), 2):
        verdicts = {
            (x, a, y, b) in index
            for x, a in classes[i]
            for y, b in classes[j]
            if x != y
        }
        if any(x == y for x, _ in classes[i] for y, _ in classes[j]):
            verdicts.add(False)
        if verdicts == {True, False}:
            raise InconsistentRelationError(
                f"ambiguous adjacency between recovered vertices {i + 1} and {j + 1}"
            )
        if verdicts == {False}:
            edges.append((i + 1, j + 1))
    return Graph(len(classes), edges), tuple(classes)


def table_as_float(table):
    size = table.n * table.omega
    return np.array(
        [[float(table.entry_by_index(r, c)) for c in range(size)] for r in range(size)]
    )


def simulate_rounds(table, k, seed):
    """Round draws gathering each round's whole table row, as rounds."""
    n, omega = table.n, table.omega
    rng = np.random.default_rng(seed)
    if k == 0:
        return ()
    arr = table_as_float(table)
    xs = rng.integers(1, n + 1, size=k)
    las = rng.integers(0, omega, size=k)
    ys = rng.integers(1, n + 1, size=k)
    rows = (xs - 1) * omega + las
    blocks = arr[rows]
    take = ((ys - 1) * omega)[:, None] + np.arange(omega)[None, :]
    probs = np.take_along_axis(blocks, take, axis=1)
    cdf = np.cumsum(probs, axis=1)
    u = rng.random((k, 1))
    bs = np.minimum((u > cdf).sum(axis=1), omega - 1)
    return tuple((int(xs[i]), int(las[i]), int(ys[i]), int(bs[i])) for i in range(k))


def mc_success_rate(table, rel, k, trials, seed, chunk=512):
    """Monte Carlo gathering chunk x k whole table rows and marking a
    chunk x (n*omega)^2 presence array."""
    n, omega = rel.n, rel.omega
    arr = table_as_float(table)
    target = np.array([
        (((x - 1) * omega + a) * n + (y - 1)) * omega + b for x, a, y, b in rel.tuples
    ])
    rng = np.random.default_rng(seed)
    successes = 0
    done = 0
    n_ids = n * omega * n * omega
    while done < trials:
        t = min(chunk, trials - done)
        xs = rng.integers(0, n, size=(t, k))
        las = rng.integers(0, omega, size=(t, k))
        ys = rng.integers(0, n, size=(t, k))
        rows = xs * omega + las
        blocks = arr[rows.ravel()].reshape(t, k, n * omega)
        take = (ys * omega)[..., None] + np.arange(omega)[None, None, :]
        probs = np.take_along_axis(blocks, take, axis=2)
        cdf = np.cumsum(probs, axis=2)
        u = rng.random((t, k, 1))
        bs = np.minimum((u > cdf).sum(axis=2), omega - 1)
        ids = (rows * n + ys) * omega + bs
        present = np.zeros((t, n_ids), dtype=bool)
        present[np.arange(t)[:, None], ids] = True
        successes += int(present[:, target].all(axis=1).sum())
        done += t
    rate = successes / trials
    stderr = float(np.sqrt(max(rate * (1 - rate), 1e-12) / trials))
    return rate, stderr


def success_terms(table, rel):
    """Distinct tuple probabilities with their counts, each as an exact
    Fraction (a float entry's Fraction is the float's exact value), and
    the number of terms of their grouped inclusion-exclusion."""
    input_p = Fraction(1, rel.n * rel.n * rel.omega)
    counts = {}
    for t in rel.tuples:
        p = Fraction(table.prob(*t)) * input_p
        counts[p] = counts.get(p, 0) + 1
    terms = 1
    for c in counts.values():
        terms *= c + 1
    return counts, terms


def success_prob_fraction(table, rel, k):
    """Grouped inclusion-exclusion in exact rationals: the sum over subsets
    of the relation of (-1)^|S| (1 - p(S))^k, with the tuples of each
    distinct probability p_g taken s_g = 0..c_g at a time, C(c_g, s_g) ways.
    One integer sum over the common denominator, one Fraction at the end."""
    counts, _ = success_terms(table, rel)
    den = math.lcm(*(p.denominator for p in counts))
    weights = {0: 1}  # numerator of p(S) -> signed number of subsets S
    for p, c in counts.items():
        step = p.numerator * (den // p.denominator)
        grown = {}
        for x, w in weights.items():
            for s in range(c + 1):
                grown[x + s * step] = grown.get(x + s * step, 0) + (-1) ** s * math.comb(c, s) * w
        weights = grown
    return Fraction(sum(w * (den - x) ** k for x, w in weights.items() if w), den ** k)


def success_prob_inclusion_exclusion(table, rel, k):
    """The float inclusion-exclusion over all 2^|R| subsets of the relation,
    doubling the subset sums one tuple at a time.  Its alternating terms
    cancel: at k = 16 on chain5 it keeps about 8 significant digits."""
    if not check_coverage(table, rel)[0]:
        return 0.0
    input_p = 1.0 / (rel.n * rel.n * rel.omega)
    sums = np.zeros(1)
    signs = np.ones(1)
    for t in rel.tuples:
        p = float(table.prob(*t)) * input_p
        sums = np.concatenate([sums, sums + p])
        signs = np.concatenate([signs, -signs])
    return min(max(float(np.sum(signs * (1.0 - sums) ** k)), 0.0), 1.0)


def run_log_csv(rounds):
    """A run log's CSV, written round by round."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["round", "x", "a", "y", "b"])
    for i, (x, a, y, b) in enumerate(rounds):
        writer.writerow([i, x, a, y, b])
    return buf.getvalue()


def reconstruct(rounds, n, omega, truth=None):
    """The observed support as a sorted set of tuples, with coverage judged
    on the set of input triples seen."""
    observed = tuple(sorted(set(rounds)))
    seen_inputs = {(x, a, y) for x, a, y, _ in observed}
    all_inputs = {
        (x, a, y)
        for x in range(1, n + 1)
        for a in range(omega)
        for y in range(1, n + 1)
    }
    covered = seen_inputs == all_inputs
    success = None
    if truth is not None:
        success = covered and observed == truth.tuples
    graph = None
    classes = ()
    if covered:
        try:
            graph, classes = infer_graph(Relation(n, omega, observed), n, omega)
        except (InconsistentRelationError, InvalidParamsError):
            graph = None
    return ReconstructionResult(observed, covered, success, graph, classes)


# ---------------------------------------------------------------------------
# Graph layer: vertex-pair loops over neighbour and clique sets
# ---------------------------------------------------------------------------

def complement(g):
    edges = [
        (u, v)
        for u in g.vertices
        for v in range(u + 1, g.order + 1)
        if not g.adjacent(u, v)
    ]
    return Graph(g.order, edges)


def maximum_cliques(g):
    """Every largest vertex subset that is pairwise adjacent, in lexicographic
    order, tried from the largest size down; [] on the empty graph."""
    for size in range(g.order, 0, -1):
        found = [c for c in itertools.combinations(g.vertices, size)
                 if all(g.adjacent(u, v) for u, v in itertools.combinations(c, 2))]
        if found:
            return found
    return []


def vertex_connectivity(g):
    """Size of the smallest vertex set whose removal disconnects g, tried from
    the smallest size up; order - 1 on a complete graph, 0 on at most one
    vertex."""

    neighbors = {v: g.neighbors(v) for v in g.vertices}

    def connected(kept):
        start = min(kept)
        seen, todo = {start}, [start]
        while todo:
            for w in neighbors[todo.pop()] & kept - seen:
                seen.add(w)
                todo.append(w)
        return seen == kept

    vertices = frozenset(g.vertices)
    for size in range(g.order - 1):
        for cut in itertools.combinations(g.vertices, size):
            if not connected(vertices - set(cut)):
                return size
    return max(g.order - 1, 0)


def covers_all_vertices(g, cliques):
    covered = set()
    for c in cliques.cliques:
        covered.update(c)
    return covered == set(g.vertices)


def pairs_distinguishable(g, cliques):
    membership = {v: set(cliques.cliques_containing(v)) for v in g.vertices}
    for v, w in itertools.combinations(g.vertices, 2):
        in_distinct = any(i != j for i in membership[v] for j in membership[w])
        if not in_distinct:
            continue
        if g.neighbors(v) == g.neighbors(w):
            return False
    return True


def partitioned(g, cliques):
    seen = set()
    for c in cliques.cliques:
        if seen & set(c):
            return False
        seen.update(c)
    if seen != set(g.vertices):
        return False
    blocks = {v: i for i, c in enumerate(cliques.cliques) for v in c}
    return all(blocks[u] == blocks[v] for u, v in g.edges)


def chain_overlap(g, cliques):
    n = cliques.count
    if n < 2:
        return None
    sets = [set(c) for c in cliques.cliques]
    r = len(sets[0] & sets[1])
    if r == 0:
        return None
    for i in range(n - 1):
        if len(sets[i] & sets[i + 1]) != r:
            return None
    for i, j in itertools.combinations(range(n), 2):
        if j > i + 1 and sets[i] & sets[j]:
            return None
    within = set()
    for c in cliques.cliques:
        within.update(itertools.combinations(sorted(c), 2))
    if set(g.edges) != within:
        return None
    covered = set().union(*sets)
    return r if covered == set(g.vertices) else None


def verify_representation(rep, g):
    """(ok, violations), one vdot per vertex pair in row-major order."""
    violations = []
    for v in g.vertices:
        if v > len(rep.vectors):
            violations.append(("missing", v, None, None))
            continue
        norm = float(np.linalg.norm(rep.vector(v)))
        if not abs(norm - 1) <= ORTHO_TOL:
            violations.append(("norm", v, None, norm))
    if violations:
        return False, tuple(violations)
    for u, v in itertools.combinations(g.vertices, 2):
        ov = rep.overlap_sq(u, v)
        if g.adjacent(u, v):
            if ov > ORTHO_TOL:
                violations.append(("edge_not_orthogonal", u, v, ov))
        else:
            if ov <= ORTHO_TOL:
                violations.append(("nonedge_orthogonal", u, v, ov))
            elif abs(ov - 1) <= ORTHO_TOL:
                violations.append(("duplicate_vector", u, v, ov))
    return not violations, tuple(violations)


def representation_payoff(rep, g):
    """Smallest squared overlap, one vdot per non-adjacent vertex pair."""
    values = [
        rep.overlap_sq(u, v)
        for u, v in itertools.combinations(g.vertices, 2)
        if not g.adjacent(u, v)
    ]
    return min(values) if values else 1.0


def _pad(vec, d):
    if len(vec) == d:
        return vec
    out = np.zeros(d, dtype=complex)
    out[: len(vec)] = vec
    return out


def build_disconnected(g, cliques, d, attempt, rng):
    """{vertex: vector}: clique k's vertices take the columns of u^k, one
    vertex at a time, padded to d."""
    omega = cliques.omega
    if attempt == 0:
        u = _generic_unitary(omega)
    else:
        z = rng.standard_normal((omega, omega)) + 1j * rng.standard_normal((omega, omega))
        u, _ = np.linalg.qr(z)
    vectors = {}
    basis = np.eye(omega, dtype=complex)
    for k, c in enumerate(cliques.cliques):
        if k > 0:
            basis = u @ basis
        for pos, v in enumerate(c):
            vectors[v] = _pad(basis[:, pos].copy(), d)
    return vectors


def build_chain(g, cliques, d, attempt, rng):
    """{vertex: vector}: each clique past the first keeps its shared
    vertices' vectors and completes them inside their orthogonal
    complement, one vertex at a time, padded to d."""
    omega = cliques.omega
    vectors = {}
    first = cliques.cliques[0]
    for pos, v in enumerate(first):
        vectors[v] = np.eye(omega, dtype=complex)[:, pos]
    for k in range(1, cliques.count):
        c = cliques.cliques[k]
        shared = [v for v in c if v in vectors]
        new = [v for v in c if v not in vectors]
        span = np.column_stack([vectors[v] for v in shared])
        q, _ = np.linalg.qr(np.column_stack([span, np.eye(omega, dtype=complex)]))
        comp = q[:, len(shared): omega]
        dim = comp.shape[1]
        if attempt == 0:
            w = _generic_unitary(dim, offset=7 * k)
        else:
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            w, _ = np.linalg.qr(z)
        fresh = comp @ w
        for pos, v in enumerate(new):
            vectors[v] = fresh[:, pos].copy()
    return {v: _pad(vec, d) for v, vec in vectors.items()}


def compress_rows(table, g, cliques):
    """Rows merged slot by slot into a dict keyed by the selected vertex."""
    rel = build_relation(g, cliques)
    ok, violations = check_consistency(table, rel)
    if not ok:
        raise InvalidParamsError(f"table violates consistency at {violations[0]}")
    by_vertex = {}
    order = []
    for x, a in table.rows():
        v = cliques.clique(x)[a]
        row = tuple(table.entries[table.row_index(x, a)])
        if v in by_vertex:
            if by_vertex[v] != row:
                raise InvalidParamsError(f"rows selecting vertex {v} differ; cannot merge")
        else:
            by_vertex[v] = row
            order.append(v)
    vertices = tuple(sorted(order))
    index = {v: i for i, v in enumerate(vertices)}
    row_to_message = {(x, a): index[cliques.clique(x)[a]] for x, a in table.rows()}
    return CompressedTable(vertices, row_to_message, tuple(by_vertex[v] for v in vertices))


def assignment_search(rel, find_all, limit=None):
    """Recursive backtracking over per-clique label bijections, one tuple
    membership test per paired slot; the first clique keeps the identity."""
    n, omega = rel.n, rel.omega
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

    place([tuple(range(omega))])
    return solutions


def pairwise_admissible(assign, rel):
    n, omega = rel.n, rel.omega
    for j in range(n):
        for k in range(j + 1, n):
            for i in range(omega):
                if (j + 1, assign[j][i], k + 1, assign[k][i]) not in rel:
                    return False
    return True


def coverage_variants(rel):
    """The canonical assignment, then each admissible single-clique variant
    of it, cliques past the first in order and bijections in lexicographic
    order; None when no assignment exists."""
    solutions = assignment_search(rel, find_all=False)
    if not solutions:
        return None
    base = list(solutions[0])
    chosen = [tuple(base)]
    for i in range(1, rel.n):
        for perm in itertools.permutations(range(rel.omega)):
            if perm == base[i]:
                continue
            trial = list(base)
            trial[i] = perm
            if pairwise_admissible(trial, rel):
                chosen.append(tuple(trial))
    unique = []
    for a in chosen:
        if a not in unique:
            unique.append(a)
    return unique


def classical_lower_bound(rel, m):
    """Recursive scan placing inputs into at most m blocks of identical
    admissible-output rows; True when the scan fails."""
    sigs = [tuple(rel.valid_outputs(x, a, y) for y in range(1, rel.n + 1))
            for x in range(1, rel.n + 1) for a in range(rel.omega)]

    def place(i, blocks):
        if i == len(sigs):
            return True
        if sigs[i] in blocks:
            return place(i + 1, blocks)
        if len(blocks) < m:
            return place(i + 1, blocks + [sigs[i]])
        return False

    return not place(0, [])


def is_orthogonal_array(rows):
    """Whether every pair of columns carries all four binary pairs equally
    often, counted one column pair and one row at a time."""
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


def oa_exists(n_rows, k):
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


# ---------------------------------------------------------------------------
# CLI: the recursive canonical-JSON writer
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Canonical JSON written value by value: sorted keys, no spaces, floats
    as format(x, ".17g"), and a 2-D integer array as its nested lists."""
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu":
        return _fmt(value.tolist())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value)}")
