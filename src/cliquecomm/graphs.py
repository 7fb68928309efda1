"""Orthogonality graphs and their maximum-clique structure.

Vertices are always indexed 1..order, and clique vertex lists are kept in
ascending order so that the position of a vertex inside its clique is
well defined.  Three generator families are provided: disjoint unions of
equal cliques, chains of cliques overlapping in r vertices, and Paley
graphs on a prime field.

The two graph searches, maximum cliques and the vertex connectivity of
the complement, run over Python-int bitsets packed from the adjacency
matrix: bit v of a row stands for vertex v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraphError, InvalidParamsError

SCHEMA_VERSION = 1


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InvalidParamsError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 1..order.

    `adjacency` is a read-only boolean (order+1) x (order+1) matrix indexed
    by vertex number; row and column 0 stay false, so a vertex array
    indexes it directly.
    """

    def __init__(self, order: int, edges):
        if order < 0:
            raise InvalidParamsError("order must be nonnegative")
        es = set()
        for u, v in edges:
            e = _normalize_edge(int(u), int(v))
            if not (1 <= e[0] and e[1] <= order):
                raise InvalidParamsError(f"edge {e} outside 1..{order}")
            es.add(e)
        self.order = order
        self.edges = frozenset(es)
        adjacency = np.zeros((order + 1, order + 1), dtype=bool)
        if es:
            u, v = np.array(list(es)).T
            adjacency[u, v] = adjacency[v, u] = True
        adjacency.flags.writeable = False
        self.adjacency = adjacency

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v])

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.adjacency[v]).tolist())

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.adjacency[v]))

    @property
    def vertices(self) -> range:
        return range(1, self.order + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.order, self.edges))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={len(self.edges)})"

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "order": self.order,
            "edges": sorted(list(e) for e in self.edges),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        try:
            order = int(data["order"])
            edges = [(int(u), int(v)) for u, v in data["edges"]]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParamsError(f"malformed graph: {exc}") from None
        return cls(order, edges)


@dataclass(frozen=True)
class CliqueSet:
    """The maximum cliques of a host graph, each as an ascending vertex tuple.

    All cliques must have the same size omega; the clique list is sorted
    lexicographically so clique indices (1-based) are deterministic.
    """

    omega: int
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cliques:
            raise InvalidParamsError("clique set must be nonempty")
        for c in self.cliques:
            if len(c) != self.omega:
                raise InvalidParamsError(
                    f"clique {c} has size {len(c)}, expected {self.omega}"
                )
            if list(c) != sorted(c):
                raise InvalidParamsError(f"clique {c} not in ascending order")
        object.__setattr__(self, "cliques", tuple(tuple(c) for c in self.cliques))

    @property
    def count(self) -> int:
        return len(self.cliques)

    def clique(self, index: int) -> tuple[int, ...]:
        """Vertex list of the clique with 1-based index."""
        return self.cliques[index - 1]

    def cliques_containing(self, v: int) -> tuple[int, ...]:
        return tuple(
            i for i, c in enumerate(self.cliques, start=1) if v in c
        )


@dataclass(frozen=True)
class ConditionReport:
    """Structural conditions of a graph relative to its maximum cliques.

    covers_all_vertices: every vertex lies in some maximum clique.
    pairs_distinguishable: for every two vertices lying in distinct maximum
        cliques there is a third vertex adjacent to exactly one of them.
    general_position_dim: the smallest k such that the complement graph can
        only be disconnected by removing at least order-k vertices.
    """

    covers_all_vertices: bool
    pairs_distinguishable: bool
    general_position_dim: int

    @property
    def reconstruction_ready(self) -> bool:
        return self.covers_all_vertices and self.pairs_distinguishable


def _row_bits(adjacency: np.ndarray) -> list[int]:
    """Each row of a boolean vertex-indexed matrix as an int with bit v for column v."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_maximum_cliques(g: Graph) -> CliqueSet:
    """All maximum cliques of g, sorted lexicographically by vertex list.

    A Bron-Kerbosch search with Tomita's pivot (the candidate or excluded
    vertex with the most candidate neighbours) over bitset rows, bounded by
    the largest clique found so far: a branch whose clique plus candidates
    cannot reach that size is cut, so only cliques of the maximum size are
    kept.
    """
    if g.order == 0:
        raise EmptyGraphError("cannot enumerate cliques of the empty graph")
    adj = _row_bits(g.adjacency)
    found: list[tuple[int, ...]] = []

    def expand(clique, cand, excl):
        if not cand:
            size = len(found[0]) if found else 0
            if not excl and len(clique) >= size:
                if len(clique) > size:
                    found.clear()
                found.append(tuple(sorted(clique)))
            return
        pivot = max(_bits(cand | excl), key=lambda u: (cand & adj[u]).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            if found and len(clique) + cand.bit_count() < len(found[0]):
                return
            expand(clique + [v], cand & adj[v], excl & adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand([], (2 << g.order) - 2, 0)
    return CliqueSet(len(found[0]), tuple(sorted(found)))


def gen_disconnected(n: int, omega: int) -> Graph:
    """n pairwise disjoint cliques of size omega; vertex i of clique k is (k-1)*omega+i."""
    if n < 1 or omega < 2:
        raise InvalidParamsError("need n >= 1 and omega >= 2")
    edges = []
    for k in range(n):
        block = range(k * omega + 1, (k + 1) * omega + 1)
        edges.extend(itertools.combinations(block, 2))
    return Graph(n * omega, edges)


def gen_nncc(n: int, omega: int, r: int) -> Graph:
    """Chain of n cliques of size omega, consecutive ones sharing r vertices.

    Clique k occupies vertices (k-1)*(omega-r)+1 .. (k-1)*(omega-r)+omega, so
    the last r vertices of each clique are the first r of the next and the
    total order is n*(omega-r)+r.  Requires 1 <= r < omega/2 (for n >= 2).
    """
    if n < 1 or omega < 2:
        raise InvalidParamsError("need n >= 1 and omega >= 2")
    if not (1 <= r and 2 * r < omega):
        raise InvalidParamsError("need 1 <= r < omega/2")
    edges = []
    for k in range(n):
        start = k * (omega - r) + 1
        block = range(start, start + omega)
        edges.extend(itertools.combinations(block, 2))
    return Graph(n * (omega - r) + r, edges)


def is_prime(q: int) -> bool:
    """Trial division; all uses here are desk scale."""
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def gen_paley(q: int) -> Graph:
    """Paley graph on Z_q: i ~ j iff i-j is a nonzero quadratic residue mod q.

    q must be prime with q = 1 (mod 4), which makes -1 a residue and the
    adjacency well defined.  Vertex v represents field element v-1.
    """
    if not is_prime(q):
        raise InvalidParamsError(f"q={q} is not prime")
    if q % 4 != 1:
        raise InvalidParamsError(f"q={q} is not 1 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    edges = [
        (i + 1, j + 1)
        for i in range(q)
        for j in range(i + 1, q)
        if (i - j) % q in residues
    ]
    return Graph(q, edges)


def clique_membership(cliques: CliqueSet, order: int) -> np.ndarray:
    """Boolean n x (order+1) matrix: entry [i, v] says whether clique i+1 holds v."""
    member = np.zeros((cliques.count, order + 1), dtype=bool)
    member[np.arange(cliques.count)[:, None], np.asarray(cliques.cliques)] = True
    return member


def complement(g: Graph) -> Graph:
    upper = np.triu(~g.adjacency[1:, 1:], k=1)
    return Graph(g.order, (np.argwhere(upper) + 1).tolist())


def _covers_all_vertices(g: Graph, cliques: CliqueSet) -> bool:
    return bool(clique_membership(cliques, g.order)[:, 1:].any(axis=0).all())


def _pairs_distinguishable(g: Graph, cliques: CliqueSet) -> bool:
    # Pairs of distinct vertices lying in two different maximum cliques need
    # a witness vertex adjacent to exactly one of them.  Such a witness exists
    # iff the two neighborhoods differ (an adjacent pair always has one: each
    # endpoint witnesses the other).
    member = clique_membership(cliques, g.order).astype(np.int64)
    counts = member.sum(axis=0)
    # |C(v)| |C(w)| - |C(v) & C(w)| counts the clique pairs i != j with v in
    # clique i and w in clique j
    in_distinct = np.outer(counts, counts) > member.T @ member
    adj = g.adjacency.astype(np.int64)
    # neighbours of v that are not neighbours of w
    only_first = adj @ (1 - adj).T
    same_neighbours = (only_first == 0) & (only_first.T == 0)
    return not np.triu(in_distinct & same_neighbours, k=1).any()


def _local_connectivity(adj: list[int], s: int, t: int, cutoff: int) -> int:
    """Internally disjoint paths between non-adjacent s and t, counted up to cutoff.

    Unit-capacity augmenting paths on the split graph, where each vertex w
    is an arc w_in -> w_out of capacity one and each edge {u, w} the arcs
    u_out -> w_in and w_out -> u_in.  out[u] holds the w whose arc
    u_out -> w_in carries flow, and prev[w] the u whose arc carries flow
    into an inner vertex w (0 for none), so w's own arc carries flow iff
    prev[w] is set.  The common neighbours of s and t give the first paths
    at once.
    """
    out = [0] * len(adj)
    prev = [0] * len(adj)
    flow = 0
    for c in _bits(adj[s] & adj[t]):
        if flow == cutoff:
            return flow
        out[s] |= 1 << c
        out[c] = 1 << t
        prev[c] = s
        flow += 1
    while flow < cutoff:
        # depth-first from s_out to t_in in the residual graph;
        # reached_in[w] = u: w_in was reached from u_out (u == w: back
        # along w's own arc); reached_out[u] = w: u_out was reached from
        # w_in (w == u: along u's own arc, else back along u_out -> w_in)
        reached_in: dict[int, int] = {}
        reached_out = {s: s}
        seen_in, seen_out = 1 << s, 1 << s
        stack = [s]
        while stack and t not in reached_in:
            u = stack.pop()
            new = adj[u] & ~out[u] & ~seen_in
            if prev[u] and not seen_in >> u & 1:
                new |= 1 << u
            seen_in |= new
            for w in _bits(new):
                reached_in[w] = u
                if w == t:
                    break
                x = prev[w] or w
                if not seen_out >> x & 1:
                    seen_out |= 1 << x
                    reached_out[x] = w
                    stack.append(x)
        if t not in reached_in:
            break
        added, cancelled = [], []
        w = t
        while True:
            u = reached_in[w]
            if u != w:
                added.append((u, w))
            if u == s:
                break
            w = reached_out[u]
            if w != u:
                cancelled.append((u, w))
        # cancel before adding: a path that cancels u -> w also adds the
        # new arc into w
        for u, w in cancelled:
            out[u] &= ~(1 << w)
            prev[w] = 0
        for u, w in added:
            out[u] |= 1 << w
            if w != t:
                prev[w] = u
        flow += 1
    return flow


def _complement_connectivity(g: Graph) -> int:
    """Vertex connectivity of the complement graph (0 when already disconnected).

    Esfahanian and Hakimi (1984): with v of minimum degree k, the
    connectivity is the least of k, the local connectivity from v to each
    non-neighbour and that between each two non-adjacent neighbours of v;
    each local count stops at the least value so far.  A complete graph on
    m vertices has connectivity m - 1.
    """
    if g.order <= 1:
        return 0
    comp = ~g.adjacency
    np.fill_diagonal(comp, False)
    comp[0] = comp[:, 0] = False
    adj = _row_bits(comp)
    v = min(g.vertices, key=lambda u: adj[u].bit_count())
    k = adj[v].bit_count()
    everyone = (2 << g.order) - 2
    pairs = [(v, w) for w in _bits(everyone & ~adj[v] & ~(1 << v))]
    pairs += [(x, y) for x in _bits(adj[v]) for y in _bits(adj[v] & ~adj[x])
              if x < y]
    for s, t in pairs:
        if k == 0:
            break
        k = _local_connectivity(adj, s, t, k)
    return k


def check_conditions(g: Graph, cliques: CliqueSet) -> ConditionReport:
    """Evaluate the coverage, distinguishability, and embedding-dimension conditions.

    general_position_dim is order minus the vertex connectivity of the
    complement; it equals the smallest dimension admitting a general-position
    faithful orthogonal representation over the reals.
    """
    return ConditionReport(
        _covers_all_vertices(g, cliques),
        _pairs_distinguishable(g, cliques),
        g.order - _complement_connectivity(g),
    )
