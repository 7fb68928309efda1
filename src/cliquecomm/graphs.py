"""Orthogonality graphs and their maximum-clique structure.

Vertices are always indexed 1..order, and clique vertex lists are kept in
ascending order so that the position of a vertex inside its clique is
well defined.  Three generator families are provided: disjoint unions of
equal cliques, chains of cliques overlapping in r vertices, and Paley
graphs on a prime field.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import networkx as nx
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
        return cls(int(data["order"]), [tuple(e) for e in data["edges"]])


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

    def vertex_at(self, index: int, position: int) -> int:
        """Vertex at 0-based position inside the 1-based indexed clique."""
        return self.cliques[index - 1][position]

    def cliques_containing(self, v: int) -> tuple[int, ...]:
        return tuple(
            i for i, c in enumerate(self.cliques, start=1) if v in c
        )

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "omega": self.omega,
            "cliques": [list(c) for c in self.cliques],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CliqueSet":
        return cls(int(data["omega"]), tuple(tuple(c) for c in data["cliques"]))


@dataclass(frozen=True)
class ConditionReport:
    """Structural conditions of a graph relative to its maximum cliques.

    covers_all_vertices: every vertex lies in some maximum clique.
    pairs_distinguishable: for every two vertices lying in distinct maximum
        cliques there is a third vertex adjacent to exactly one of them.
    general_position_dim: the smallest k such that the complement graph can
        only be disconnected by removing at least order-k vertices; None when
        the graph exceeds the search cap.
    """

    covers_all_vertices: bool
    pairs_distinguishable: bool
    general_position_dim: int | None = field(default=None)

    @property
    def reconstruction_ready(self) -> bool:
        return self.covers_all_vertices and self.pairs_distinguishable


def enumerate_maximum_cliques(g: Graph) -> CliqueSet:
    """All maximum cliques of g, sorted lexicographically by vertex list.

    Maximal cliques come from networkx's Bron-Kerbosch enumeration; only
    those of the largest size are kept.
    """
    if g.order == 0:
        raise EmptyGraphError("cannot enumerate cliques of the empty graph")
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    maximal = [tuple(sorted(c)) for c in nx.find_cliques(nxg)]
    omega = max(len(c) for c in maximal)
    cliques = sorted(c for c in maximal if len(c) == omega)
    return CliqueSet(omega, tuple(cliques))


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


def _complement_connectivity(g: Graph) -> int:
    """Vertex connectivity of the complement graph (0 when already disconnected)."""
    comp = complement(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(comp.vertices)
    nxg.add_edges_from(comp.edges)
    if comp.order <= 1:
        return 0
    if not nx.is_connected(nxg):
        return 0
    return nx.node_connectivity(nxg)


def check_conditions(g: Graph, cliques: CliqueSet, dim_cap: int = 16) -> ConditionReport:
    """Evaluate the coverage, distinguishability, and embedding-dimension conditions.

    general_position_dim is order minus the vertex connectivity of the
    complement; it equals the smallest dimension admitting a general-position
    faithful orthogonal representation over the reals.  Graphs larger than
    dim_cap report None for it.
    """
    g0 = _covers_all_vertices(g, cliques)
    g1 = _pairs_distinguishable(g, cliques)
    gp = None
    if g.order <= dim_cap:
        gp = g.order - _complement_connectivity(g)
    return ConditionReport(g0, g1, gp)


def graph_to_json_str(g: Graph) -> str:
    return json.dumps(g.to_json(), sort_keys=True)
