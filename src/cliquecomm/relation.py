"""The relation induced by consistent pairwise clique labelling.

A label a of clique C picks out one vertex (the one at ascending position a)
and colours it 1, the rest 0.  Two labelled cliques are consistent when
shared vertices receive the same colour and no edge between the cliques has
both endpoints coloured 1.  The relation collects every consistent tuple
(C_x, a, C_y, b); clique indices are 1-based, labels 0-based.

A relation is held as one boolean (n*omega) x (n*omega) mask over (clique,
label) slots in lexicographic order: row (x - 1) * omega + a, column
(y - 1) * omega + b.  The tuple list is a view derived from the mask.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InconsistentRelationError, InvalidParamsError
from .graphs import SCHEMA_VERSION, CliqueSet, Graph


def slot_index(omega: int, x, a):
    """Mask (and table) row of the slot (clique x, label a); elementwise on arrays."""
    return (x - 1) * omega + a


def slot_label(omega: int, s):
    """The (clique, label) pair of slot s; the inverse of slot_index."""
    return s // omega + 1, s % omega


def four_int_rows(rows, what: str) -> np.ndarray:
    """`rows` as an (m, 4) int64 array.

    Raises InvalidParamsError unless `rows` is a list of four-integer
    lists: a flat list, rows of another width, ragged nesting, floats,
    strings and non-sequences are refused rather than regrouped or cut.
    """
    try:
        arr = np.asarray(list(rows))
    except (TypeError, ValueError):  # not a sequence, or ragged nesting
        arr = None
    if arr is not None and arr.shape == (0,):
        arr = np.empty((0, 4), dtype=np.int64)
    if arr is None or arr.ndim != 2 or arr.shape[1] != 4 or arr.dtype.kind not in "iu":
        raise InvalidParamsError(f"{what} must be a list of four-integer lists")
    return arr.astype(np.int64)


# rows rendered per step of int_rows_text, which bounds its working set
ROW_BLOCK = 32768


def int_rows_text(rows: np.ndarray, sep: str, head: str = "", tail: str = "") -> str:
    """Each row of a 2-D integer array as head + its decimals joined by sep
    + tail, concatenated: the text of str() on each entry, minus signs
    included.  head, sep and tail are ASCII without NUL.

    A block of ROW_BLOCK rows becomes one uint8 character matrix, each
    entry a fixed-width field (a sign byte where its column has a negative
    entry, then the digits right-aligned) whose padding bytes are NUL and
    dropped in one pass, so no Python object is made per entry.
    """
    return "".join(_int_block_text(rows[i:i + ROW_BLOCK], sep, head, tail)
                   for i in range(0, len(rows), ROW_BLOCK))


def _int_block_text(rows: np.ndarray, sep: str, head: str, tail: str) -> str:
    m = len(rows)

    def fixed(text):
        return np.frombuffer(text.encode(), dtype=np.uint8)[:, None]

    # one character row per output position, one column per input row
    lines = [fixed(head)]
    for j, col in enumerate(rows.T):
        if j:
            lines.append(fixed(sep))
        neg = col < 0
        if neg.any():
            lines.append(np.where(neg, np.uint8(ord("-")), np.uint8(0))[None])
        mag = col.astype(np.uint64)  # two's complement: negating gives |v|
        np.negative(mag, out=mag, where=neg)
        top = int(mag.max())
        mag = mag.astype(np.min_scalar_type(top))  # the narrowest type divides fastest
        ten = mag.dtype.type(10)
        digits = np.empty((len(str(top)), m), dtype=np.uint8)
        for p in range(len(digits) - 1, -1, -1):
            digits[p] = mag % ten
            mag //= ten
        digits += np.uint8(ord("0"))
        lead = np.ones(m, dtype=bool)  # zeros so far, which are padding
        for row in digits[:-1]:
            lead &= row == ord("0")
            row *= ~lead
        lines.append(digits)
    lines.append(fixed(tail))
    chars = np.concatenate([np.broadcast_to(x, (len(x), m)) for x in lines])
    return chars.T.tobytes().translate(None, b"\0").decode("ascii")


def selected_vertices(cliques: CliqueSet) -> np.ndarray:
    """Slot -> the vertex its label selects: clique[a] for slot (x, a)."""
    return np.asarray(cliques.cliques, dtype=np.intp).ravel()


class Relation:
    """All consistent tuples (x, a, y, b), held as a boolean slot mask.

    `mask[(x - 1) * omega + a, (y - 1) * omega + b]` is true exactly for the
    tuples in the relation.  `Relation(n, omega, tuples)` builds the mask
    from tuples, `Relation.from_mask` takes it as given; either way the
    mask is read-only and `tuples` is derived from it in lexicographic
    order.
    """

    def __init__(self, n: int, omega: int, tuples):
        n, omega = int(n), int(omega)
        x, a, y, b = four_int_rows(tuples, "tuples").T
        if not (
            ((1 <= x) & (x <= n) & (1 <= y) & (y <= n)).all()
            and ((0 <= a) & (a < omega) & (0 <= b) & (b < omega)).all()
        ):
            raise InvalidParamsError(f"tuple out of range for n={n}, omega={omega}")
        mask = np.zeros((n * omega, n * omega), dtype=bool)
        mask[slot_index(omega, x, a), slot_index(omega, y, b)] = True
        self._init(n, omega, mask)

    @classmethod
    def from_mask(cls, n: int, omega: int, mask) -> "Relation":
        rel = cls.__new__(cls)
        rel._init(int(n), int(omega), np.array(mask, dtype=bool))
        return rel

    def _init(self, n: int, omega: int, mask: np.ndarray):
        if mask.shape != (n * omega, n * omega):
            raise InvalidParamsError("mask shape does not match n and omega")
        mask.flags.writeable = False
        self.n, self.omega, self.mask = n, omega, mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and (self.n, self.omega) == (other.n, other.omega)
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.omega, np.packbits(self.mask).tobytes()))

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, omega={self.omega}, size={self.size})"

    def _tuple_array(self) -> np.ndarray:
        """The tuples as a (size, 4) array, rows in lexicographic order."""
        r, c = np.nonzero(self.mask)
        return np.stack([*slot_label(self.omega, r), *slot_label(self.omega, c)], axis=1)

    @cached_property
    def tuples(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(zip(*self._tuple_array().T.tolist()))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    def _slot(self, x: int, a: int) -> int | None:
        if 1 <= x <= self.n and 0 <= a < self.omega:
            return slot_index(self.omega, x, a)
        return None

    def __contains__(self, t) -> bool:
        x, a, y, b = t
        r, c = self._slot(x, a), self._slot(y, b)
        return r is not None and c is not None and bool(self.mask[r, c])

    def output_counts(self) -> np.ndarray:
        """Number of admissible outputs b of each input, as an (n*omega, n)
        array indexed by Alice's slot and Bob's clique index minus one."""
        return self.mask.reshape(self.n * self.omega, self.n, self.omega).sum(axis=2)

    def valid_outputs(self, x: int, a: int, y: int) -> tuple[int, ...]:
        """All b with (x, a, y, b) in the relation."""
        r = self._slot(x, a)
        if r is None or not 1 <= y <= self.n:
            return ()
        start = slot_index(self.omega, y, 0)
        block = self.mask[r, start:start + self.omega]
        return tuple(np.flatnonzero(block).tolist())

    def max_valid_outputs(self) -> int:
        """Largest number of admissible outputs over all input triples."""
        return int(self.output_counts().max())

    def array_json(self) -> dict:
        """`to_json` with the tuples left as the (size, 4) int array, which
        `cli.dumps_canonical` writes as the same lists."""
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "omega": self.omega,
            "tuples": self._tuple_array(),
        }

    def to_json(self) -> dict:
        data = self.array_json()
        data["tuples"] = data["tuples"].tolist()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Relation":
        """Raises InvalidParamsError unless data holds positive integers
        n and omega and a tuple list."""
        try:
            n, omega, tuples = int(data["n"]), int(data["omega"]), data["tuples"]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParamsError(f"malformed relation: {exc}") from None
        if n < 1 or omega < 1:
            raise InvalidParamsError(f"malformed relation: n={n}, omega={omega}")
        return cls(n, omega, tuples)


def build_relation(g: Graph, cliques: CliqueSet) -> Relation:
    """Every consistent tuple over the given maximum cliques, as a mask.

    Two labelled cliques are consistent exactly when their selected
    vertices are equal or not adjacent: a selected vertex inside the other
    clique is adjacent to every other vertex there, so the shared-colour
    rule needs no clause of its own.  That is the vertex-level matrix
    I | ~A, which is ~A as A has a false diagonal, gathered through the
    vertex each slot selects.  Raises if some input triple admits no
    output at all; the games here are only defined for relations that are
    total over the input set.
    """
    n, omega = cliques.count, cliques.omega
    sel = selected_vertices(cliques)
    mask = ~g.adjacency[np.ix_(sel, sel)]
    rel = Relation.from_mask(n, omega, mask)
    empty = np.argwhere(rel.output_counts() == 0)
    if len(empty):
        s, y = empty[0].tolist()
        x, a = slot_label(omega, s)
        raise InconsistentRelationError(
            f"input ({x},{a},{y + 1}) admits no consistent output"
        )
    return rel


def row_classes(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Group the rows of a 2-D boolean mask: (row -> class, class count),
    classes numbered by their least row.

    Each row is packed to bytes and read as one opaque key, so a 1-D
    unique of the keys groups the rows as np.unique(axis=0) would, at a
    fraction of its cost.
    """
    packed = np.packbits(mask, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    count = len(first)
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(count)
    return rank[inverse], count


def infer_graph(rel: Relation, n: int, omega: int) -> tuple[Graph, tuple[tuple[tuple[int, int], ...], ...]]:
    """Rebuild the host graph from the relation alone.

    Vertices are recovered as classes of (clique, position) slots with
    identical mask rows.  Under diagonal determinism two such slots lie in
    different cliques and force each other in both directions, which is
    exactly the signature of a shared vertex.  Two recovered vertices are
    adjacent when every pair of their representatives is excluded (pairs
    inside one clique always are); a class pair with both admissible and
    excluded representative pairs is ambiguous.

    Returns the graph (classes numbered by their least member in (clique,
    position) order) together with the member list of each class.
    """
    if n != rel.n or omega != rel.omega:
        raise InvalidParamsError("n/omega do not match the relation")
    size = n * omega
    blocks = rel.mask.reshape(n, omega, n, omega)
    diagonal = blocks[np.arange(n), :, np.arange(n), :]  # [x, a, b]
    bad_diagonal = (diagonal != np.eye(omega, dtype=bool)).any(axis=2).ravel()
    empty = rel.output_counts() == 0
    bad = bad_diagonal | empty.any(axis=1)
    if bad.any():
        s = int(np.argmax(bad))
        x, a = slot_label(omega, s)
        if bad_diagonal[s]:
            raise InconsistentRelationError(
                f"diagonal determinism fails at clique {x}, label {a}"
            )
        y = int(np.argmax(empty[s])) + 1
        raise InconsistentRelationError(f"relation not total at input ({x},{a},{y})")

    class_of, count = row_classes(rel.mask)
    onehot = np.zeros((size, count))
    onehot[np.arange(size), class_of] = 1.0
    sizes = onehot.sum(axis=0)
    # admissible representative pairs of each class pair; two distinct
    # slots of one clique never are (the diagonal blocks are identities),
    # so every other pair, same-clique ones included, is an excluded one
    admissible = onehot.T @ (rel.mask @ onehot)
    has_true = admissible > 0
    has_false = admissible < np.outer(sizes, sizes)
    upper = np.triu(np.ones((count, count), dtype=bool), k=1)
    ambiguous = np.argwhere(upper & has_true & has_false)
    if len(ambiguous):
        i, j = ambiguous[0].tolist()
        raise InconsistentRelationError(
            f"ambiguous adjacency between recovered vertices {i + 1} and {j + 1}"
        )
    edges = (np.argwhere(upper & has_false) + 1).tolist()

    order = np.argsort(class_of, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(class_of, minlength=count))[:-1])
    classes = tuple(
        tuple(slot_label(omega, s) for s in m.tolist()) for m in members
    )
    return Graph(count, edges), classes
