"""Conditional-probability tables P(b | C_x, a, C_y) and their checks.

Rows are Alice inputs (clique, label), columns are Bob (clique, output),
both in (clique index, label) lexicographic order, giving an n*omega square
block layout with omega x omega blocks per clique pair.  Classical strategy
tables and their mixtures carry exact rationals; quantum tables carry
floats.  The three conditions checked against a relation are: zero outside
the relation (consistency), positive inside it (coverage), and payoff equal
to the algebraic bound (optimality).  Each check is a reduction of the
table's nonzero pattern or values over the relation's boolean mask, whose
row-major order is the lexicographic tuple order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParamsError
from .graphs import SCHEMA_VERSION, CliqueSet, Graph
from .relation import Relation, build_relation, selected_vertices, slot_index, slot_label

ZERO_TOL = 1e-9

# Exact tables keep numerators and their common denominator as int64 while
# all of them are at most 2**53: then each converts to float64 exactly, so
# the float view num / den is correctly rounded, as float(Fraction) is.
# Past that they are Python ints in an object array, through the same code.
EXACT_INT_LIMIT = 2 ** 53


class ProbTable:
    """Square table of conditional probabilities, exact or floating point.

    An exact table holds an integer numerator matrix `num` over one common
    denominator `den`, the lcm of its entries' denominators; `entries` is
    its Fraction view, built on first use.  A float table holds the float
    matrix `entries`.
    """

    def __init__(self, n: int, omega: int, entries, kind: str = "exact",
                 subnormalized: bool = False):
        if kind not in ("exact", "float"):
            raise InvalidParamsError(f"unknown table kind {kind!r}")
        self.n = n
        self.omega = omega
        self.kind = kind
        self.subnormalized = subnormalized
        size = n * omega
        if kind == "exact":
            rows = []
            for row in entries:
                row = [Fraction(e) for e in row]
                if len(row) != size:
                    raise InvalidParamsError("bad row length")
                rows.append(row)
            if len(rows) != size:
                raise InvalidParamsError("bad row count")
            den = math.lcm(*{e.denominator for row in rows for e in row})
            num = [[e.numerator * (den // e.denominator) for e in row] for row in rows]
            self._set_numerators(np.array(num, dtype=object).reshape(size, size), den)
            return
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (size, size):
            raise InvalidParamsError("bad table shape")
        # fills the cached property, so float tables never compute it
        self.entries = arr
        self._validate()

    @classmethod
    def from_numerators(cls, n: int, omega: int, num, den: int) -> "ProbTable":
        """Exact table with entries num / den (integers, as an array or
        nested lists), stored over the least common denominator."""
        table = cls.__new__(cls)
        table.n, table.omega, table.kind, table.subnormalized = n, omega, "exact", False
        table._set_numerators(num, den)
        return table

    def _set_numerators(self, num, den: int):
        """Store the exact entries num / den in lowest common terms, then validate."""
        num = np.asarray(num)
        den = int(den)
        if den <= 0:
            raise InvalidParamsError("denominator must be positive")
        if num.shape != (self.n * self.omega, self.n * self.omega):
            raise InvalidParamsError("bad table shape")
        common = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
        self.den = den // common
        if common > 1:
            num = num // common
        big = self.den > EXACT_INT_LIMIT or (num.size and np.abs(num).max() > EXACT_INT_LIMIT)
        self.num = num.astype(object if big else np.int64, copy=False)
        self._validate()

    @cached_property
    def entries(self):
        """Exact tables: a tuple of rows of Fractions (float tables set it)."""
        size = self.n * self.omega
        values, inverse = np.unique(self.num, return_inverse=True)
        fractions = np.empty(len(values), dtype=object)
        fractions[:] = [Fraction(int(v), self.den) for v in values.tolist()]
        return tuple(map(tuple, fractions[inverse.reshape(size, size)].tolist()))

    def as_float(self) -> np.ndarray:
        """The entries as float64; an exact entry equals float(Fraction) bitwise."""
        if self.kind == "float":
            return self.entries
        return np.asarray(self.num / self.den, dtype=float)

    def nonzero_mask(self) -> np.ndarray:
        """Entries that count as nonzero: exactly, or above ZERO_TOL for floats."""
        if self.kind == "exact":
            return self.num != 0
        return np.abs(self.entries) > ZERO_TOL

    def _validate(self):
        n, omega = self.n, self.omega
        size = n * omega
        values, one = (self.num, self.den) if self.kind == "exact" else (self.entries, 1)
        if self.kind == "float" and not np.isfinite(values).all():
            raise InvalidParamsError("entries must be finite")
        blocks = values.reshape(size, n, omega)
        out_of_range = ((blocks < 0) | (blocks > one)).any(axis=2)
        totals = blocks.sum(axis=2)
        if self.kind == "exact":
            bad_total = totals != one
        elif self.subnormalized:
            bad_total = totals > 1 + ZERO_TOL
        else:
            bad_total = np.abs(totals - 1) > ZERO_TOL
        bad = np.argwhere(out_of_range | bad_total)
        if not len(bad):
            return
        r, y = bad[0].tolist()
        if out_of_range[r, y]:
            raise InvalidParamsError("entries must lie in [0, 1]")
        if self.kind == "exact":
            total = Fraction(int(totals[r, y]), self.den)
            raise InvalidParamsError(
                f"row {r}, clique {y + 1}: block sums to {total}, not 1"
            )
        if self.subnormalized:
            raise InvalidParamsError("block sum exceeds 1")
        raise InvalidParamsError(
            f"row {r}, clique {y + 1}: block sums to {float(totals[r, y])}"
        )

    def row_index(self, x: int, a: int) -> int:
        return slot_index(self.omega, x, a)

    def entry_by_index(self, r: int, c: int):
        if self.kind == "exact":
            return Fraction(int(self.num[r, c]), self.den)
        return self.entries[r, c]

    def prob(self, x: int, a: int, y: int, b: int):
        """P(b | C_x, a, C_y)."""
        return self.entry_by_index(self.row_index(x, a), self.row_index(y, b))

    def rows(self):
        for x in range(1, self.n + 1):
            for a in range(self.omega):
                yield x, a

    def is_zero(self, value) -> bool:
        if self.kind == "exact":
            return value == 0
        return abs(value) <= ZERO_TOL

    def _exact_cells(self) -> list[list[str]]:
        """Each exact entry rendered as a reduced "p/q"."""
        return [[f"{e.numerator}/{e.denominator}" for e in row] for row in self.entries]

    def to_json(self) -> dict:
        if self.kind == "exact":
            data = self._exact_cells()
        else:
            data = self.entries.tolist()
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "omega": self.omega,
            "kind": self.kind,
            "entries": data,
        }
        if self.subnormalized:
            payload["subnormalized"] = True
        return payload

    def to_csv(self) -> str:
        """Row-major CSV with an n/omega/kind header line."""
        if self.kind == "exact":
            cells = self._exact_cells()
        else:
            cells = [[format(e, ".17g") for e in row] for row in self.entries.tolist()]
        lines = [f"# n={self.n} omega={self.omega} kind={self.kind}"]
        lines += [",".join(row) for row in cells]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, data: dict) -> "ProbTable":
        try:
            n, omega = int(data["n"]), int(data["omega"])
            kind, entries = data["kind"], data["entries"]
            if kind == "exact":
                entries = [[Fraction(e) for e in row] for row in entries]
            else:
                entries = np.asarray(entries, dtype=float)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidParamsError(f"malformed table: {exc}") from None
        return cls(n, omega, entries, kind=kind,
                   subnormalized=bool(data.get("subnormalized", False)))


def mix_tables(weighted: list[tuple[ProbTable, Fraction]]) -> ProbTable:
    """Exact convex combination of exact tables, summed as integer numerators
    over the lcm of the weighted denominators."""
    if not weighted:
        raise InvalidParamsError("empty mixture")
    n, omega = weighted[0][0].n, weighted[0][0].omega
    weights = [Fraction(w) for _, w in weighted]
    if sum(weights) != 1 or any(w <= 0 for w in weights):
        raise InvalidParamsError("weights must be positive and sum to 1")
    tables = [t for t, _ in weighted]
    if any(t.kind != "exact" or t.n != n or t.omega != omega for t in tables):
        raise InvalidParamsError("mixture needs matching exact tables")
    den = math.lcm(*(w.denominator * t.den for t, w in zip(tables, weights)))
    # every partial sum is at most den, so int64 cannot overflow below the limit
    dtype = np.int64 if den <= EXACT_INT_LIMIT else object
    acc = np.zeros((n * omega, n * omega), dtype=dtype)
    for t, w in zip(tables, weights):
        acc += w.numerator * (den // (w.denominator * t.den)) * t.num.astype(dtype)
    return ProbTable.from_numerators(n, omega, acc, den)


@dataclass(frozen=True)
class PayoffReport:
    """Minimum in-relation entry and the algebraic bound it is measured against."""

    value: object
    witness: tuple[int, int, int, int]
    max_valid_outputs: int
    upper_bound: Fraction
    consistent: bool


def _tuple_at(omega: int, r: int, c: int) -> tuple[int, int, int, int]:
    return (*slot_label(omega, r), *slot_label(omega, c))


def check_consistency(table: ProbTable, rel: Relation):
    """Every entry outside the relation must be zero.  Returns (ok, violations)."""
    _require_match(table, rel)
    rows, cols = np.nonzero(table.nonzero_mask() & ~rel.mask)
    violations = [(*_tuple_at(rel.omega, r, c), table.entry_by_index(r, c))
                  for r, c in zip(rows.tolist(), cols.tolist())]
    return not violations, violations


def check_coverage(table: ProbTable, rel: Relation):
    """Every entry inside the relation must be positive.  Returns (ok, missing)."""
    _require_match(table, rel)
    rows, cols = np.nonzero(rel.mask & ~table.nonzero_mask())
    missing = [_tuple_at(rel.omega, r, c) for r, c in zip(rows.tolist(), cols.tolist())]
    return not missing, missing


def payoff(table: ProbTable, rel: Relation) -> PayoffReport:
    """Minimum conditional probability over tuples in the relation.

    The witness is the first minimizing tuple in lexicographic order.  The
    algebraic bound is one over the largest number of valid outputs any
    input pair admits; no table can exceed it on the relation's support.
    """
    _require_match(table, rel)
    best = None
    witness = None
    inside = (table.num if table.kind == "exact" else table.entries)[rel.mask]
    if inside.size:
        flat = int(np.flatnonzero(rel.mask)[np.argmin(inside)])
        r, c = divmod(flat, rel.n * rel.omega)
        best, witness = table.entry_by_index(r, c), _tuple_at(rel.omega, r, c)
    eta = rel.max_valid_outputs()
    ok, _ = check_consistency(table, rel)
    return PayoffReport(best, witness, eta, Fraction(1, eta), ok)


def check_optimality(table: ProbTable, rel: Relation) -> bool:
    """Whether the payoff reaches the algebraic bound exactly."""
    report = payoff(table, rel)
    if table.kind == "exact":
        return report.value == report.upper_bound
    return abs(float(report.value) - float(report.upper_bound)) <= ZERO_TOL


def reconstruction_possible(table: ProbTable, rel: Relation) -> bool:
    """Zero outside the relation and positive inside it: the support is the
    relation itself, so enough rounds reveal every admissible tuple."""
    return check_consistency(table, rel)[0] and check_coverage(table, rel)[0]


@dataclass(frozen=True)
class CompressedTable:
    """Row-merged table keyed by selected vertex, plus the row-to-message map."""

    vertices: tuple[int, ...]
    row_to_message: dict
    entries: tuple


def compress_rows(table: ProbTable, g: Graph, cliques: CliqueSet) -> CompressedTable:
    """Merge rows whose labels select the same vertex.

    Two inputs that colour the same shared vertex 1 can always be encoded in
    the same message; with every vertex covered by some clique this leaves
    exactly one row per vertex.  Requires a consistent table whose mergeable
    rows are actually identical.
    """
    rel = build_relation(g, cliques)
    ok, violations = check_consistency(table, rel)
    if not ok:
        raise InvalidParamsError(f"table violates consistency at {violations[0]}")
    sel = selected_vertices(cliques)
    vertices, first, message = np.unique(sel, return_index=True, return_inverse=True)
    values = table.num if table.kind == "exact" else table.entries
    differ = np.flatnonzero((values != values[first[message]]).any(axis=1))
    if len(differ):
        raise InvalidParamsError(
            f"rows selecting vertex {sel[differ[0]]} differ; cannot merge"
        )
    return CompressedTable(
        tuple(vertices.tolist()),
        dict(zip(table.rows(), message.tolist())),
        tuple(tuple(table.entries[r]) for r in first.tolist()),
    )


def _require_match(table: ProbTable, rel: Relation):
    if table.n != rel.n or table.omega != rel.omega:
        raise InvalidParamsError("table dimensions do not match relation")
