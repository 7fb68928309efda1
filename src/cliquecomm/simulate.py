"""Round simulation and reconstruction of the relation from observed tuples.

Inputs (C_x, a, C_y) are drawn uniformly each round and Bob's output is
sampled from the strategy table, so any zero-error table only ever produces
admissible tuples and the observed support grows towards the relation.  The
exact probability that k rounds have shown every admissible tuple at least
once is the inclusion-exclusion sum over tuple subsets, a coupon-collector
computation with unequal coupon probabilities.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InconsistentRelationError, InvalidParamsError
from .relation import Relation, infer_graph, slot_index
from .tables import ProbTable, check_coverage

GENERATOR = "pcg64"


@dataclass(frozen=True)
class RunLog:
    """Observed (x, a, y, b) tuples with the seed that reproduces them."""

    rounds: tuple[tuple[int, int, int, int], ...]
    k: int
    seed: int
    generator: str = GENERATOR

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["round", "x", "a", "y", "b"])
        for i, (x, a, y, b) in enumerate(self.rounds):
            writer.writerow([i, x, a, y, b])
        return buf.getvalue()


def _blocks(table: ProbTable) -> np.ndarray:
    """The float table as an (n*omega, n, omega) array of (row, y) blocks."""
    size = table.n * table.omega
    return table.as_float().reshape(size, table.n, table.omega)


def simulate_rounds(table: ProbTable, k: int, seed: int) -> RunLog:
    """k independent rounds with uniform inputs and table-sampled outputs."""
    if k < 0:
        raise InvalidParamsError("k must be nonnegative")
    n, omega = table.n, table.omega
    rng = np.random.default_rng(seed)
    if k == 0:
        return RunLog((), 0, seed)
    blocks = _blocks(table)
    xs = rng.integers(1, n + 1, size=k)
    las = rng.integers(0, omega, size=k)
    ys = rng.integers(1, n + 1, size=k)
    rows = slot_index(omega, xs, las)
    # per-round inverse-CDF draw inside the (row, y) block
    cdf = np.cumsum(blocks[rows, ys - 1], axis=1)
    u = rng.random((k, 1))
    bs = (u > cdf).sum(axis=1)
    bs = np.minimum(bs, omega - 1)
    rounds = tuple(
        (int(xs[i]), int(las[i]), int(ys[i]), int(bs[i])) for i in range(k)
    )
    return RunLog(rounds, k, seed)


@dataclass(frozen=True)
class ReconstructionResult:
    observed: tuple[tuple[int, int, int, int], ...]
    inputs_covered: bool
    success: bool | None
    inferred_graph: object = None
    inferred_classes: tuple = ()


def reconstruct(log: RunLog, n: int, omega: int,
                truth: Relation | None = None) -> ReconstructionResult:
    """Estimate the relation as the observed support and compare to the truth.

    The estimate counts as a success only when every input triple was seen
    at least once (otherwise totality cannot be judged) and the support
    matches the true relation exactly.  When the estimate is total, the host
    graph is inferred from it as well.
    """
    observed = tuple(sorted(set(log.rounds)))
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
            graph = None  # partial support need not be a coherent relation
    return ReconstructionResult(observed, covered, success, graph, classes)


def tuple_probabilities(table: ProbTable, rel: Relation) -> np.ndarray:
    """Per-round probability of each admissible tuple under uniform inputs."""
    n, omega = rel.n, rel.omega
    input_p = 1.0 / (n * n * omega)
    return table.as_float()[rel.mask] * input_p


def success_prob_exact(table: ProbTable, rel: Relation, k: int,
                       max_tuples: int = 20) -> float:
    """Exact probability that k rounds reveal every admissible tuple.

    Inclusion-exclusion over subsets S of the relation: sum of
    (-1)^|S| (1 - p(S))^k with p(S) the chance a round lands in S.  Zero
    the moment any admissible tuple has probability zero, since it can then
    never be observed.
    """
    if rel.size > max_tuples:
        raise CapExceededError(
            f"{rel.size} tuples exceed inclusion-exclusion cap {max_tuples}"
        )
    ok, _ = check_coverage(table, rel)
    if not ok:
        return 0.0
    probs = tuple_probabilities(table, rel)
    sums = np.zeros(1)
    signs = np.ones(1)
    for p in probs:
        sums = np.concatenate([sums, sums + p])
        signs = np.concatenate([signs, -signs])
    value = float(np.sum(signs * (1.0 - sums) ** k))
    return min(max(value, 0.0), 1.0)


def mc_success_rate(table: ProbTable, rel: Relation, k: int, trials: int,
                    seed: int, chunk: int = 512) -> tuple[float, float]:
    """Monte-Carlo estimate of the reconstruction probability, with its
    binomial standard error.  Trials are vectorized in chunks; a chunk
    holds its rounds' omega-wide table blocks, never whole table rows."""
    n, omega = rel.n, rel.omega
    blocks = _blocks(table)
    # tuple id ((row * n) + y) * omega + b -> index among the relation's
    # tuples, or -1 outside the relation
    target = np.full(rel.mask.size, -1, dtype=np.int64)
    target[np.flatnonzero(rel.mask)] = np.arange(rel.size)
    rng = np.random.default_rng(seed)
    successes = 0
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        xs = rng.integers(0, n, size=(t, k))
        las = rng.integers(0, omega, size=(t, k))
        ys = rng.integers(0, n, size=(t, k))
        rows = xs * omega + las
        cdf = np.cumsum(blocks[rows, ys], axis=2)
        u = rng.random((t, k, 1))
        bs = (u > cdf).sum(axis=2)
        bs = np.minimum(bs, omega - 1)
        # a trial succeeds when its rounds show rel.size distinct tuples
        seen = np.sort(target[(rows * n + ys) * omega + bs], axis=1)
        fresh = np.ones_like(seen, dtype=bool)
        fresh[:, 1:] = seen[:, 1:] != seen[:, :-1]
        distinct = (fresh & (seen >= 0)).sum(axis=1)
        successes += int((distinct == rel.size).sum())
        done += t
    rate = successes / trials
    stderr = float(np.sqrt(max(rate * (1 - rate), 1e-12) / trials))
    return rate, stderr


def payoff_vs_rounds_report(table: ProbTable, rel: Relation,
                            k_grid) -> list[tuple[int, float]]:
    """Exact success probability over a grid of round counts; nondecreasing in k."""
    return [(int(k), success_prob_exact(table, rel, int(k))) for k in k_grid]


def success_curve_csv(rows, mc_rows=None) -> str:
    """CSV rendering: k,P_exact[,P_mc,stderr]."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if mc_rows is None:
        writer.writerow(["k", "P_exact"])
        for k, p in rows:
            writer.writerow([k, f"{p:.17g}"])
    else:
        writer.writerow(["k", "P_exact", "P_mc", "stderr"])
        for (k, p), (rate, err) in zip(rows, mc_rows):
            writer.writerow([k, f"{p:.17g}", f"{rate:.17g}", f"{err:.17g}"])
    return buf.getvalue()
