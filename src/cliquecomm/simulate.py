"""Round simulation and reconstruction of the relation from observed tuples.

Inputs (C_x, a, C_y) are drawn uniformly each round and Bob's output is
sampled from the strategy table, so any zero-error table only ever produces
admissible tuples and the observed support grows towards the relation.

The probability that k rounds have shown every admissible tuple at least
once is a coupon-collector probability with unequal coupons.  With tuple
probabilities p_i and S = sum p_i (a round that lands outside the relation
shows no tuple), it is the Poissonized generating function of Flajolet,
Gardy and Thimonier (1992):

    P(T <= k) = k! [t^k] e^((1 - S) t) prod_i (e^(p_i t) - 1).

Substituting t = k u and scaling each factor by e^(-k * its mass) turns
every factor into a vector of Poisson pmfs: lambda = k p_i with its zero
term dropped, and lambda = k (1 - S) for the missing mass.  Equal p_i are
grouped and each group raised to its count by repeated squaring, with FFT
products truncated at degree k; coefficient k of the product over the
Poisson(k) pmf at k is the probability.  Every term is nonnegative, so
nothing cancels.

`simulate_rounds` and `mc_success_rate` share one inverse-CDF sampler.  It
takes the cumulative sums of every (row, y) block of the table once per
call and keeps them as omega - 1 flat columns indexed by the block
`row * n + (y - 1)`.  A round's output is the number of those block CDF
steps its uniform draw exceeds: the first output whose CDF reaches the
draw, or the last output when none does (the residual of a subnormalized
block falls on it).  Logs and the observed support stay arrays: a `RunLog`
holds a (k, 4) integer array, and `reconstruct` scatters it into a
relation mask.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentRelationError, InvalidParamsError
from .relation import Relation, four_int_rows, infer_graph, slot_index
from .tables import ProbTable, check_coverage

GENERATOR = "pcg64"
# the Stirling series of log j! - ((j + 1/2) log j - j + log(2 pi) / 2):
# 1/(12 j) - 1/(360 j^3) + 1/(1260 j^5) - 1/(1680 j^7) + 1/(1188 j^9)
STIRLING_SERIES = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


class RunLog:
    """Observed (x, a, y, b) rounds with the seed that reproduces them.

    `array` is a read-only (k, 4) int64 array, one round per row, and
    `rounds` is a tuple view of it built on first use.
    `RunLog(rounds, k, seed)` takes the rounds as a list of four-integer
    lists; `RunLog.from_array` takes the array as given.
    """

    generator = GENERATOR

    def __init__(self, rounds, k: int, seed: int):
        self._init(four_int_rows(rounds, "rounds"), k, seed)

    @classmethod
    def from_array(cls, array: np.ndarray, seed: int) -> "RunLog":
        log = cls.__new__(cls)
        log._init(np.array(array, dtype=np.int64), len(array), seed)
        return log

    def _init(self, array: np.ndarray, k: int, seed: int):
        if array.ndim != 2 or array.shape[1] != 4:
            raise InvalidParamsError("a run log holds one (x, a, y, b) row per round")
        if int(k) != len(array):
            raise InvalidParamsError(f"k={k} but the log holds {len(array)} rounds")
        array.flags.writeable = False
        self.array, self.k, self.seed = array, int(k), seed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RunLog)
            and (self.k, self.seed) == (other.k, other.seed)
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.seed, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"RunLog(k={self.k}, seed={self.seed}, generator={self.generator!r})"

    @cached_property
    def rounds(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(zip(*self.array.T.tolist()))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["round", "x", "a", "y", "b"])
        writer.writerows(zip(range(self.k), *self.array.T.tolist()))
        return buf.getvalue()


def _output_sampler(table: ProbTable):
    """Bob's inverse-CDF sampler for `table`: draw(blocks, u) -> outputs.

    `blocks` holds each round's block index row * n + (y - 1) and `u` its
    uniform draw in [0, 1).  The output is the count of block CDF values
    below u over the first omega - 1 outputs.  The CDF of nonnegative
    entries is nondecreasing, so this equals counting over all omega of
    them and capping at omega - 1, float for float.
    """
    n, omega = table.n, table.omega
    cdf = np.cumsum(table.as_float().reshape(n * omega, n, omega), axis=2)
    columns = np.ascontiguousarray(cdf.reshape(-1, omega)[:, :-1].T)

    def draw(blocks: np.ndarray, u: np.ndarray) -> np.ndarray:
        # the smallest dtype that holds omega - 1: adding booleans into it
        # costs a fraction of adding them into int64
        outputs = np.zeros(blocks.shape, dtype=np.min_scalar_type(omega))
        for column in columns:
            outputs += u > column.take(blocks)
        return outputs

    return draw


def simulate_rounds(table: ProbTable, k: int, seed: int) -> RunLog:
    """k independent rounds with uniform inputs and table-sampled outputs."""
    if k < 0:
        raise InvalidParamsError("k must be nonnegative")
    n, omega = table.n, table.omega
    rng = np.random.default_rng(seed)
    if k == 0:
        return RunLog((), 0, seed)
    draw = _output_sampler(table)
    xs = rng.integers(1, n + 1, size=k)
    las = rng.integers(0, omega, size=k)
    ys = rng.integers(1, n + 1, size=k)
    bs = draw(slot_index(omega, xs, las) * n + ys - 1, rng.random(k))
    return RunLog.from_array(np.stack([xs, las, ys, bs], axis=1), seed)


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
    graph is inferred from it as well.  Rounds outside the n x omega index
    stay in `observed`; an input out of range leaves the inputs uncovered,
    and an output out of range fails the reconstruction.
    """
    x, a, y, b = log.array.T
    asked = (1 <= x) & (x <= n) & (0 <= a) & (a < omega) & (1 <= y) & (y <= n)
    answered = (0 <= b) & (b < omega)
    # slot omega of each (row, y) block records an input answered out of range
    seen = np.zeros((n * omega, n, omega + 1), dtype=bool)
    seen[slot_index(omega, x[asked], a[asked]), y[asked] - 1,
         np.where(answered, b, omega)[asked]] = True
    covered = bool(asked.all() and seen.any(axis=2).all())
    support = Relation.from_mask(n, omega, seen[:, :, :omega].reshape(n * omega, n * omega))
    observed = support.tuples
    stray = log.array[~(asked & answered)]
    if len(stray):
        observed = tuple(sorted(set(observed).union(map(tuple, stray.tolist()))))
    success = None
    if truth is not None:
        success = covered and not len(stray) and support == truth
    graph = None
    classes = ()
    if covered and not len(stray):
        try:
            graph, classes = infer_graph(support, n, omega)
        except (InconsistentRelationError, InvalidParamsError):
            graph = None  # partial support need not be a coherent relation
    return ReconstructionResult(observed, covered, success, graph, classes)


def tuple_probabilities(table: ProbTable, rel: Relation) -> np.ndarray:
    """Per-round probability of each admissible tuple under uniform inputs."""
    n, omega = rel.n, rel.omega
    input_p = 1.0 / (n * n * omega)
    return table.as_float()[rel.mask] * input_p


def _log_norm(j: np.ndarray) -> np.ndarray:
    """log j! - (j log j - j) at j = 1, 2, ...: from lgamma below 16, and as
    log(2 pi j)/2 plus the Stirling series above (Loader, 2000).  The
    Poisson(lam) pmf at j is exp(j log(lam / j) + j - lam - log_norm), so no
    term of size j log j is formed and no digits cancel as j grows."""
    series = np.zeros(len(j))
    for c in reversed(STIRLING_SERIES):
        series = c - series / (j * j)
    out = 0.5 * np.log(2 * np.pi * j) + series / j
    small = j[j < 16].tolist()
    out[:len(small)] = [math.lgamma(x + 1) - x * math.log(x) + x for x in small]
    return out


def _truncated_product(a: np.ndarray, b: np.ndarray, fft_len: int) -> np.ndarray:
    """Coefficients 0..len(a)-1 of the product of two nonnegative series,
    through FFTs of a length past both degrees; round-off below 0 is clipped."""
    fa = np.fft.rfft(a, fft_len)
    fb = fa if b is a else np.fft.rfft(b, fft_len)
    return np.maximum(np.fft.irfft(fa * fb, fft_len)[:len(a)], 0.0)


def _power(series: np.ndarray, count: int, fft_len: int) -> np.ndarray:
    """series ** count, truncated, by repeated squaring."""
    result = None
    while True:
        if count & 1:
            result = series if result is None else _truncated_product(result, series, fft_len)
        count >>= 1
        if not count:
            return result
        series = _truncated_product(series, series, fft_len)


def success_prob_exact(table: ProbTable, rel: Relation, k: int) -> float:
    """Probability that k rounds reveal every admissible tuple.

    The coupon-collector generating function of the module docstring,
    evaluated as a product of truncated Poisson pmf vectors over the
    distinct tuple probabilities.  Zero when k < |R| (k rounds show at most
    k tuples) or when some admissible tuple has probability zero; one once
    the union bound sum_i (1 - p_i)^k on the failure probability is below
    2^-55, so that P rounds to 1 in double precision.
    """
    if k < 0:
        raise InvalidParamsError("k must be nonnegative")
    if k < rel.size or not check_coverage(table, rel)[0]:
        return 0.0
    probs = tuple_probabilities(table, rel)
    values, counts = np.unique(probs, return_counts=True)
    if counts @ (1.0 - values) ** k < 2.0 ** -55:
        return 1.0
    j = np.arange(1, k + 1, dtype=float)
    log_norm = _log_norm(j)

    def poisson_pmf(lam):  # at 0..k
        positive = np.exp(j * np.log(lam / j) + (j - lam) - log_norm)
        return np.concatenate(([math.exp(-lam)], positive))

    fft_len = 1 << int(2 * k).bit_length()
    factors = []
    for lam, count in zip((k * values).tolist(), counts.tolist()):
        pmf = poisson_pmf(lam)
        pmf[0] = 0.0  # e^(p t) - 1: every tuple shows at least once
        factors.append(_power(pmf, count, fft_len))
    missing = 1.0 - math.fsum(probs)
    if missing > 0:
        factors.append(poisson_pmf(k * missing))
    product = factors[0]
    for factor in factors[1:]:
        product = _truncated_product(product, factor, fft_len)
    # k! [t^k] = e^k k! k^-k [u^k] after t = k u: divide by Poisson(k) at k
    value = product[k] * math.exp(log_norm[-1])
    return min(max(value, 0.0), 1.0)


def mc_success_rate(table: ProbTable, rel: Relation, k: int, trials: int,
                    seed: int, chunk: int = 512) -> tuple[float, float]:
    """Monte-Carlo estimate of the reconstruction probability, with its
    binomial standard error.  Trials are vectorized in chunks of (trial,
    round) arrays.  Without drawing, the rate is 0 when k < |R| (k rounds
    show at most k tuples) or when the table gives some admissible tuple
    probability zero, as in `success_prob_exact`."""
    if k < 0:
        raise InvalidParamsError("k must be nonnegative")
    if trials < 1:
        raise InvalidParamsError("trials must be positive")
    if k < rel.size or not check_coverage(table, rel)[0]:
        rate = 0.0
    else:
        rate = _mc_successes(table, rel, k, trials, seed, chunk) / trials
    stderr = float(np.sqrt(max(rate * (1 - rate), 1e-12) / trials))
    return rate, stderr


def _mc_successes(table: ProbTable, rel: Relation, k: int, trials: int,
                  seed: int, chunk: int) -> int:
    """Trials whose k rounds show every tuple of rel."""
    n, omega, size = rel.n, rel.omega, rel.size
    draw = _output_sampler(table)
    # tuple id ((row * n) + y) * omega + b -> index among the relation's
    # tuples, or size outside the relation
    target = np.full(rel.mask.size, size, dtype=np.intp)
    target[np.flatnonzero(rel.mask)] = np.arange(size)
    rng = np.random.default_rng(seed)
    successes = 0
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        xs = rng.integers(0, n, size=(t, k))
        las = rng.integers(0, omega, size=(t, k))
        ys = rng.integers(0, n, size=(t, k))
        blocks = (xs * omega + las) * n + ys
        bs = draw(blocks, rng.random((t, k)))
        # k >= size, so the (trial, tuple) presence array is no larger
        # than the chunk's (trial, round) arrays
        present = np.zeros((t, size + 1), dtype=bool)
        offsets = np.arange(t)[:, None] * (size + 1)
        present.ravel()[target.take(blocks * omega + bs) + offsets] = True
        successes += int(present[:, :size].all(axis=1).sum())
        done += t
    return successes


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
