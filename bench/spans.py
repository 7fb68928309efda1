"""Span tracing for the benchmark, applied from outside the library.

`instrument(tracer)` replaces each public layer function named in LAYERS,
wherever a cliquecomm module holds a reference to it, with a wrapper that
records a span (name, start, end, parent span, operation id) and the
layer's counters.  `uninstrument` puts the originals back.  Nothing in
`src/` is edited; nested calls inside the library (for example the
consistency check that `payoff` makes) get nested spans because the
wrappers replace the module attributes the library itself looks up.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import tracemalloc

# Modules whose namespaces hold references to layer functions.
MODULES = ("graphs", "relation", "tables", "classical", "quantum", "paley",
           "simulate", "cli")


def _table_entries(table):
    return (table.n * table.omega) ** 2


def _no_count(result):
    return {}


# (module, attribute path, span name, counters taken from the result).
# A span name of None records the counters without a span.
LAYERS = (
    ("graphs", "enumerate_maximum_cliques", "graphs.cliques", _no_count),
    ("graphs", "check_conditions", "graphs.conditions", _no_count),
    ("relation", "build_relation", "relation.build",
     lambda rel: {"relation.tuples": rel.size}),
    ("relation", "infer_graph", "relation.infer", _no_count),
    ("tables", "check_consistency", "tables.consistency", _no_count),
    ("tables", "check_coverage", "tables.coverage", _no_count),
    ("tables", "payoff", "tables.payoff", _no_count),
    ("tables", "check_optimality", "tables.payoff", _no_count),
    ("tables", "mix_tables", "tables.exact_build",
     lambda t: {"tables.entries": _table_entries(t)}),
    ("classical", "ClassicalStrategy.table", "tables.exact_build",
     lambda t: {"tables.entries": _table_entries(t)}),
    ("classical", "PublicCoinMixture.table", "tables.exact_build", _no_count),
    ("classical", "ccr_protocol", "classical.ccr", _no_count),
    ("classical", "sccr_protocol", "classical.sccr", _no_count),
    ("classical", "verify_classical_lower_bound", "classical.lowerbound", _no_count),
    ("classical", "mixture_for_coverage", "classical.mixture_cov",
     lambda mix: {"classical.mixture_rows": mix.coin_inputs}),
    ("classical", "mixture_for_optimality", "classical.mixture_opt",
     lambda mix: {"classical.mixture_rows": mix.coin_inputs}),
    ("classical", "enumerate_consistent_strategies", None,
     lambda pool: {"classical.pool_size": len(pool)}),
    ("classical", "min_oa_rows", "classical.oa", _no_count),
    ("quantum", "verify_representation", "quantum.verify", _no_count),
    ("quantum", "quantum_table", "quantum.table",
     lambda t: {"tables.entries": _table_entries(t)}),
    ("quantum", "build_representation", "quantum.build_rep", _no_count),
    ("quantum", "optimize_payoff", "quantum.optimize", _no_count),
    ("paley", "optimal_gram", "paley.gram", _no_count),
    ("paley", "extract_vectors", "paley.vectors", _no_count),
    ("simulate", "simulate_rounds", "simulate.rounds",
     lambda log: {"simulate.rounds": log.k}),
    ("simulate", "reconstruct", "simulate.reconstruct",
     lambda res: {"simulate.reconstruct_ok_ratio": float(bool(res.success))}),
    ("simulate", "success_prob_exact", "simulate.exact", _no_count),
    ("simulate", "mc_success_rate", "simulate.mc", _no_count),
    ("cli", "dumps_canonical", "cli.dumps", _no_count),
)

# Calls whose heap peak is sampled with tracemalloc.  Tracing every
# allocation slows simulate_rounds several times over, so the traced run
# samples memory in a pass of its own and the timed spans stay undistorted.
MEMORY_SAMPLED = {"simulate.rounds", "simulate.mc"}

# Per-layer metrics: time metrics are the summed self time of the span of
# that name over one pass; counts are summed; ratios are means of the
# observations made in a pass; mc_peak_mb is the largest sample.
TIME_METRICS = (
    "graphs.cliques", "graphs.conditions", "relation.build", "relation.infer",
    "tables.exact_build", "tables.consistency", "tables.coverage", "tables.payoff",
    "classical.ccr", "classical.sccr", "classical.lowerbound",
    "classical.mixture_cov", "classical.mixture_opt", "classical.oa",
    "quantum.verify", "quantum.table", "quantum.build_rep", "quantum.optimize",
    "paley.gram", "paley.vectors", "simulate.rounds", "simulate.reconstruct",
    "simulate.exact", "simulate.mc", "cli.startup", "cli.main", "cli.dumps",
)
COUNT_METRICS = ("relation.tuples", "tables.entries", "classical.pool_size",
                 "classical.mixture_rows", "simulate.rounds", "cli.bytes_out")
RATIO_METRICS = ("quantum.optimize_payoff_ratio", "simulate.reconstruct_ok_ratio")


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = {}
        self.observations = {}
        self.mc_peak_mb = 0.0  # largest tracemalloc peak, when sampling memory
        self.op = None
        self.memory_ops = set()  # operations that made a memory-sampled call
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def record(self, name, value):
        """Add to a count, or add an observation to a ratio metric."""
        if name in RATIO_METRICS:
            self.observations.setdefault(name, []).append(value)
        else:
            self.counts[name] = self.counts.get(name, 0) + value

    def adopt(self, dump):
        """Merge spans and counters written by a traced child process.

        perf_counter reads CLOCK_MONOTONIC, which child processes share, so
        child spans line up with ours; root child spans hang under the span
        that is open here.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, _ in dump["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else p + base, self.op])
        for name, value in dump["counts"].items():
            self.record(name, value)
        for name, values in dump["observations"].items():
            for v in values:
                self.record(name, v)

    def dump(self):
        return {"spans": self.spans, "counts": self.counts,
                "observations": self.observations}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def self_times(spans):
    """Summed self time per span name: duration minus the time its child
    spans cover.  One process makes one call at a time, so the children of
    a span run one after another and cover the sum of their durations."""
    totals = {}
    for name, start, end, parent, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent >= 0:
            outer = spans[parent][0]
            totals[outer] = totals.get(outer, 0.0) - (end - start)
    return totals


def pass_metrics(tracer):
    """Per-layer metrics of one traced pass.  A layer the workload never
    calls reads 0."""
    selfs = self_times(tracer.spans)
    out = {f"{name}_s": selfs.get(name, 0.0) for name in TIME_METRICS}
    out.update({name: tracer.counts.get(name, 0) for name in COUNT_METRICS})
    out.update({name: statistics.fmean(tracer.observations[name])
                if tracer.observations.get(name) else 0.0 for name in RATIO_METRICS})
    out["simulate.mc_peak_mb"] = tracer.mc_peak_mb
    return out


def _wrap(tracer, original, span, counters, sample_memory):
    sampled = span in MEMORY_SAMPLED
    sample_memory = sample_memory and sampled

    def wrapper(*args, **kwargs):
        if sampled:
            tracer.memory_ops.add(tracer.op)
        if sample_memory:
            tracemalloc.start()
        if span:
            tracer.begin(span)
        try:
            result = original(*args, **kwargs)
        finally:
            if span:
                tracer.end()
            if sample_memory:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracer.mc_peak_mb = max(tracer.mc_peak_mb, peak_mb)
                tracemalloc.stop()
        for name, value in counters(result).items():
            tracer.record(name, value)
        return result
    return wrapper


def instrument(tracer, sample_memory=False):
    """Wrap every layer function for `tracer`; returns the undo list.  With
    `sample_memory`, the MEMORY_SAMPLED calls also record their tracemalloc
    peak as simulate.mc_peak_mb."""
    modules = [importlib.import_module("cliquecomm")] + [
        importlib.import_module(f"cliquecomm.{m}") for m in MODULES]
    undo = []
    for home, path, span, counters in LAYERS:
        owner = importlib.import_module(f"cliquecomm.{home}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, original, span, counters, sample_memory))
            continue
        original = getattr(owner, path)
        wrapper = _wrap(tracer, original, span, counters, sample_memory)
        for mod in modules:
            if getattr(mod, path, None) is original:
                undo.append((mod, path, original))
                setattr(mod, path, wrapper)
    return undo


def uninstrument(undo):
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)
