"""One benchmark process: set up one workload, then run passes over it.

Started by `run.py`, never by hand.  Prints `ready` once the instances are
built, then (unless --setup-only) runs passes for --seconds (at least one)
and prints one
JSON line with the pass times, the failures and, with --trace 1, the
per-layer metrics of the traced passes.

Each workload is a fixed list of operations.  An operation calls public
library functions (or the CLI) and checks what they return; an exception
or a failed check counts the operation as failed.  Operations of one
instance share a state dict, so when an early step fails the steps that
need its result fail too and the number attempted stays fixed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import cliquecomm as cc  # noqa: E402  (PYTHONPATH is set by run.py)
from cliquecomm.simulate import RunLog  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def relabelled_edges(graph_classes, cliques):
    """Edges of an inferred graph in the original vertex names."""
    graph, classes = graph_classes
    name = {idx: cliques.clique(members[0][0])[members[0][1]]
            for idx, members in enumerate(classes, start=1)}
    return {tuple(sorted((name[u], name[v]))) for u, v in graph.edges}


def instance(g):
    cliques = cc.enumerate_maximum_cliques(g)
    return g, cliques, cc.build_relation(g, cliques)


def mc_within(rate, exact, trials):
    """Monte Carlo against the exact value at 5 sigma: with several
    comparisons per pass over many passes, 3 sigma would flake on correct
    code."""
    sigma = math.sqrt(max(exact * (1 - exact), 0.0) / trials)
    return abs(rate - exact) <= 5 * sigma + 1e-9


class Context:
    """What operations may touch besides the library: the workload seed,
    the active tracer (None in untraced passes) and child processes."""

    def __init__(self, seed):
        self.seed = seed
        self.tracer = None
        self.attempted = 0
        self.child_peak_rss_mb = 0.0
        # set by a workload whose operations are child processes: returns
        # the reference kernel's seconds, timed in a child (reference.py)
        self.child_reference = None

    def sim_seed(self, index):
        """Simulation seed of operation `index`, driven by the workload seed."""
        return self.seed * 1000 + index

    def record(self, name, value):
        if self.tracer is not None:
            self.tracer.record(name, value)

    def run_child(self, argv, cwd):
        """Run a child to completion; return its exit code.  Its peak RSS
        comes from os.wait4 on that child alone."""
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_mb = max(self.child_peak_rss_mb, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace")[-2000:])
        return proc.returncode


# ---------------------------------------------------------------------------
# paley-certify: the full certification chain on Paley q = 13, 17, 29
# ---------------------------------------------------------------------------

PALEY_SHAPES = {13: (26, 3, 3276), 17: (68, 3, 22032), 29: (203, 4, 341040)}


def paley_certify(ctx):
    ops = []
    for q, (n, omega, size) in PALEY_SHAPES.items():
        g = cc.gen_paley(q)
        want = (2 / (math.sqrt(q) + 1)) ** 2
        st = {}

        def cliques(g=g, st=st, n=n, omega=omega):
            st.clear()  # free the last pass's chain, so peak RSS is per pass
            st["cliques"] = cc.enumerate_maximum_cliques(g)
            check((st["cliques"].count, st["cliques"].omega) == (n, omega), "clique shape")

        def relation(g=g, st=st, size=size):
            st["rel"] = cc.build_relation(g, st["cliques"])
            check(st["rel"].size == size, "relation size")

        def strategy(g=g, st=st, q=q):
            rep = cc.extract_vectors(cc.optimal_gram(q))
            check(rep.d == (q + 1) // 2, "representation dimension")
            st["strategy"] = cc.QuantumStrategy.create(rep, g, st["cliques"])
            check(st["strategy"].verified, "strategy verified")

        def quantum_table(st=st, want=want):
            rel = st["rel"]
            table = cc.quantum_table(st["strategy"], rel, completion="omit")
            check(cc.check_consistency(table, rel)[0], "quantum table consistent")
            check(cc.check_coverage(table, rel)[0], "quantum table covers")
            check(abs(float(cc.payoff(table, rel).value) - want) <= 1e-8, "Paley payoff")

        def sccr(g=g, st=st, q=q):
            rel = st["rel"]
            s = cc.sccr_protocol(g, st["cliques"], rel)
            check(s.m == q, "one message per vertex")
            check(cc.check_optimality(s.table(rel.n, rel.omega), rel), "sccr optimal")

        def infer(g=g, st=st):
            rel = st["rel"]
            inferred = cc.infer_graph(rel, rel.n, rel.omega)
            check(inferred[0].order == g.order, "inferred order")
            check(relabelled_edges(inferred, st["cliques"]) == set(g.edges),
                  "inferred graph is the Paley graph")

        ops += [(f"p{q}.cliques", cliques), (f"p{q}.relation", relation),
                (f"p{q}.strategy", strategy), (f"p{q}.quantum_table", quantum_table),
                (f"p{q}.sccr", sccr), (f"p{q}.infer", infer)]
    return ops


# ---------------------------------------------------------------------------
# protocol-search: classical searches, orthogonal arrays, the optimizer
# ---------------------------------------------------------------------------

# (n, omega) of disconnected(n, omega) -> coin inputs of the optimal mixture
OPTIMAL_COINS = {(2, 2): 2, (3, 2): 4, (4, 2): 4, (5, 2): 8, (2, 3): 3, (3, 3): 3}
OA_ROWS = {2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8}


def protocol_search(ctx):
    ops = []
    for (n, omega), coins in OPTIMAL_COINS.items():
        g, cliques, rel = instance(cc.gen_disconnected(n, omega))
        tag = f"d{n}{omega}"

        def ccr(g=g, cliques=cliques, rel=rel, omega=omega):
            check(cc.ccr_protocol(g, cliques, rel).m == omega, "ccr messages")

        def lowerbound(g=g, cliques=cliques, rel=rel):
            check(cc.verify_classical_lower_bound(g, cliques, rel, g.order - 1) is True,
                  "order-1 messages insufficient")

        def coverage(g=g, cliques=cliques, rel=rel, n=n, omega=omega):
            table = cc.mixture_for_coverage(g, cliques, rel).table(n, omega)
            check(cc.reconstruction_possible(table, rel), "coverage mixture covers")
            if omega == 2:
                check(cc.payoff(table, rel).value == Fraction(1, n), "coverage payoff 1/n")

        def optimality(g=g, cliques=cliques, rel=rel, n=n, omega=omega, coins=coins):
            mix = cc.mixture_for_optimality(g, cliques, rel)
            check(mix.coin_inputs == coins, "optimal coin inputs")
            check(cc.check_optimality(mix.table(n, omega), rel), "mixture optimal")

        ops += [(f"{tag}.ccr", ccr), (f"{tag}.lowerbound", lowerbound),
                (f"{tag}.mixture_cov", coverage), (f"{tag}.mixture_opt", optimality)]

    for k, rows in OA_ROWS.items():
        ops.append((f"oa{k}", lambda k=k, rows=rows: check(cc.min_oa_rows(k) == rows,
                                                           "orthogonal array rows")))

    for n, reaches in ((3, True), (4, False)):
        g, cliques, rel = instance(cc.gen_disconnected(n, 2))
        bound = 1 / rel.max_valid_outputs()

        def optimize(g=g, cliques=cliques, bound=bound, reaches=reaches):
            # criterion 7: three qubit bases reach 1/2, four fall short
            res = cc.optimize_payoff(g, cliques, 2, restarts=32, seed=0)
            ctx.record("quantum.optimize_payoff_ratio", res.payoff / bound)
            if reaches:
                check(res.payoff >= bound - 1e-6, "three bases reach the bound")
            else:
                check(0 < res.payoff <= bound - 0.01, "four bases fall short")

        ops.append((f"optimize.d{n}2", optimize))

    g13 = cc.gen_paley(13)
    cliques13 = cc.enumerate_maximum_cliques(g13)

    def build_rep():
        rep = cc.build_representation(g13, cliques13, 7, seed=0)
        check(rep.d == 7 and cc.verify_representation(rep, g13).ok, "numeric representation")

    ops.append(("p13.build_rep_d7", build_rep))
    return ops


# ---------------------------------------------------------------------------
# reconstruct-sim: exact and Monte Carlo success, simulation round trips
# ---------------------------------------------------------------------------

def reconstruct_sim(ctx):
    ops = []
    g, cliques, rel = instance(cc.gen_nncc(2, 3, 1))
    best = cc.mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    trials = 10_000
    for i, k in enumerate((50, 200, 1000)):
        def success(k=k, i=i):
            exact = cc.success_prob_exact(best, rel, k)
            rate, _ = cc.mc_success_rate(best, rel, k, trials=trials, seed=ctx.sim_seed(i))
            check(0 < exact <= 1 and mc_within(rate, exact, trials), "MC matches exact")
        ops.append((f"chain5.k{k}", success))

    # criterion 9's families, at its round count 500 n^2 omega
    families = [cc.gen_disconnected(n, w) for n in (2, 3, 4) for w in (2, 3)]
    families += [cc.gen_nncc(n, 3, 1) for n in (2, 3, 4)]
    for i, graph in enumerate(families, start=10):
        _, fam_cliques, fam_rel = instance(graph)
        table = cc.sccr_protocol(graph, fam_cliques, fam_rel).table(fam_rel.n, fam_rel.omega)
        k = 500 * fam_rel.n * fam_rel.n * fam_rel.omega

        def round_trip(graph=graph, rel=fam_rel, table=table, k=k, i=i):
            log = cc.simulate_rounds(table, k, seed=ctx.sim_seed(i))
            res = cc.reconstruct(log, rel.n, rel.omega, truth=rel)
            check(res.success and res.inferred_graph == graph, "round trip")
        ops.append((f"family{i - 10}", round_trip))

    p13, cliques13, rel13 = instance(cc.gen_paley(13))
    table13 = cc.sccr_protocol(p13, cliques13, rel13).table(rel13.n, rel13.omega)

    def paley_round_trip():
        log = cc.simulate_rounds(table13, 120 * rel13.n * rel13.n * rel13.omega,
                                 seed=ctx.sim_seed(20))
        res = cc.reconstruct(log, rel13.n, rel13.omega, truth=rel13)
        check(res.success, "Paley 13 reconstructed")
        check(relabelled_edges((res.inferred_graph, res.inferred_classes), cliques13)
              == set(p13.edges), "Paley 13 graph recovered")

    def paley_mc():
        # 1000 rounds cannot show 3 276 distinct tuples, so success is impossible
        rate, _ = cc.mc_success_rate(table13, rel13, 1000, trials=512, seed=ctx.sim_seed(21))
        check(rate == 0.0, "no success below |R| rounds")

    ops += [("p13.sccr_k243360", paley_round_trip), ("p13.mc_k1000", paley_mc)]
    return ops


# ---------------------------------------------------------------------------
# cli-files: each command as its own process, on files
# ---------------------------------------------------------------------------

# SHA-256 of the output bytes of the deterministic commands, as the seed
# commit writes them.  The CLI promises byte-identical output.
CLI_SHA256 = {
    "relation_build": "9b887225f9cdcaf73b41c3f52d42d859a4a4df182b29072a7d08b8e2806adb79",
    "relation_infer": "b7f89c2ad11b7e41e587ebb9bbececfee141c6cdc9e09a59c89792282eb72a12",
    "complexity_sccr": "8ac9ca2cacf9d2ec3af744f4a882e4056fbed3c27446cc2218970f1d2aad02a3",
    "paley_analyze": "bf7a03141d0de97d373a260d2e4c3669c610d5e9f756522406769dd6eedae969",
    "graph_check": "7c0cc1da6d80dd847240cbeac847e985f4dc1b9075ee2f7155736c55add40035",
}

CLI_INSTANCES = {
    "p13.json": ["--family", "paley", "--q", "13"],
    "p17.json": ["--family", "paley", "--q", "17"],
    "p29.json": ["--family", "paley", "--q", "29"],
    "chain5.json": ["--family", "nncc", "--n", "2", "--omega", "3", "--r", "1"],
    "d32.json": ["--family", "disconnected", "--n", "3", "--omega", "2"],
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_files(ctx):
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    from cliquecomm import cli
    for name, family in CLI_INSTANCES.items():
        check(cli.main(["graph", "gen", *family, "--out", str(work / name)]) == 0,
              "instance written")

    _, _, rel13 = instance(cc.gen_paley(13))
    eta13 = rel13.max_valid_outputs()
    g5, cliques5, rel5 = instance(cc.gen_nncc(2, 3, 1))
    best5 = cc.mixture_for_optimality(g5, cliques5, rel5).table(rel5.n, rel5.omega)
    k_grid = (50, 200, 1000)
    exact5 = {k: cc.success_prob_exact(best5, rel5, k) for k in k_grid}
    trials = 10_000
    sim_k = 120 * rel13.n * rel13.n * rel13.omega

    def child_reference():
        # a fresh interpreter for the reference too, timed whole, as each
        # command is
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "reference.py")], check=True)
        return time.perf_counter() - start

    ctx.child_reference = child_reference
    untraced = [sys.executable, "-m", "cliquecomm.cli"]
    traced = [sys.executable, str(HERE / "cli_traced.py")]

    def command(out, *args):
        path = work / out
        if path.exists():
            path.unlink()
        if ctx.tracer is None:
            code = ctx.run_child(untraced + list(args) + ["--out", out], work)
        else:
            dump = work / (out + ".spans.json")
            if dump.exists():
                dump.unlink()
            # the command's self time, outside the child's cli.main span, is
            # interpreter start, imports and exit
            ctx.tracer.begin("cli.startup")
            try:
                code = ctx.run_child(traced + [str(dump)] + list(args) + ["--out", out], work)
                ctx.tracer.adopt(json.loads(dump.read_text()))
            finally:
                ctx.tracer.end()
        check(code == 0, f"exit code {code}")
        ctx.record("cli.bytes_out", path.stat().st_size)
        return path

    def hashed(key, out, *args):
        def op():
            check(sha256(command(out, *args)) == CLI_SHA256[key], "output bytes")
        return (key, op)

    def quantum_table():
        data = json.loads(command("p13.qt.json", "quantum", "table", "--in", "p13.json",
                                  "--d", "7").read_text())
        table = cc.ProbTable.from_json(data["table"])
        check(data["dimension"] == 7, "dimension")
        check(cc.check_consistency(table, rel13)[0], "table consistent")
        value = float(cc.payoff(table, rel13).value)
        check(abs(value - data["payoff"]) <= 1e-12, "payoff as reported")
        check(0 < value <= 1 / eta13 + 1e-9, "payoff bound")

    def quantum_optimize():
        data = json.loads(command("d32.opt.json", "quantum", "optimize", "--in", "d32.json",
                                  "--d", "2", "--restarts", "8").read_text())
        for key in ("payoff", "representation_payoff"):
            check(0 < data[key] <= 0.5 + 1e-9, "payoff bound")
        ctx.record("quantum.optimize_payoff_ratio", data["payoff"] / 0.5)

    def simulate_success():
        path = command("chain5.success.csv", "simulate", "success", "--in", "chain5.json",
                       "--mixture", "optimal", "--trials", str(trials),
                       "--seed", str(ctx.sim_seed(0)))
        rows = list(csv.DictReader(path.read_text().splitlines()))
        check([int(r["k"]) for r in rows] == list(k_grid), "k grid")
        for r in rows:
            exact = float(r["P_exact"])
            check(exact == exact5[int(r["k"])], "exact curve")
            check(mc_within(float(r["P_mc"]), exact, trials), "MC matches exact")

    def simulate_run():
        path = command("p13.run.csv", "simulate", "run", "--in", "p13.json",
                       "--k", str(sim_k), "--seed", str(ctx.sim_seed(1)))
        reader = csv.reader(path.read_text().splitlines())
        check(next(reader) == ["round", "x", "a", "y", "b"], "run log header")
        rounds = [tuple(map(int, row[1:])) for row in reader]
        check(len(rounds) == sim_k, "round count")
        # 40 expected sightings of the rarest tuple: every one shows
        res = cc.reconstruct(RunLog(tuple(rounds), sim_k, 0), rel13.n, rel13.omega,
                             truth=rel13)
        check(res.success, "the run log reveals the relation")

    return [
        hashed("relation_build", "p29.rel.json", "relation", "build", "--in", "p29.json"),
        hashed("relation_infer", "p29.graph.json", "relation", "infer", "--in", "p29.rel.json"),
        hashed("complexity_sccr", "p17.sccr.json", "complexity", "sccr", "--in", "p17.json"),
        ("quantum_table", quantum_table),
        ("quantum_optimize", quantum_optimize),
        ("simulate_success", simulate_success),
        ("simulate_run", simulate_run),
        hashed("paley_analyze", "p29.paley.json", "paley", "analyze", "--q", "29"),
        hashed("graph_check", "p13.check.json", "graph", "check", "--in", "p13.json"),
    ]


WORKLOADS = {
    "paley-certify": paley_certify,
    "protocol-search": protocol_search,
    "reconstruct-sim": reconstruct_sim,
    "cli-files": cli_files,
}


# ---------------------------------------------------------------------------
# Pass loop
# ---------------------------------------------------------------------------

# A run goes past its first pass only if this many passes fit in it.
MIN_PASSES_IF_MORE_THAN_ONE = 3


def run_pass(ops, ctx, failures, with_reference=False):
    """Run every operation once.  Returns the time spent in the operations
    and, with_reference, the median time of the reference kernel during
    the pass (else None): sampled by a thread in process, or timed in a
    child before each operation where ctx.child_reference is set."""
    wall = 0.0
    refs = []
    sampler = None
    if with_reference and ctx.child_reference is None:
        sampler = reference.Sampler()
        sampler.start()
    ctx.attempted += len(ops)
    for name, op in ops:
        if with_reference and ctx.child_reference is not None:
            refs.append(ctx.child_reference())
        if ctx.tracer is not None:
            ctx.tracer.op = name
        start = time.perf_counter()
        try:
            op()
        except Exception as exc:  # a failed operation is a result, not a crash
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        wall += time.perf_counter() - start
    if sampler is not None:
        return wall, sampler.stop()
    return wall, (statistics.median(refs) if refs else None)


def traced_pass(ops, ctx, failures, sample_memory=False):
    """One pass with every layer call spanned; returns (wall, tracer)."""
    tracer = ctx.tracer = spans.Tracer()
    undo = spans.instrument(tracer, sample_memory)
    try:
        wall, _ = run_pass(ops, ctx, failures)
    finally:
        spans.uninstrument(undo)
        ctx.tracer = None
    return wall, tracer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(cc.__file__).resolve().parent != ROOT / "src" / "cliquecomm":
        sys.exit(f"cliquecomm imported from {cc.__file__}, not from this checkout")
    ctx = Context(args.seed)
    ops = WORKLOADS[args.workload](ctx)
    print("ready", flush=True)
    if args.setup_only:
        return

    failures = []
    walls, refs, traced_walls, layer = [], [], [], []
    peak_rss_mb = None

    def layer_pass():
        wall, tracer = traced_pass(ops, ctx, failures)
        traced_walls.append(wall)
        layer.append(spans.pass_metrics(tracer))
        return tracer

    start = time.perf_counter()
    while True:
        # a traced run alternates which pass of a pair goes first, so that the
        # slower first pass of a fresh process does not bias the overhead ratio
        traced_first = args.trace and len(walls) % 2 == 1
        if traced_first:
            tracer = layer_pass()
        wall, ref = run_pass(ops, ctx, failures, with_reference=True)
        walls.append(wall)
        refs.append(ref)
        if peak_rss_mb is None:
            # the peak up to the end of the first pass, so that it does not
            # grow with the number of passes a run happens to fit in
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace and not traced_first:
            tracer = layer_pass()
        # start no pass that would run past the measuring time, so a workload
        # whose pass is close to it always runs the same number of passes
        per_pass = statistics.median(walls) + (statistics.median(traced_walls)
                                               if args.trace else 0.0)
        if time.perf_counter() - start + per_pass > args.seconds:
            break
        # the first pass of a process is slower, and the median of two
        # passes would give it half the weight, so one pass or several
        if len(walls) == 1 and MIN_PASSES_IF_MORE_THAN_ONE * per_pass > args.seconds:
            break

    if args.trace and tracer.memory_ops:
        sampled = [op for op in ops if op[0] in tracer.memory_ops]
        _, mem = traced_pass(sampled, ctx, failures, sample_memory=True)
        for metrics in layer:
            metrics["simulate.mc_peak_mb"] = mem.mc_peak_mb

    print(json.dumps({
        "ops_per_pass": len(ops),
        "attempted": ctx.attempted,
        "walls": walls,
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        "traced_walls": traced_walls,
        "failures": failures,
        "layer_passes": layer,
        "child_peak_rss_mb": ctx.child_peak_rss_mb,
        "versions": {"python": sys.version.split()[0],
                     **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")}},
    }), flush=True)


if __name__ == "__main__":
    main()
