"""Command-line surface: file-based workflows over the library.

Every command reads/writes JSON (or CSV for run logs and success curves)
and stamps a provenance header.  JSON goes out canonical (`dumps_canonical`:
sorted keys, no spaces, floats with 17 significant digits), so identical
invocations produce byte-identical output.  Every failure the package
anticipates exits with its own code and a one-line message on
standard error, never a traceback; FAILURES lists the codes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .classical import (
    ccr_protocol,
    mixture_for_coverage,
    mixture_for_optimality,
    sccr_protocol,
    verify_classical_lower_bound,
)
from .errors import (
    CapExceededError,
    CliquecommError,
    ConditionsNotMetError,
    ConstructionFailedError,
    EmptyGraphError,
    InconsistentRelationError,
    InvalidParamsError,
    SearchExhaustedError,
    UnverifiedRepresentationError,
)
from .graphs import (
    Graph,
    check_conditions,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    gen_paley,
)
from .paley import analyze as paley_analyze
from .quantum import (
    QuantumStrategy,
    build_representation,
    check_mub,
    optimize_payoff,
    quantum_table,
    representation_payoff,
    rsp_payoff,
    symmetric_equatorial_angles,
)
from .relation import Relation, build_relation, infer_graph, int_rows_text
from .simulate import (
    mc_success_rate,
    payoff_vs_rounds_report,
    simulate_rounds,
    success_curve_csv,
)
from .tables import ProbTable, payoff as table_payoff


_STRING = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")')
# a number token with a fraction or an exponent (json.dumps writes ints as
# bare digits), or a non-finite float
_FLOAT = re.compile(r"-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)|-?Infinity|NaN")


def _float17(match: re.Match) -> str:
    return format(float(match[0]), ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, floats at 17 significant digits.

    The C encoder writes the document; each float it wrote as its repr is
    then rewritten as format(x, ".17g"), and Infinity, -Infinity and NaN
    as inf, -inf and nan.  A 2-D integer ndarray is written as its
    .tolist() would be, by `int_rows_text`: the encoder leaves a marker
    string in its place, replaced afterwards.  Values other than dicts,
    lists, tuples, str, int, float, bool, None and those arrays raise
    TypeError.
    """
    arrays = {}
    nonce = os.urandom(8).hex()

    def marker(value):
        if not (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu"):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        key = f"\0ndarray {len(arrays)} {nonce}"
        arrays[json.dumps(key)] = "[" + int_rows_text(value, ",", "[", "],")[:-1] + "]"
        return key

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=marker)
    # string literals land at the odd indices; a stretch between them
    # without '.', 'e', 'E', 'I' or 'N' holds no float and is kept as is
    parts = _STRING.split(text)
    for i in range(0, len(parts), 2):
        if any(c in parts[i] for c in ".eEIN"):
            parts[i] = _FLOAT.sub(_float17, parts[i])
    if arrays:
        parts[1::2] = [arrays.get(part, part) for part in parts[1::2]]
    return "".join(parts)


def _emit(args, payload: dict, params: dict):
    payload = dict(payload)
    payload["schema_version"] = 1
    payload["provenance"] = {
        "version": __version__,
        "seed": args.seed,
        "params": {k: v for k, v in sorted(params.items())},
    }
    text = dumps_canonical(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_text(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _instance(path: str):
    """The graph in a file, its maximum cliques and the relation they induce."""
    g = Graph.from_json(_load_json(path))
    cliques = enumerate_maximum_cliques(g)
    return g, cliques, build_relation(g, cliques)


def cmd_graph_gen(args) -> None:
    g = {"disconnected": lambda: gen_disconnected(args.n, args.omega),
         "nncc": lambda: gen_nncc(args.n, args.omega, args.r),
         "paley": lambda: gen_paley(args.q)}[args.family]()
    _emit(args, g.to_json(), {"family": args.family, "n": args.n,
                              "omega": args.omega, "r": args.r, "q": args.q})


def cmd_graph_check(args) -> None:
    g = Graph.from_json(_load_json(args.infile))
    cliques = enumerate_maximum_cliques(g)
    report = check_conditions(g, cliques)
    _emit(args, {
        "G0": report.covers_all_vertices,
        "G1": report.pairs_distinguishable,
        "G2": report.general_position_dim,
        "omega": cliques.omega,
        "clique_count": cliques.count,
    }, {"in": args.infile})


def cmd_relation_build(args) -> None:
    _emit(args, _instance(args.infile)[2].array_json(), {"in": args.infile})


def cmd_relation_infer(args) -> None:
    rel = Relation.from_json(_load_json(args.infile))
    g, classes = infer_graph(rel, rel.n, rel.omega)
    payload = g.to_json()
    payload["classes"] = [[list(slot) for slot in cls] for cls in classes]
    _emit(args, payload, {"in": args.infile})


def cmd_ccr(args) -> None:
    strategy = ccr_protocol(*_instance(args.infile))
    # ccr and sccr read no --m; their provenance records m = 0
    _emit(args, {"ccr_messages": strategy.m, "strategy": strategy.to_json()},
          {"in": args.infile, "m": 0})


def cmd_sccr(args) -> None:
    g, cliques, rel = _instance(args.infile)
    strategy = sccr_protocol(g, cliques, rel)
    report = table_payoff(strategy.table(rel.n, rel.omega), rel)
    _emit(args, {
        "sccr_messages": strategy.m,
        "payoff": float(report.value),
        "strategy": strategy.to_json(),
    }, {"in": args.infile, "m": 0})


def cmd_lowerbound(args) -> None:
    _emit(args, {
        "m": args.m,
        "no_protocol_with_m_messages": verify_classical_lower_bound(
            *_instance(args.infile), args.m
        ),
    }, {"in": args.infile, "m": args.m})


def _rsp_angles(text: str) -> tuple[float, ...]:
    try:
        angles = tuple(float(t) for t in text.split(","))
    except ValueError:
        angles = ()
    if not angles or not all(map(math.isfinite, angles)):
        raise InvalidParamsError(f"--angles {text!r} is not a list of finite numbers")
    return angles


def _mub_bases(data) -> tuple[list, int]:
    """The bases of a mub file as d x d complex matrices with column
    vectors, and d.  The file stores each basis as d vectors of d
    [re, im] pairs."""
    try:
        d, bases = int(data["d"]), list(data["bases"])
    except (TypeError, ValueError, OverflowError):
        raise InvalidParamsError("a mub file holds an integer d and a list of bases") from None
    mats = []
    for basis in bases:
        try:
            pairs = np.asarray(basis)
        except ValueError:  # ragged nesting
            pairs = np.empty(0)
        if (pairs.shape != (d, d, 2) or pairs.dtype.kind not in "iuf"
                or not np.isfinite(pairs).all()):
            raise InvalidParamsError(f"each basis must be {d} vectors of {d} finite [re, im] pairs")
        mats.append(pairs.astype(float).view(complex)[..., 0].T)
    return mats, d


def cmd_quantum_table(args) -> None:
    g, cliques, rel = _instance(args.infile)
    rep = build_representation(g, cliques, args.d or None, seed=args.seed)
    table = quantum_table(QuantumStrategy.create(rep, g, cliques), rel)
    _emit(args, {
        "dimension": rep.d,
        "payoff": float(table_payoff(table, rel).value),
        "table": table.to_json(),
        "representation": rep.to_json(),
    }, {"in": args.infile, "d": rep.d})


def cmd_quantum_optimize(args) -> None:
    g, cliques, _ = _instance(args.infile)
    result = optimize_payoff(g, cliques, args.d or None, restarts=args.restarts,
                             seed=args.seed)
    _emit(args, {
        "dimension": result.rep.d,
        "payoff": result.payoff,
        "lower_bound_only": True,
        "representation_payoff": representation_payoff(result.rep, g),
    }, {"in": args.infile, "d": result.rep.d})


def cmd_mub(args) -> None:
    mats, d = _mub_bases(_load_json(args.infile))
    _emit(args, {"mub": check_mub(mats, d, tol=args.tol)}, {"in": args.infile})


def cmd_rsp(args) -> None:
    if args.symmetric:
        angles = symmetric_equatorial_angles(args.n)
    else:
        angles = _rsp_angles(args.angles)
    report = rsp_payoff(angles)
    _emit(args, {"payoff": report.payoff, "duplicate": report.duplicate_pair is not None},
          {"n": args.n, "symmetric": args.symmetric})


def cmd_paley(args) -> None:
    _emit(args, paley_analyze(args.q), {"q": args.q})


def _sim_table(args):
    g, cliques, rel = _instance(args.infile)
    if args.table:
        return ProbTable.from_json(_load_json(args.table)), rel
    if args.mixture == "coverage":
        strategy = mixture_for_coverage(g, cliques, rel)
    elif args.mixture == "optimal":
        strategy = mixture_for_optimality(g, cliques, rel)
    else:
        strategy = sccr_protocol(g, cliques, rel)
    return strategy.table(rel.n, rel.omega), rel


def cmd_simulate_run(args) -> None:
    table, _ = _sim_table(args)
    _emit_text(args, simulate_rounds(table, args.k, args.seed).to_csv())


def cmd_simulate_success(args) -> None:
    table, rel = _sim_table(args)
    try:
        k_grid = [int(k) for k in args.k_grid.split(",")]
    except ValueError:
        raise InvalidParamsError(f"--k-grid {args.k_grid!r} is not a list of integers") from None
    rows = payoff_vs_rounds_report(table, rel, k_grid)
    mc_rows = None
    if args.trials:
        mc_rows = [mc_success_rate(table, rel, k, args.trials, args.seed)
                   for k in k_grid]
    _emit_text(args, success_curve_csv(rows, mc_rows))


def build_parser() -> argparse.ArgumentParser:
    """One subparser per action, holding only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="cliquecomm",
        description="clique-labelling communication games: graphs, relations, protocols",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    # the same globals are accepted after the action; SUPPRESS keeps an
    # omitted flag from clobbering a value given before the command
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return commands.add_parser(name, help=summary).add_subparsers(dest="action", required=True)

    def action(actions, name, func, infile=None):
        """An action's parser; infile None adds no --in, else whether it is required."""
        # no abbreviations: simulate success would take --k for --k-grid
        p = actions.add_parser(name, parents=[common], allow_abbrev=False)
        p.set_defaults(func=func, action_parser=p)
        if infile is not None:
            p.add_argument("--in", dest="infile", metavar="FILE", required=infile)
        return p

    graph = command("graph", "generate or check graphs")
    p = action(graph, "gen", cmd_graph_gen)
    p.add_argument("--family", choices=["disconnected", "nncc", "paley"], required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--omega", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--q", type=int, default=5)
    action(graph, "check", cmd_graph_check, infile=False)

    relation = command("relation", "build or invert relations")
    action(relation, "build", cmd_relation_build, infile=True)
    action(relation, "infer", cmd_relation_infer, infile=True)

    complexity = command("complexity", "classical protocol analysis")
    action(complexity, "ccr", cmd_ccr, infile=True)
    action(complexity, "sccr", cmd_sccr, infile=True)
    action(complexity, "lowerbound", cmd_lowerbound, infile=True).add_argument(
        "--m", type=int, default=0)

    quantum = command("quantum", "quantum strategies and analyses")
    table = action(quantum, "table", cmd_quantum_table, infile=False)
    optimize = action(quantum, "optimize", cmd_quantum_optimize, infile=False)
    for p in (table, optimize):
        p.add_argument("--d", type=int, default=0)
    optimize.add_argument("--restarts", type=int, default=32)
    action(quantum, "mub", cmd_mub, infile=False).add_argument(
        "--tol", type=float, default=1e-9, help="overlap tolerance")
    p = action(quantum, "rsp", cmd_rsp)
    p.add_argument("--n", type=int, default=4)
    angles = p.add_mutually_exclusive_group(required=True)
    angles.add_argument("--symmetric", action="store_true")
    angles.add_argument("--angles")

    action(command("paley", "Paley graph analysis"), "analyze", cmd_paley).add_argument(
        "--q", type=int, required=True)

    simulate = command("simulate", "round simulation and success curves")
    run = action(simulate, "run", cmd_simulate_run, infile=True)
    success = action(simulate, "success", cmd_simulate_success, infile=True)
    for p in (run, success):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--table", help="table JSON (default: sccr table)")
        source.add_argument("--mixture", choices=["coverage", "optimal"])
    run.add_argument("--k", type=int, default=100)
    success.add_argument("--k-grid", default="50,200,1000")
    success.add_argument("--trials", type=int, default=0)
    return parser


# (exception types, exit code, message prefix), matched in order; exit 0 is
# success and argparse exits 2 on a malformed command line
FAILURES = (
    ((InvalidParamsError, OSError, KeyError), 2, "error"),
    (InconsistentRelationError, 3, "inconsistent"),
    (CapExceededError, 4, "cap exceeded"),
    (SearchExhaustedError, 5, "search exhausted"),
    (ConditionsNotMetError, 6, "conditions not met"),
    (EmptyGraphError, 7, "empty graph"),
    (ConstructionFailedError, 8, "construction failed"),
    (UnverifiedRepresentationError, 9, "unverified representation"),
    ((json.JSONDecodeError, UnicodeDecodeError), 10, "malformed JSON"),
    (CliquecommError, 11, "error"),
)


def main(argv=None) -> int:
    parser = build_parser()
    # nested parsers hand an unknown argument up to the root, whose usage
    # line lists no action flags: report it with the action's own
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.action_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # an optional --in (graph check, quantum table|optimize|mub) left out
        # is a parameter error
        if getattr(args, "infile", "") is None:
            raise InvalidParamsError(f"{args.command} {args.action} needs --in")
        args.func(args)
    except (CliquecommError, OSError, KeyError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        for types, code, label in FAILURES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
