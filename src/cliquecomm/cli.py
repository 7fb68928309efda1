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
import re
import sys

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
    CliqueSet,
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
from .relation import Relation, build_relation, infer_graph
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
    as inf, -inf and nan.  Values other than dicts, lists, tuples, str,
    int, float, bool and None raise TypeError.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    # string literals land at the odd indices; a stretch between them
    # without '.', 'e', 'E', 'I' or 'N' holds no float and is kept as is
    parts = _STRING.split(text)
    for i in range(0, len(parts), 2):
        if any(c in parts[i] for c in ".eEIN"):
            parts[i] = _FLOAT.sub(_float17, parts[i])
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


def _graph_from_args(args) -> Graph:
    if getattr(args, "infile", None):
        return Graph.from_json(_load_json(args.infile))
    fam = args.family
    if fam == "disconnected":
        return gen_disconnected(args.n, args.omega)
    if fam == "nncc":
        return gen_nncc(args.n, args.omega, args.r)
    if fam == "paley":
        return gen_paley(args.q)
    raise InvalidParamsError(f"unknown family {fam!r}")


def cmd_graph(args) -> None:
    if args.action == "gen":
        g = _graph_from_args(args)
        _emit(args, g.to_json(), {"family": args.family, "n": args.n,
                                  "omega": args.omega, "r": args.r, "q": args.q})
        return
    if not args.infile:
        raise InvalidParamsError("graph check needs --in")
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


def cmd_relation(args) -> None:
    if args.action == "build":
        g = Graph.from_json(_load_json(args.infile))
        cliques = enumerate_maximum_cliques(g)
        rel = build_relation(g, cliques)
        _emit(args, rel.to_json(), {"in": args.infile})
        return
    rel = Relation.from_json(_load_json(args.infile))
    g, classes = infer_graph(rel, rel.n, rel.omega)
    payload = g.to_json()
    payload["classes"] = [[list(slot) for slot in cls] for cls in classes]
    _emit(args, payload, {"in": args.infile})


def cmd_complexity(args) -> None:
    g = Graph.from_json(_load_json(args.infile))
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    if args.action == "ccr":
        strategy = ccr_protocol(g, cliques, rel)
        payload = {"ccr_messages": strategy.m, "strategy": strategy.to_json()}
    elif args.action == "sccr":
        strategy = sccr_protocol(g, cliques, rel)
        report = table_payoff(strategy.table(rel.n, rel.omega), rel)
        payload = {
            "sccr_messages": strategy.m,
            "payoff": float(report.value),
            "strategy": strategy.to_json(),
        }
    else:
        payload = {
            "m": args.m,
            "no_protocol_with_m_messages": verify_classical_lower_bound(
                g, cliques, rel, args.m
            ),
        }
    _emit(args, payload, {"in": args.infile, "m": args.m})


def cmd_quantum(args) -> None:
    if args.action == "rsp":
        if args.symmetric:
            angles = symmetric_equatorial_angles(args.n)
        else:
            angles = tuple(float(t) for t in args.angles.split(","))
        report = rsp_payoff(angles)
        _emit(args, {"payoff": report.payoff,
                     "duplicate": report.duplicate_pair is not None},
              {"n": args.n, "symmetric": args.symmetric})
        return
    if args.action == "mub":
        data = _load_json(args.infile)
        bases = [
            [[complex(re, im) for re, im in row] for row in basis]
            for basis in data["bases"]
        ]
        import numpy as np

        mats = [np.array(b).T for b in bases]  # stored as rows of vectors
        _emit(args, {"mub": check_mub(mats, int(data["d"]), tol=args.tol)},
              {"in": args.infile})
        return
    g = Graph.from_json(_load_json(args.infile))
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    if args.action == "table":
        rep = build_representation(g, cliques, args.d or None, seed=args.seed)
        strategy = QuantumStrategy.create(rep, g, cliques)
        table = quantum_table(strategy, rel)
        report = table_payoff(table, rel)
        payload = {
            "dimension": rep.d,
            "payoff": float(report.value),
            "table": table.to_json(),
            "representation": rep.to_json(),
        }
    else:  # optimize
        result = optimize_payoff(g, cliques, args.d or None, restarts=args.restarts,
                                 seed=args.seed)
        rep = result.rep
        payload = {
            "dimension": rep.d,
            "payoff": result.payoff,
            "lower_bound_only": result.is_lower_bound,
            "representation_payoff": representation_payoff(rep, g),
        }
    _emit(args, payload, {"in": args.infile, "d": rep.d})


def cmd_simulate(args) -> None:
    g = Graph.from_json(_load_json(args.infile))
    cliques = enumerate_maximum_cliques(g)
    rel = build_relation(g, cliques)
    if args.table:
        table = ProbTable.from_json(_load_json(args.table))
    elif args.mixture == "coverage":
        table = mixture_for_coverage(g, cliques, rel).table(rel.n, rel.omega)
    elif args.mixture == "optimal":
        table = mixture_for_optimality(g, cliques, rel).table(rel.n, rel.omega)
    else:
        table = sccr_protocol(g, cliques, rel).table(rel.n, rel.omega)
    if args.action == "run":
        log = simulate_rounds(table, args.k, args.seed)
        _emit_text(args, log.to_csv())
        return
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
    parser = argparse.ArgumentParser(
        prog="cliquecomm",
        description="clique-labelling communication games: graphs, relations, protocols",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    # the same globals are accepted after the subcommand; SUPPRESS keeps an
    # omitted flag from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="generate or check graphs", parents=[common])
    p_graph.add_argument("action", choices=["gen", "check"])
    p_graph.add_argument("--family", choices=["disconnected", "nncc", "paley"])
    p_graph.add_argument("--n", type=int, default=2)
    p_graph.add_argument("--omega", type=int, default=2)
    p_graph.add_argument("--r", type=int, default=1)
    p_graph.add_argument("--q", type=int, default=5)
    p_graph.add_argument("--in", dest="infile")
    p_graph.set_defaults(func=cmd_graph)

    p_rel = sub.add_parser("relation", parents=[common], help="build or invert relations")
    p_rel.add_argument("action", choices=["build", "infer"])
    p_rel.add_argument("--in", dest="infile", required=True)
    p_rel.set_defaults(func=cmd_relation)

    p_cx = sub.add_parser("complexity", parents=[common], help="classical protocol analysis")
    p_cx.add_argument("action", choices=["ccr", "sccr", "lowerbound"])
    p_cx.add_argument("--in", dest="infile", required=True)
    p_cx.add_argument("--m", type=int, default=0)
    p_cx.set_defaults(func=cmd_complexity)

    p_q = sub.add_parser("quantum", parents=[common], help="quantum strategies and analyses")
    p_q.add_argument("action", choices=["table", "optimize", "mub", "rsp"])
    p_q.add_argument("--in", dest="infile")
    p_q.add_argument("--d", type=int, default=0)
    p_q.add_argument("--tol", type=float, default=1e-9, help="overlap tolerance of mub")
    p_q.add_argument("--n", type=int, default=4)
    p_q.add_argument("--restarts", type=int, default=32)
    p_q.add_argument("--symmetric", action="store_true")
    p_q.add_argument("--angles", default="")
    p_q.set_defaults(func=cmd_quantum)

    p_paley = sub.add_parser("paley", parents=[common], help="Paley graph analysis")
    p_paley.add_argument("action", choices=["analyze"])
    p_paley.add_argument("--q", type=int, required=True)
    p_paley.set_defaults(func=lambda args: _emit(args, paley_analyze(args.q),
                                                 {"q": args.q}))

    p_sim = sub.add_parser("simulate", parents=[common], help="round simulation and success curves")
    p_sim.add_argument("action", choices=["run", "success"])
    p_sim.add_argument("--in", dest="infile", required=True)
    p_sim.add_argument("--table", default=None, help="table JSON (default: sccr table)")
    p_sim.add_argument("--mixture", choices=["coverage", "optimal"], default=None)
    p_sim.add_argument("--k", type=int, default=100)
    p_sim.add_argument("--k-grid", default="50,200,1000")
    p_sim.add_argument("--trials", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


# (exception types, exit code, message prefix), matched in order; exit 0 is
# success and argparse exits 2 on a malformed command line
FAILURES = (
    ((InvalidParamsError, FileNotFoundError, KeyError), 2, "error"),
    (InconsistentRelationError, 3, "inconsistent"),
    (CapExceededError, 4, "cap exceeded"),
    (SearchExhaustedError, 5, "search exhausted"),
    (ConditionsNotMetError, 6, "conditions not met"),
    (EmptyGraphError, 7, "empty graph"),
    (ConstructionFailedError, 8, "construction failed"),
    (UnverifiedRepresentationError, 9, "unverified representation"),
    (json.JSONDecodeError, 10, "malformed JSON"),
    (CliquecommError, 11, "error"),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CliquecommError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        for types, code, label in FAILURES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
