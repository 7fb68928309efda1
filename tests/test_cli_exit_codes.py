"""One test per documented CLI exit code: a message on stderr, no traceback."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cliquecomm import (
    CliquecommError,
    OrthogonalRepresentation,
    cli,
    gen_disconnected,
    gen_nncc,
    gen_paley,
)
from cliquecomm.cli import main

C4 = {"order": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_missing_file_exits_2(tmp_path, capsys):
    code, err = run(capsys, "graph", "check", "--in", str(tmp_path / "absent.json"))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["graph", "check", "--in", "."],
    ["graph", "gen", "--family", "paley", "--q", "13", "--out", "."],
])
def test_directory_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: [Errno 21] Is a directory")


@pytest.mark.parametrize("tuples", [
    [[1, 0, 1], [1, 1, 1], [2, 0, 2], [2, 1, 2]],
    [1, 0, 1, 0],
    [[1, 0, 1, 0], [1, 1]],
    [[1.7, 0, 1, 0]],
    5,
])
def test_malformed_relation_tuples_exit_2(tmp_path, capsys, tuples):
    rel = write(tmp_path, "rel.json", {"n": 2, "omega": 2, "tuples": tuples})
    code, err = run(capsys, "relation", "infer", "--in", rel)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("data", [
    [1, 2],
    "str",
    {"n": "x", "omega": 2, "tuples": []},
    {"n": None, "omega": 2, "tuples": []},
    {"n": -1, "omega": 2, "tuples": []},
    {"n": float("inf"), "omega": 2, "tuples": []},
    {"n": 0, "omega": 2, "tuples": []},
    {"n": 2, "omega": 0, "tuples": []},
])
def test_malformed_relation_file_exits_2(tmp_path, capsys, data):
    rel = write(tmp_path, "rel.json", json.dumps(data))
    code, err = run(capsys, "relation", "infer", "--in", rel)
    assert code == 2 and err.startswith("error: malformed relation:")


@pytest.mark.parametrize("name, graph, args", [
    ("chain5.json", gen_nncc(2, 3, 1), []),
    ("p13.json", gen_paley(13), ["--d", "7"]),
])
def test_negative_restarts_exit_2(tmp_path, capsys, name, graph, args):
    g = write(tmp_path, name, graph.to_json())
    code, err = run(capsys, "quantum", "optimize", "--in", g, "--restarts", "-3", *args)
    assert code == 2 and err == "error: restarts=-3 is negative\n"


def test_graph_check_without_input_exits_2(capsys):
    code, err = run(capsys, "graph", "check")
    assert code == 2 and err.startswith("error:")


def test_partial_relation_exits_3(tmp_path, capsys):
    rel = write(tmp_path, "rel.json", {"n": 2, "omega": 2, "tuples": [[1, 0, 1, 0]]})
    code, err = run(capsys, "relation", "infer", "--in", rel)
    assert code == 3 and err.startswith("inconsistent:")


def test_node_cap_exits_4(tmp_path, capsys):
    # the optimal mixture's combination search passes its cap on six disjoint edges
    g = write(tmp_path, "d62.json", gen_disconnected(6, 2).to_json())
    code, err = run(capsys, "simulate", "success", "--in", g, "--mixture", "optimal")
    assert code == 4 and err.startswith("cap exceeded:")


@pytest.mark.parametrize("table", [
    '{"kind": "float", "n": 1, "omega": 2, "entries": [[NaN, NaN], [NaN, NaN]]}',
    {"kind": "float", "n": 1, "omega": 2, "entries": [[1.0, 0.0], [0.0]]},
    {"kind": "exact", "n": 1, "omega": 2, "entries": [["x", "0"], ["0", "1"]]},
    {"kind": "exact", "n": 1, "omega": 2, "entries": [["1/0", "0"], ["0", "1"]]},
    {"kind": "exact", "n": "a", "omega": 2, "entries": [["1", "0"], ["0", "1"]]},
    {"kind": "exact", "n": 1, "omega": 2, "entries": 5},
    {"kind": "exact", "n": float("inf"), "omega": 2, "entries": [["1", "0"], ["0", "1"]]},
    [1, 2],
])
def test_malformed_table_file_exits_2(tmp_path, capsys, table):
    g = write(tmp_path, "d12.json", gen_disconnected(1, 2).to_json())
    code, err = run(capsys, "simulate", "success", "--in", g,
                    "--table", write(tmp_path, "table.json", table))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("graph", [
    {"order": "x", "edges": []},
    {"order": 3, "edges": [[1, 2, 3]]},
    {"order": 3, "edges": [[1, "b"]]},
    {"order": 3, "edges": [5]},
    {"order": 3, "edges": 5},
    {"order": float("inf"), "edges": []},
    [1, 2],
])
def test_malformed_graph_file_exits_2(tmp_path, capsys, graph):
    code, err = run(capsys, "graph", "check", "--in", write(tmp_path, "g.json", graph))
    assert code == 2 and err.startswith("error: malformed graph:")


@pytest.mark.parametrize("args, message", [
    (["--k-grid", "-5"], "k must be nonnegative"),
    (["--k-grid", "5,x"], "is not a list of integers"),
    (["--trials", "-3"], "trials must be positive"),
])
def test_bad_success_arguments_exit_2(tmp_path, capsys, args, message):
    g = write(tmp_path, "d12.json", gen_disconnected(1, 2).to_json())
    code, err = run(capsys, "simulate", "success", "--in", g, *args)
    assert code == 2 and err.startswith("error:") and message in err


@pytest.mark.parametrize("angles", ["1,x", "", "0.5,,1", "1,nan", "inf"])
def test_bad_rsp_angles_exit_2(capsys, angles):
    code, err = run(capsys, "quantum", "rsp", "--angles", angles)
    assert code == 2 and err.startswith("error:") and "is not a list of finite numbers" in err


@pytest.mark.parametrize("data, message", [
    ({"d": 2, "bases": [[[1, 0], [0, 1]]]}, "each basis must be 2 vectors"),  # no [re, im]
    ({"d": 2, "bases": [[[[1, 0], [0, 0]], [[0, 0], [1]]]]}, "each basis must be 2 vectors"),
    ({"d": 2, "bases": [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]]}, "each basis must be 2"),
    ('{"d": 2, "bases": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]]}', "finite [re, im] pairs"),
    ({"d": 3, "bases": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "each basis must be 3 vectors"),
    ({"d": "x", "bases": []}, "holds an integer d and a list of bases"),
    ('{"d": Infinity, "bases": []}', "holds an integer d and a list of bases"),
    ({"d": 2, "bases": 5}, "holds an integer d and a list of bases"),
    ([1, 2], "holds an integer d and a list of bases"),
    ({"bases": []}, "'d'"),
])
def test_malformed_mub_file_exits_2(tmp_path, capsys, data, message):
    code, err = run(capsys, "quantum", "mub", "--in", write(tmp_path, "bases.json", data))
    assert code == 2 and err.startswith("error:") and message in err


@pytest.mark.parametrize("action", ["mub", "table", "optimize"])
def test_quantum_file_commands_without_input_exit_2(capsys, action):
    code, err = run(capsys, "quantum", action)
    assert code == 2 and err == f"error: quantum {action} needs --in\n"


def test_unmet_conditions_exit_6(tmp_path, capsys):
    # opposite corners of the 4-cycle share their neighbourhood
    code, err = run(capsys, "complexity", "sccr", "--in", write(tmp_path, "c4.json", C4))
    assert code == 6 and err.startswith("conditions not met:")


def test_empty_graph_exits_7(tmp_path, capsys):
    g = write(tmp_path, "empty.json", {"order": 0, "edges": []})
    code, err = run(capsys, "graph", "check", "--in", g)
    assert code == 7 and err.startswith("empty graph:")


def test_failed_construction_exits_8(tmp_path, capsys):
    # in dimension 2 opposite corners of the 4-cycle would need equal vectors
    code, err = run(capsys, "quantum", "table", "--in", write(tmp_path, "c4.json", C4),
                    "--d", "2")
    assert code == 8 and err.startswith("construction failed:")


def test_unverified_representation_exits_9(tmp_path, capsys, monkeypatch):
    g = write(tmp_path, "g.json", {"order": 2, "edges": [[1, 2]]})
    parallel = OrthogonalRepresentation(np.array([[1, 0j], [1, 0j]]))
    monkeypatch.setattr(cli, "build_representation", lambda *args, **kwargs: parallel)
    code, err = run(capsys, "quantum", "table", "--in", g)
    assert code == 9 and err.startswith("unverified representation:")


def test_malformed_json_exits_10(tmp_path, capsys):
    code, err = run(capsys, "relation", "infer", "--in", write(tmp_path, "bad.json", "{not json"))
    assert code == 10 and err.startswith("malformed JSON:")


def test_json_file_that_is_not_utf8_exits_10(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": "\xff"}')
    code, err = run(capsys, "graph", "check", "--in", str(path))
    assert code == 10 and err.startswith("malformed JSON: 'utf-8' codec can't decode")


def test_other_package_error_exits_11(capsys, monkeypatch):
    def fail(q):
        raise CliquecommError("unclassified failure")

    monkeypatch.setattr(cli, "paley_analyze", fail)
    code, err = run(capsys, "paley", "analyze", "--q", "5")
    assert code == 11 and err == "error: unclassified failure\n"


def test_every_code_is_distinct():
    codes = [code for _, code, _ in cli.FAILURES]
    assert len(codes) == len(set(codes)) and 0 not in codes and 1 not in codes


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("```", 1)[0]
    listed = [int(code) for code in re.findall(r"^\| (\d+) \|", section, re.M)]
    assert listed == sorted({0, 2} | {code for _, code, _ in cli.FAILURES})


@pytest.mark.parametrize("argv", [["graph", "bogus"], ["relation", "build"]])
def test_malformed_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


# the flags each action reads, besides the global --seed and --out
ACTION_FLAGS = {
    ("graph", "gen"): ["--family", "--n", "--omega", "--r", "--q"],
    ("graph", "check"): ["--in"],
    ("relation", "build"): ["--in"],
    ("relation", "infer"): ["--in"],
    ("complexity", "ccr"): ["--in"],
    ("complexity", "sccr"): ["--in"],
    ("complexity", "lowerbound"): ["--in", "--m"],
    ("quantum", "table"): ["--in", "--d"],
    ("quantum", "optimize"): ["--in", "--d", "--restarts"],
    ("quantum", "mub"): ["--in", "--tol"],
    ("quantum", "rsp"): ["--n", "--symmetric", "--angles"],
    ("paley", "analyze"): ["--q"],
    ("simulate", "run"): ["--in", "--table", "--mixture", "--k"],
    ("simulate", "success"): ["--in", "--table", "--mixture", "--k-grid", "--trials"],
}
# every flag of a command, once accepted by each of its actions
COMMAND_FLAGS = {
    "graph": {"--family", "--n", "--omega", "--r", "--q", "--in"},
    "relation": {"--in"},
    "complexity": {"--in", "--m"},
    "quantum": {"--in", "--d", "--tol", "--n", "--restarts", "--symmetric", "--angles"},
    "paley": {"--q"},
    "simulate": {"--in", "--table", "--mixture", "--k", "--k-grid", "--trials"},
}
DROPPED = sorted((command, action, flag) for (command, action), flags in ACTION_FLAGS.items()
                 for flag in COMMAND_FLAGS[command] - set(flags))
VALUE = {"--in": ["g.json"], "--family": ["paley"], "--n": ["2"], "--omega": ["2"],
         "--r": ["1"], "--q": ["5"], "--m": ["3"], "--d": ["2"], "--tol": ["0.1"],
         "--restarts": ["4"], "--symmetric": [], "--angles": ["0,1"], "--k": ["10"],
         "--k-grid": ["10"], "--trials": ["10"], "--table": ["t.json"],
         "--mixture": ["optimal"]}
# flags that make each action's command line complete
REQUIRED = {("graph", "gen"): ["--family"], ("quantum", "rsp"): ["--symmetric"],
            ("paley", "analyze"): ["--q"], ("relation", "build"): ["--in"],
            ("relation", "infer"): ["--in"], ("complexity", "ccr"): ["--in"],
            ("complexity", "sccr"): ["--in"], ("complexity", "lowerbound"): ["--in"],
            ("simulate", "run"): ["--in"], ("simulate", "success"): ["--in"]}


def walk(parser):
    """(command, action) -> the flags of that action's parser, but for
    --help and the globals, walked from the nested subparsers."""
    def subparsers(p):
        return next(a for a in p._actions if isinstance(a, argparse._SubParsersAction)).choices

    return {(command, action): [flag for a in ap._actions for flag in a.option_strings
                                if flag not in ("-h", "--help", "--seed", "--out")]
            for command, cp in subparsers(parser).items()
            for action, ap in subparsers(cp).items()}


def test_each_action_parses_only_the_flags_it_reads():
    assert walk(cli.build_parser()) == ACTION_FLAGS
    assert sum(map(len, ACTION_FLAGS.values())) == 32 and len(DROPPED) == 29


def argv_of(command, action, *flags):
    return [command, action] + [t for flag in (*REQUIRED.get((command, action), []), *flags)
                                for t in [flag, *VALUE[flag]]]


@pytest.mark.parametrize("command, action", sorted(ACTION_FLAGS))
def test_globals_go_before_the_command_or_after_the_action(command, action):
    parser = cli.build_parser()
    argv = argv_of(command, action)
    for args in (parser.parse_args(["--seed", "3", "--out", "o", *argv]),
                 parser.parse_args([*argv, "--seed", "3", "--out", "o"])):
        assert (args.seed, args.out) == (3, "o")


@pytest.mark.parametrize("command, action, flag", DROPPED)
def test_flag_the_action_does_not_read_exits_2(capsys, command, action, flag):
    with pytest.raises(SystemExit) as info:
        main(argv_of(command, action, flag))
    assert info.value.code == 2
    err = capsys.readouterr().err
    # reported with the action's own usage line, not the root parser's
    assert err.startswith(f"usage: cliquecomm {command} {action} ")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command, action, flags", [
    ("simulate", "run", ["--table", "--mixture"]),
    ("simulate", "success", ["--table", "--mixture"]),
    ("quantum", "rsp", ["--angles"]),  # --symmetric is given as the required flag
])
def test_exclusive_flags_together_exit_2(capsys, command, action, flags):
    with pytest.raises(SystemExit) as info:
        main(argv_of(command, action, *flags))
    assert info.value.code == 2 and "not allowed with argument" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+) (\w+)` \| (.*) \|$", section, re.M)
    listed = {(command, action): re.findall(r"`(--[\w-]+)", flags)
              for command, action, flags in rows}
    assert listed == walk(cli.build_parser())
