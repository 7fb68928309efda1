"""One test per documented CLI exit code: a message on stderr, no traceback."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from cliquecomm import CliquecommError, OrthogonalRepresentation, cli, gen_disconnected
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
