import json
import math

import numpy as np
import pytest

from cliquecomm import Graph, build_relation, enumerate_maximum_cliques, gen_disconnected
from cliquecomm.cli import dumps_canonical, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_gen_disconnected(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _ = run_cli(capsys, "graph", "gen", "--family", "disconnected",
                      "--n", "2", "--omega", "3", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["order"] == 6 and len(data["edges"]) == 6


def test_graph_gen_paley_and_check(tmp_path, capsys):
    out = tmp_path / "p13.json"
    code, _ = run_cli(capsys, "graph", "gen", "--family", "paley", "--q", "13",
                      "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["order"] == 13
    code, text = run_cli(capsys, "graph", "check", "--in", str(out))
    assert code == 0
    report = json.loads(text)
    assert report["G0"] and report["G1"] and report["G2"] == 7


def test_graph_check_reports_g2_past_the_library_cap(tmp_path, capsys):
    # G2 past 16 vertices, where check_conditions once left it out
    out = tmp_path / "p17.json"
    run_cli(capsys, "graph", "gen", "--family", "paley", "--q", "17", "--out", str(out))
    code, text = run_cli(capsys, "graph", "check", "--in", str(out))
    assert code == 0 and json.loads(text)["G2"] == 9


def chain5_file(tmp_path, capsys):
    out = tmp_path / "chain5.json"
    code, _ = run_cli(capsys, "graph", "gen", "--family", "nncc",
                      "--n", "2", "--omega", "3", "--r", "1", "--out", str(out))
    assert code == 0
    return str(out)


def test_relation_build_and_infer(tmp_path, capsys):
    gpath = chain5_file(tmp_path, capsys)
    rel_out = tmp_path / "rel.json"
    code, _ = run_cli(capsys, "relation", "build", "--in", gpath,
                      "--out", str(rel_out))
    assert code == 0
    rel = json.loads(rel_out.read_text())
    assert rel["n"] == 2 and rel["omega"] == 3 and len(rel["tuples"]) == 16
    code, text = run_cli(capsys, "relation", "infer", "--in", str(rel_out))
    assert code == 0
    recovered = json.loads(text)
    assert recovered["order"] == 5 and len(recovered["edges"]) == 6


def test_complexity_commands(tmp_path, capsys):
    gpath = chain5_file(tmp_path, capsys)
    code, text = run_cli(capsys, "complexity", "ccr", "--in", gpath)
    assert code == 0 and json.loads(text)["ccr_messages"] == 3
    code, text = run_cli(capsys, "complexity", "sccr", "--in", gpath)
    data = json.loads(text)
    assert code == 0 and data["sccr_messages"] == 5 and data["payoff"] == 0.5
    code, text = run_cli(capsys, "complexity", "lowerbound", "--in", gpath,
                         "--m", "4")
    assert code == 0 and json.loads(text)["no_protocol_with_m_messages"] is True


def test_lowerbound_past_the_recursion_limit(tmp_path, capsys):
    # 1 200 slots, each its own admissible-output row
    gpath = tmp_path / "d600.json"
    gpath.write_text(json.dumps(gen_disconnected(600, 2).to_json()))
    for m, expected in (("1200", "false"), ("1199", "true")):
        code, text = run_cli(capsys, "complexity", "lowerbound", "--in", str(gpath), "--m", m)
        assert code == 0 and f'"no_protocol_with_m_messages":{expected}' in text


def test_quantum_paley_command(capsys):
    code, text = run_cli(capsys, "paley", "analyze", "--q", "13")
    assert code == 0
    data = json.loads(text)
    assert data["rank"] == 7
    assert data["payoff"] == pytest.approx((2 / (math.sqrt(13) + 1)) ** 2)


def test_quantum_rsp_command(capsys):
    code, text = run_cli(capsys, "quantum", "rsp", "--n", "4", "--symmetric")
    assert code == 0
    assert json.loads(text)["payoff"] == pytest.approx(math.sin(math.pi / 8) ** 2)


def test_quantum_mub_command(tmp_path, capsys):
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    y = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    payload = {
        "d": 2,
        "bases": [
            [[[v.real, v.imag] for v in basis[:, i]] for i in range(2)]
            for basis in (z, x, y)
        ],
    }
    path = tmp_path / "bases.json"
    path.write_text(json.dumps(payload))
    code, text = run_cli(capsys, "quantum", "mub", "--in", str(path))
    assert code == 0 and json.loads(text)["mub"] is True


def test_quantum_mub_tol_flag_takes_effect(tmp_path, capsys):
    # Z and a basis tilted 0.01 rad off X: cross overlaps miss 1/2 by about 0.01
    t = math.pi / 4 + 0.01
    tilted = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    payload = {
        "d": 2,
        "bases": [
            [[[v, 0.0] for v in basis[:, i]] for i in range(2)]
            for basis in (np.eye(2), tilted)
        ],
    }
    path = tmp_path / "bases.json"
    path.write_text(json.dumps(payload))
    code, text = run_cli(capsys, "quantum", "mub", "--in", str(path))
    assert code == 0 and json.loads(text)["mub"] is False
    code, text = run_cli(capsys, "quantum", "mub", "--in", str(path), "--tol", "0.05")
    assert code == 0 and json.loads(text)["mub"] is True


def test_moved_flags_are_not_global(capsys):
    # --tol belongs to quantum; --cap is gone from every position
    for argv in (["--tol", "1", "paley", "analyze", "--q", "5"],
                 ["--cap", "1", "complexity", "lowerbound", "--in", "g.json"],
                 ["complexity", "lowerbound", "--in", "g.json", "--cap", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["quantum", "paley", "--q", "5"])
    capsys.readouterr()


def test_quantum_table_command(tmp_path, capsys):
    gpath = chain5_file(tmp_path, capsys)
    code, text = run_cli(capsys, "quantum", "table", "--in", gpath)
    assert code == 0
    data = json.loads(text)
    assert data["dimension"] == 3 and data["payoff"] > 0


def test_simulate_run_and_success(tmp_path, capsys):
    gpath = chain5_file(tmp_path, capsys)
    code, text = run_cli(capsys, "simulate", "run", "--in", gpath, "--k", "5",
                         "--seed", "3")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "round,x,a,y,b" and len(lines) == 6
    code, text = run_cli(capsys, "simulate", "success", "--in", gpath,
                         "--mixture", "optimal", "--k-grid", "50,200",
                         "--trials", "500", "--seed", "3")
    assert code == 0
    assert text.splitlines()[0] == "k,P_exact,P_mc,stderr"


def test_simulate_coverage_mixture_past_the_single_clique_variants(tmp_path, capsys):
    # the variants miss part of this chain's relation; the mixture of every
    # consistent strategy covers it, and the run log stays on the relation
    out = tmp_path / "nncc341.json"
    run_cli(capsys, "graph", "gen", "--family", "nncc", "--n", "3", "--omega", "4",
            "--r", "1", "--out", str(out))
    code, text = run_cli(capsys, "simulate", "run", "--in", str(out),
                         "--mixture", "coverage", "--k", "400", "--seed", "3")
    assert code == 0
    g = Graph.from_json(json.loads(out.read_text()))
    rel = build_relation(g, enumerate_maximum_cliques(g))
    rounds = {tuple(map(int, line.split(",")[1:])) for line in text.splitlines()[1:]}
    assert len(rounds) > 1 and rounds <= set(rel.tuples)
    # the exact success curve of its 82 tuples agrees with Monte Carlo
    code, text = run_cli(capsys, "simulate", "success", "--in", str(out), "--mixture",
                         "coverage", "--k-grid", "500", "--trials", "200", "--seed", "3")
    assert code == 0
    k, exact, rate, _ = map(float, text.splitlines()[1].split(","))
    assert k == 500 and 0 < exact < 1
    assert abs(rate - exact) <= 3 * math.sqrt(exact * (1 - exact) / 200)


def test_byte_identical_reruns(capsys):
    _, a = run_cli(capsys, "paley", "analyze", "--q", "17")
    _, b = run_cli(capsys, "paley", "analyze", "--q", "17")
    assert a == b


def test_quantum_optimize_command(tmp_path, capsys):
    out = tmp_path / "d22.json"
    run_cli(capsys, "graph", "gen", "--family", "disconnected",
            "--n", "2", "--omega", "2", "--out", str(out))
    code, text = run_cli(capsys, "quantum", "optimize", "--in", str(out),
                         "--restarts", "2")
    assert code == 0
    data = json.loads(text)
    assert data["dimension"] == 2 and data["lower_bound_only"] is True
    assert data["payoff"] == pytest.approx(0.5, abs=1e-6)


def test_exit_codes(tmp_path, capsys):
    code, _ = run_cli(capsys, "graph", "gen", "--family", "paley", "--q", "9")
    assert code == 2
    # the optimal mixture's combination search gives up on six disjoint edges
    d62 = tmp_path / "d62.json"
    run_cli(capsys, "graph", "gen", "--family", "disconnected", "--n", "6", "--omega", "2",
            "--out", str(d62))
    code, _ = run_cli(capsys, "simulate", "success", "--in", str(d62), "--mixture", "optimal")
    assert code == 4
    # a relation violating diagonal determinism is a model inconsistency
    bad = tmp_path / "bad_rel.json"
    bad.write_text(json.dumps({
        "schema_version": 1, "n": 1, "omega": 2,
        "tuples": [[1, 0, 1, 0], [1, 0, 1, 1], [1, 1, 1, 1]],
    }))
    code, _ = run_cli(capsys, "relation", "infer", "--in", str(bad))
    assert code == 3


def test_canonical_float_formatting():
    text = dumps_canonical({"x": 1 / 3, "flag": True, "items": [1.0, None]})
    assert text == '{"flag":true,"items":[1,null],"x":0.33333333333333331}'
