"""What one CLI process pays before and after its command: the imports it
loads and the canonical JSON it writes.

`dumps_canonical` (the C encoder, then floats rewritten at 17 significant
digits) is compared with the recursive writer in `tests/loop_oracles.py`
on nested values from derandomized hypothesis.
"""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cliquecomm
import loop_oracles as oracle
from cliquecomm.cli import dumps_canonical
from test_array_core import PROPERTY

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1 / 3]

# digits, dots, exponents, quotes and backslashes, plus any other character
texts = st.text(st.one_of(st.sampled_from('0123456789.eE+-"\\:,[]{} Infinity NaN'),
                          st.characters()), max_size=12)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    texts,
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=24,
)


@PROPERTY
@given(values)
@example({"floats": SPECIAL_FLOATS, "-0.0": [-0.0, (5e-324,)],
          "keys \"1.5e3\" \\ é☃": {"x": "1e300 NaN -Infinity \"0.1\"", "big": 2**70},
          "flags": [True, False, None, -(2**65)]})
@example(1 / 3)
@example(math.nan)
def test_dumps_canonical_matches_recursive_writer(value):
    assert dumps_canonical(value) == oracle._fmt(value)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, {"a": [np.int64(1)]}, [{"x"}]])
def test_dumps_canonical_rejects_what_the_writer_rejects(value):
    with pytest.raises(TypeError):
        oracle._fmt(value)
    with pytest.raises(TypeError):
        dumps_canonical(value)


def run_python(script, cwd):
    src = os.path.dirname(os.path.dirname(cliquecomm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd,
                          env=env, check=True, capture_output=True, text=True).stdout


def test_cli_runs_without_networkx(tmp_path):
    run_python("""
        import sys
        sys.modules["networkx"] = None
        from cliquecomm.cli import main
        assert main(["graph", "gen", "--family", "paley", "--q", "13",
                     "--out", "p13.json"]) == 0
        assert main(["graph", "check", "--in", "p13.json", "--out", "check.json"]) == 0
        assert main(["relation", "build", "--in", "p13.json", "--out", "rel.json"]) == 0
        assert main(["quantum", "table", "--in", "p13.json", "--d", "7",
                     "--out", "table.json"]) == 0
    """, tmp_path)
    check = json.loads((tmp_path / "check.json").read_text())
    assert (check["G2"], check["omega"], check["clique_count"]) == (7, 3, 26)
    assert len(json.loads((tmp_path / "rel.json").read_text())["tuples"]) == 3276
    assert json.loads((tmp_path / "table.json").read_text())["dimension"] == 7


def test_cli_import_loads_only_stdlib_and_numpy(tmp_path):
    loaded = run_python("""
        import sys
        before = set(sys.modules)
        import cliquecomm.cli
        print(*sorted({m.split(".")[0] for m in set(sys.modules) - before}))
    """, tmp_path).split()
    assert "cliquecomm" in loaded and "numpy" in loaded
    assert set(loaded) - set(sys.stdlib_module_names) <= {"cliquecomm", "numpy"}
