"""What one CLI process pays before and after its command: the imports it
loads and the canonical JSON and CSV it writes.

`dumps_canonical` (the C encoder, then floats rewritten at 17 significant
digits, and 2-D integer arrays rendered by `int_rows_text`) is compared
with the recursive writer in `tests/loop_oracles.py` on nested values from
derandomized hypothesis, and `RunLog.to_csv` with the csv.writer loop
there.
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
from hypothesis.extra import numpy as hnp

import cliquecomm
import loop_oracles as oracle
from cliquecomm import RunLog
from cliquecomm.cli import dumps_canonical
from cliquecomm.relation import ROW_BLOCK
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
    hnp.arrays(st.sampled_from([np.int8, np.uint8, np.int32, np.int64, np.uint64]),
               hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5)),
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


# int64 extremes, negatives, zero rows and columns, and more rows than one
# rendering block
INT_ARRAYS = [
    np.array([[0, -1, 10, -10], [99, 100, -(2**63), 2**63 - 1]]),
    np.array([[2**64 - 1, 0, 7]], dtype=np.uint64),
    np.array([[-128, 127, 0]], dtype=np.int8),
    np.empty((0, 4), dtype=np.int64),
    np.empty((3, 0), dtype=np.int64),
    np.random.default_rng(5).integers(-10**12, 10**12, (ROW_BLOCK + 7, 4)),
]


@pytest.mark.parametrize("arr", INT_ARRAYS)
def test_int_arrays_write_as_their_lists(arr):
    assert dumps_canonical({"t": arr, "x": 0.5}) == dumps_canonical({"t": arr.tolist(), "x": 0.5})
    assert dumps_canonical(arr) == oracle._fmt(arr.tolist())


@pytest.mark.parametrize("arr", [a for a in INT_ARRAYS if a.shape[1] == 4])
def test_run_log_csv_matches_the_csv_writer(arr):
    log = RunLog.from_array(arr.astype(np.int64), seed=0)
    assert log.to_csv() == oracle.run_log_csv(arr.tolist())


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, {"a": [np.int64(1)]}, [{"x"}],
                                   np.arange(3), np.zeros((2, 2)), np.ones((2, 2), dtype=bool)])
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
