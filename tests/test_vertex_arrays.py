"""Vertex-level arrays against the per-vertex and per-slot code they replace.

The closed-form representation builders fill one (order, d) matrix; the
dict builders in `loop_oracles` place one vertex at a time, and the two
must agree bit for bit.  `compress_rows` groups rows by selected vertex
with one `np.unique`; the oracle merges them slot by slot.  Random graphs
come from hypothesis (derandomized), relabelled families among them.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loop_oracles as oracle
from cliquecomm import (
    Graph,
    InvalidParamsError,
    OrthogonalRepresentation,
    ProbTable,
    QuantumStrategy,
    build_relation,
    build_representation,
    compress_rows,
    enumerate_maximum_cliques,
    gen_disconnected,
    gen_nncc,
    quantum_table,
    sccr_protocol,
)
from cliquecomm.quantum import _build_chain, _build_disconnected, _closed_form
from cliquecomm.relation import selected_vertices
from test_array_core import FAMILIES, PROPERTY, graphs, instance, same_outcome

BUILDER_FAMILIES = [name for name in FAMILIES if not name.startswith("paley")]


@st.composite
def relabelled_families(draw):
    """A disconnected or nncc graph with its vertices permuted."""
    if draw(st.booleans()):
        g = gen_disconnected(draw(st.integers(1, 4)), draw(st.integers(2, 4)))
    else:
        omega = draw(st.integers(3, 5))
        g = gen_nncc(draw(st.integers(2, 4)), omega, draw(st.integers(1, (omega - 1) // 2)))
    perm = [0] + draw(st.permutations(range(1, g.order + 1)))
    return Graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])


def check_builders(g):
    """Both builders, on whichever structure g has, at omega and above it,
    with the generic unitary (attempt 0) and with random ones."""
    cliques = enumerate_maximum_cliques(g)
    build = _closed_form(g, cliques)
    # a conference graph (the 5-cycle, say) has no loop oracle; its form is
    # checked in test_conference.py
    if build not in (_build_disconnected, _build_chain):
        return
    loop = {_build_disconnected: oracle.build_disconnected,
            _build_chain: oracle.build_chain}[build]
    for d, attempt in itertools.product((cliques.omega, cliques.omega + 2), (0, 3)):
        rep = build(g, cliques, d, attempt, np.random.default_rng((5, attempt)))
        vectors = loop(g, cliques, d, attempt, np.random.default_rng((5, attempt)))
        assert rep.vectors.shape == (g.order, d) and not rep.vectors.flags.writeable
        assert sorted(vectors) == list(g.vertices)
        want = np.array([vectors[v] for v in g.vertices])
        assert np.array_equal(rep.vectors, want)
        assert rep.vectors.tobytes() == want.tobytes()  # -0.0 and 0.0 apart


@pytest.mark.parametrize("family", BUILDER_FAMILIES)
def test_builders_match_dict_builders_on_families(family):
    check_builders(FAMILIES[family]())


@PROPERTY
@given(relabelled_families())
def test_builders_match_dict_builders_on_relabelled_families(g):
    check_builders(g)


@PROPERTY
@given(graphs(max_order=8))
def test_builders_match_dict_builders_on_random_graphs(g):
    check_builders(g)


def sccr_table(g):
    g, cliques, rel = instance(g)
    return sccr_protocol(g, cliques, rel).table(rel.n, rel.omega), cliques


def check_compress(table, g, cliques):
    same_outcome(lambda: oracle.compress_rows(table, g, cliques),
                 lambda: compress_rows(table, g, cliques))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_compress_rows_matches_slot_loop_on_families(family):
    g = FAMILIES[family]()
    table, cliques = sccr_table(g)
    check_compress(table, g, cliques)
    if family in BUILDER_FAMILIES:
        rep = build_representation(g, cliques)
        floats = quantum_table(QuantumStrategy.create(rep, g, cliques), build_relation(g, cliques))
        check_compress(floats, g, cliques)


def uniform_table(rel):
    """Each input answered uniformly over its admissible outputs: the sccr
    decoder, without the conditions sccr_protocol asks for."""
    den = math.lcm(*range(1, rel.omega + 1))
    share = den // rel.output_counts()
    num = rel.mask.reshape(-1, rel.n, rel.omega) * share[:, :, None]
    return ProbTable.from_numerators(rel.n, rel.omega, num.reshape(rel.mask.shape), den)


@PROPERTY
@given(graphs(max_order=8), st.data())
def test_compress_rows_matches_slot_loop_on_random_graphs(g, data):
    g, cliques, rel = instance(g)
    table = uniform_table(rel)
    check_compress(table, g, cliques)
    # a block of an input whose vertex other inputs select too, collapsed
    # onto one of its admissible outputs: still consistent, but unlike the
    # other rows of that vertex
    sel = selected_vertices(cliques)
    counts = rel.output_counts()
    blocks = [(r, y) for r in range(len(sel)) if (sel == sel[r]).sum() > 1
              for y in range(rel.n) if counts[r, y] > 1]
    if not blocks:
        return
    r, y = data.draw(st.sampled_from(blocks))
    cols = slice(y * rel.omega, (y + 1) * rel.omega)
    b = data.draw(st.sampled_from(np.flatnonzero(rel.mask[r, cols]).tolist()))
    num = np.array(table.num)
    num[r, cols] = 0
    num[r, y * rel.omega + b] = table.den
    check_compress(ProbTable.from_numerators(rel.n, rel.omega, num, table.den), g, cliques)


def test_compress_rows_rejects_rows_of_one_vertex_that_differ():
    # row (1, 2) and row (2, 0) both select vertex 3; on clique 3 the first
    # now answers vertex 6 alone, which is admissible but not what the
    # second does
    g = gen_nncc(3, 3, 1)
    table, cliques = sccr_table(g)
    num = np.array(table.num)
    row = table.row_index(1, 2)
    num[row, 6:9] = [0, table.den, 0]
    edited = ProbTable.from_numerators(3, 3, num, table.den)
    rel = build_relation(g, cliques)
    assert oracle.check_consistency(edited, rel)[0]
    with pytest.raises(InvalidParamsError, match="rows selecting vertex 3 differ"):
        compress_rows(edited, g, cliques)
    check_compress(edited, g, cliques)


# ---------------------------------------------------------------------------
# Representation JSON
# ---------------------------------------------------------------------------

def test_representation_json_layout():
    rep = OrthogonalRepresentation([[1, 0], [-0.0, 1j], [0.5, -0.5j]])
    assert rep.to_json() == {
        "schema_version": 1,
        "d": 2,
        "vectors": {"1": [[1.0, 0.0], [0.0, 0.0]], "2": [[-0.0, 0.0], [0.0, 1.0]],
                    "3": [[0.5, 0.0], [0.0, -0.5]]},
    }
    back = OrthogonalRepresentation.from_json(rep.to_json())
    assert back.vectors.tobytes() == rep.vectors.tobytes()


def rep_json(d, vectors):
    return {"schema_version": 1, "d": d, "vectors": vectors}


PAIR = [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("data", [
    rep_json(2, {"1": PAIR, "3": PAIR}),  # a gap in the keys
    rep_json(2, {"0": PAIR, "1": PAIR}),  # numbered from 0
    rep_json(2, {"1": PAIR, "one": PAIR}),  # not a number
    rep_json(2, {"1": PAIR, "2": PAIR[:1]}),  # too few entries
    rep_json(1, {"1": PAIR}),  # more entries than d
    rep_json(2, {"1": [[1.0], [0.0]]}),  # an entry that is not a pair
    rep_json(2, {"1": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}),
    rep_json(2, {"1": [[1.0, 0.0], "ab"]}),
    rep_json(2, [PAIR]),  # a list, not a mapping
], ids=["gap", "zero", "name", "short", "long", "single", "triple", "string", "list"])
def test_representation_from_json_rejects_malformed_vectors(data):
    with pytest.raises(InvalidParamsError):
        OrthogonalRepresentation.from_json(data)


def test_representation_from_json_accepts_no_vectors():
    assert OrthogonalRepresentation.from_json(rep_json(3, {})).vectors.shape == (0, 3)
