"""Quiver file format, validation flags, exchange matrices and weights."""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.polycore import MultiPoly
from quiverqh.quiver import (
    Edge,
    Node,
    Quiver,
    QuiverFormatError,
    build_table,
    cocharacter,
    default_pmax,
    exchange_matrices,
    in_effective_cone,
    load_quiver,
    node_roots,
    quiver_from_dict,
    quiver_to_dict,
    validate,
    weights,
)


def test_round_trip_through_dict(quivers):
    q = quivers("fl234")
    assert quiver_from_dict(quiver_to_dict(q)) == q


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"nodes": [\n  {"id": }\n]}')
    with pytest.raises(QuiverFormatError) as e:
        load_quiver(str(p))
    assert "line 2" in str(e.value)


@pytest.mark.parametrize("data,fragment", [
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1}] * 2,
      "edges": []}, "duplicate"),
    ({"nodes": [{"id": "a", "kind": "brane", "dim": 1}]}, "unknown kind"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 0, "theta": 1}]}, "dim"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 0}]}, "theta"),
    ({"nodes": [{"id": "a", "kind": "frozen", "dim": 1, "theta": 1}]}, "frozen"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1}],
      "edges": [{"src": "a", "dst": "a"}]}, "self-loop"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1},
                {"id": "b", "kind": "gauge", "dim": 1, "theta": 1}],
      "edges": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}]}, "2-cycle"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1}],
      "edges": [{"src": "a", "dst": "zz"}]}, "unknown endpoint"),
    ({"nodes": [5], "edges": []}, "nodes must be an object"),
    ({"nodes": {"a": 1}, "edges": []}, "nodes must be a list"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1}],
      "edges": None}, "edges must be a list"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1}],
      "edges": ["a"]}, "edges must be an object"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": True, "theta": 1}]}, "dim"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": True}]}, "theta"),
    ({"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1},
                {"id": "b", "kind": "frozen", "dim": 2}],
      "edges": [{"src": "b", "dst": "a", "count": True}]}, "count"),
], ids=["dup-id", "bad-kind", "bad-dim", "zero-theta", "frozen-theta",
        "self-loop", "two-cycle", "bad-edge", "node-not-object", "nodes-not-list",
        "edges-null", "edge-not-object", "dim-bool", "theta-bool", "count-bool"])
def test_format_rejections(data, fragment):
    with pytest.raises(QuiverFormatError) as e:
        quiver_from_dict(data)
    assert fragment in str(e.value)


# JSON-like values, and quiver-like objects whose entries mostly carry
# the right field names over a few ids, so the draws reach the node, edge
# and graph checks and not only the top-level ones
_LEAVES = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
           | st.sampled_from(["gauge", "frozen", "a", "b"]) | st.text(max_size=2))
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["nodes", "edges", "id"]) | st.text(max_size=2),
                      kids, max_size=4),
    max_leaves=10,
)
_IDS = st.sampled_from(["a", "b", "c"]) | _LEAVES
_SMALL = st.integers(-1, 3) | _LEAVES
_NODE = st.fixed_dictionaries(
    {"id": _IDS, "kind": st.sampled_from(["gauge", "frozen"]) | _LEAVES, "dim": _SMALL},
    optional={"theta": _SMALL},
)
_EDGE = st.fixed_dictionaries({"src": _IDS, "dst": _IDS}, optional={"count": _SMALL})


def _entries(entry):
    return st.lists(entry, max_size=3) | st.lists(entry | _JSON, max_size=2)


_QUIVER_LIKE = st.fixed_dictionaries({"nodes": _entries(_NODE)},
                                     optional={"edges": _entries(_EDGE)})
# three in four draws are quiver-like
_DATA = st.sampled_from([False, True, True, True]).flatmap(
    lambda quiver_like: _QUIVER_LIKE if quiver_like else _JSON)


@given(_DATA)
@settings(max_examples=300, deadline=None)
def test_quiver_from_dict_returns_a_quiver_or_a_format_error(data):
    try:
        q = quiver_from_dict(data)
    except QuiverFormatError:
        return
    assert isinstance(q, Quiver)


def test_default_pmax(quivers):
    assert default_pmax(quivers("fl245")) == 6
    frozen_only = quiver_from_dict({"nodes": [{"id": "a", "kind": "frozen", "dim": 1}]})
    with pytest.raises(QuiverFormatError, match="no gauge node"):
        default_pmax(frozen_only)


def test_validation_flags(quivers):
    rep = validate(quivers("fl234"))
    assert rep.acyclic and rep.feasible and rep.quiver_flag and rep.type_a

    rep = validate(quivers("gr24"))
    assert rep.type_a  # one gauge node is a chain of length one

    # full flag in C^3 violates the strict chain inequality at the tail
    rep = validate(quivers("fl123"))
    assert rep.acyclic and rep.feasible and not rep.type_a
    assert any("chain inequality" in n for n in rep.notes)

    # negative stability flips the feasibility side
    rep = validate(quivers("vgit312_minus"))
    assert rep.feasible and not rep.type_a


def test_feasibility_direction():
    q = Quiver(
        (Node("0", "frozen", 1, None), Node("1", "gauge", 2, 1)),
        (Edge("0", "1"),),
    )
    rep = validate(q)
    assert not rep.feasible  # inflow 1 < dim 2 under theta > 0
    q2 = Quiver(
        (Node("0", "frozen", 1, None), Node("1", "gauge", 2, -1)),
        (Edge("0", "1"),),
    )
    rep2 = validate(q2)
    assert not rep2.feasible  # outflow 0 < dim 2 under theta < 0


def test_exchange_matrices_fl234(quivers):
    b, btilde, rows = exchange_matrices(quivers("fl234"))
    assert list(rows) == ["1", "2", "0"]
    assert [list(r) for r in b] == [[0, 1], [-1, 0]]
    assert [list(r) for r in btilde] == [[0, 1], [-1, 0], [1, 0]]


def test_exchange_matrices_count_multiplicity():
    q = Quiver(
        (Node("1", "gauge", 1, 1), Node("2", "gauge", 1, 1)),
        (Edge("1", "2", 3),),
    )
    b, _, _ = exchange_matrices(q)
    assert [list(r) for r in b] == [[0, 3], [-3, 0]]


def test_build_table_layout(quivers):
    q = quivers("fl234")
    t = build_table(q, equivariant=True, with_t=True, with_q=True, with_zeta=True)
    assert t.of_class("xi") == tuple(
        f"xi[{nid}][{j}]" for nid, d in (("1", 3), ("2", 2)) for j in range(1, d + 1)
    )
    assert t.of_class("u") == tuple(f"u[0][{j}]" for j in range(1, 5))
    assert t.of_class("Q") == ("Q[1]", "Q[2]")
    assert t.of_class("zeta") == ("zeta[0]", "zeta[1]", "zeta[2]")
    t2 = build_table(q, equivariant=False)
    assert t2.of_class("u") == ()


def test_node_roots_of_a_frozen_node_follow_the_table(quivers):
    q = quivers("gr24")
    eq = build_table(q, equivariant=True, with_t=True)
    u = [MultiPoly.variable(eq, f"u[0][{j}]") for j in range(1, 5)]
    assert node_roots(q, eq, "0") == u
    plain = build_table(q, equivariant=False, with_t=True)
    assert node_roots(q, plain, "0") == [MultiPoly.zero(plain)] * 4


def test_node_index_stays_out_of_equality_and_follows_replace(quivers):
    q = quivers("fl234")
    assert q.node("1").dim == 3
    with pytest.raises(QuiverFormatError, match="unknown node '9'"):
        q.node("9")
    assert "_by_id" not in repr(q)
    assert quiver_from_dict(quiver_to_dict(q)) == q
    wider = dataclasses.replace(q, nodes=tuple(
        Node(n.id, n.kind, 5, n.theta) if n.id == "1" else n for n in q.nodes
    ))
    assert (wider.node("1").dim, q.node("1").dim) == (5, 3)
    assert pickle.loads(pickle.dumps(wider)).node("1").dim == 5


def test_weights_count_and_pairing(quivers):
    q = quivers("fl234")
    w = weights(q, build_table(q, equivariant=False, with_h=True))
    # 4*3 maps into node 1, 3*2 maps from node 1 to node 2
    assert len(w.weights) == 18
    d = cocharacter(q, {"1": [1, 0, 0]})
    pairs = sorted(wt.pair(d) for wt in w.weights)
    # the slot xi[1][1] receives 4 incoming (+1) and feeds 2 outgoing (-1)
    assert pairs.count(1) == 4 and pairs.count(-1) == 2
    assert pairs.count(0) == 12


def test_cocharacter_validation(quivers):
    q = quivers("fl234")
    assert cocharacter(q, {"1": [1, 0, -2]}) == {"xi[1][1]": 1, "xi[1][3]": -2}
    with pytest.raises(QuiverFormatError):
        cocharacter(q, {"0": [1, 0, 0, 0]})
    with pytest.raises(QuiverFormatError):
        cocharacter(q, {"1": [1]})


def test_effective_cone_sign_convention(quivers):
    q = quivers("fl234")
    assert in_effective_cone(q, {"1": [1, 0, 2], "2": [0, 3]})
    assert not in_effective_cone(q, {"1": [1, 0, -1]})
    qm = quivers("vgit312_minus")
    assert in_effective_cone(qm, {"1": [-2]})
    assert not in_effective_cone(qm, {"1": [1]})
