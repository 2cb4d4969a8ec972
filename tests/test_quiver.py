"""Quiver file format, validation flags, exchange matrices and weights."""

import glob
import json
import os
import pickle
import time
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverqh.cluster import mutate, seed_from_quiver
from quiverqh.polycore import MultiPoly
from quiverqh.quiver import (
    Edge,
    Node,
    Quiver,
    QuiverFormatError,
    _chain_order,
    _is_acyclic,
    btilde_column,
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


# -- the graph index against edge-scan definitions ------------------------------------


def _scan_in(q, nid):
    return tuple(e for e in q.edges if e.dst == nid)


def _scan_out(q, nid):
    return tuple(e for e in q.edges if e.src == nid)


def _scan_column(q, k):
    """Column k of Btilde: arrows i->k minus arrows k->i, nonzero only, rows
    gauge ids then frozen ids, each sorted length-first."""
    def arrows(src, dst):
        return sum(e.count for e in q.edges if (e.src, e.dst) == (src, dst))
    rows = [n.id for kind in ("gauge", "frozen")
            for n in sorted((n for n in q.nodes if n.kind == kind),
                            key=lambda n: (len(n.id), n.id))]
    return [(i, b) for i in rows if (b := arrows(i, k) - arrows(k, i))]


def _scan_acyclic(q):
    """No node reaches itself in the transitive closure of the arrows."""
    reach = {(e.src, e.dst) for e in q.edges}
    while True:
        wider = reach | {(a, d) for a, b in reach for c, d in reach if b == c}
        if wider == reach:
            return all(a != b for a, b in reach)
        reach = wider


def _scan_chain(q):
    """The node order whose consecutive pairs are exactly the arrows, each
    of count 1, if there is one."""
    arrows = {(e.src, e.dst) for e in q.edges}
    if not q.nodes or any(e.count != 1 for e in q.edges):
        return None
    for order in permutations(n.id for n in q.nodes):
        if set(zip(order, order[1:])) == arrows:
            return list(order)
    return None


def _assert_index_matches_scans(q):
    dims = {n.id: n.dim for n in q.nodes}
    for n in q.nodes:
        ins, outs = _scan_in(q, n.id), _scan_out(q, n.id)
        assert q.in_edges(n.id) == ins and q.out_edges(n.id) == outs
        assert q.vminus(n.id) == sum(e.count * dims[e.src] for e in ins)
        assert q.vplus(n.id) == sum(e.count * dims[e.dst] for e in outs)
        assert btilde_column(q, n.id) == _scan_column(q, n.id)
    assert _is_acyclic(q) == _scan_acyclic(q)
    assert _chain_order(q) == _scan_chain(q)


_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_QUIVER_FILES = sorted(glob.glob(os.path.join(_ROOT, "quivers", "*.json"))
                       + glob.glob(os.path.join(_ROOT, "perfbench", "fixtures", "*.json")))


@pytest.mark.parametrize("path", _QUIVER_FILES, ids=os.path.basename)
def test_graph_index_matches_edge_scans_on_files(path):
    _assert_index_matches_scans(load_quiver(path))


@st.composite
def _graphs(draw):
    """Well-formed quivers on two to five nodes with random arrows, so the
    draws reach cycles, chains and multiple arrows; ids come in an order
    other than the label order."""
    ids = draw(st.permutations(["0", "1", "2", "10", "a"]))[:draw(st.integers(2, 5))]
    nodes = [{"id": i, "kind": "frozen", "dim": draw(st.integers(1, 3))} if draw(st.booleans())
             else {"id": i, "kind": "gauge", "dim": draw(st.integers(1, 3)),
                   "theta": draw(st.sampled_from([-1, 1]))} for i in ids]
    arrows = {}
    for src, dst in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                                  max_size=8)):
        if src != dst and (dst, src) not in arrows:
            arrows.setdefault((src, dst), draw(st.sampled_from([1, 1, 2])))
    return {"nodes": nodes,
            "edges": [{"src": s, "dst": d, "count": c} for (s, d), c in arrows.items()]}


@given(_DATA | _graphs())
# one node without in-edges, then the 3-cycle 1 -> 2 -> 3 -> 1: a chain walk
# that does not check in-degrees never ends here
@example({"nodes": [{"id": "0", "kind": "frozen", "dim": 1}]
          + [{"id": i, "kind": "gauge", "dim": 1, "theta": 1} for i in "123"],
          "edges": [{"src": s, "dst": d} for s, d in ("01", "12", "23", "31")]})
@settings(max_examples=300, deadline=None)
def test_graph_index_matches_edge_scans_on_fuzzed_quivers(data):
    try:
        q = quiver_from_dict(data)
    except QuiverFormatError:
        return
    _assert_index_matches_scans(q)


def test_graph_queries_on_an_unknown_node_are_format_errors(quivers):
    q = quivers("fl234")
    for query in (q.in_edges, q.out_edges, q.vminus, q.vplus):
        with pytest.raises(QuiverFormatError, match="unknown node '9'"):
            query("9")


def test_long_chain_graph_work_is_linear(tmp_path):
    # frozen 0 -> gauge 1 -> ... -> 1499, dims 1: edge scans per node made
    # exchange_matrices take minutes on this chain; the index takes seconds
    n = 1500
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "0", "kind": "frozen", "dim": 1}]
        + [{"id": str(i), "kind": "gauge", "dim": 1, "theta": 1} for i in range(1, n)],
        "edges": [{"src": str(i), "dst": str(i + 1)} for i in range(n - 1)],
    }))
    start = time.perf_counter()
    q = load_quiver(str(path))
    rep = validate(q)
    assert rep.acyclic and rep.feasible and not rep.type_a
    b, btilde, rows = exchange_matrices(q)
    assert rows[0] == "1" and rows[-1] == "0" and len(btilde) == n
    assert btilde[-1][0] == 1 and b[0][1] == 1 and b[1][0] == -1
    seed, labels = seed_from_quiver(q)
    assert labels == tuple(rows)
    mutated = mutate(seed, 1)
    assert mutated.btilde[0][1] == -1 and mutated.btilde[-1][1] == 1
    assert time.perf_counter() - start < 60


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
    wider = Quiver(tuple(
        Node(n.id, n.kind, 5, n.theta) if n.id == "1" else n for n in q.nodes
    ), q.edges)
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
