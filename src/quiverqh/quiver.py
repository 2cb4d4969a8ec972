"""Quiver data: nodes, dimensions, stability, exchange matrices, weights.

A quiver here is a finite directed multigraph with two node kinds.  Gauge
nodes carry a dimension and a nonzero stability weight; frozen nodes carry
only a dimension.  Self-loops and oriented 2-cycles are rejected.

The JSON wire format:

    {"nodes": [{"id": "0", "kind": "frozen", "dim": 4},
               {"id": "1", "kind": "gauge", "dim": 2, "theta": 1}],
     "edges": [{"src": "0", "dst": "1", "count": 1}]}

Matrix row/column order is by sorted node label (gauge labels first for the
extended matrix), using a length-then-lexicographic label sort so numeric
labels order numerically.

A `Quiver` builds its graph index once: each node by id, its in- and
out-edges, and the sorted gauge and frozen nodes.  `node`, `in_edges` and
`out_edges` are one lookup, `vminus`, `vplus` and `btilde_column` cost the
node's degree, `validate` is linear in nodes plus edges.
"""

from __future__ import annotations

import json
from typing import Mapping, NamedTuple, Sequence

from .polycore import MultiPoly, Variable, VarTable, _label_key
from .symfun import BlockStructure


class InputError(ValueError):
    """Bad input: a malformed file, flag or quiver, or a request outside
    what a check covers.  The command line maps it, and only it, to exit 2."""


class QuiverFormatError(InputError):
    """Malformed quiver description (structure, kinds, dims, stability)."""


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


class Node(NamedTuple):
    id: str
    kind: str  # "gauge" | "frozen"
    dim: int
    theta: int | None = None


class Edge(NamedTuple):
    src: str
    dst: str
    count: int = 1


class Quiver:
    """Nodes and edges, validated, with the graph index built once.  Two
    quivers are equal when their nodes and edges are; the index stays out
    of ==."""

    __slots__ = ("nodes", "edges", "_by_id", "_in", "_out", "gauge_nodes", "frozen_nodes")

    def __init__(self, nodes: tuple, edges: tuple):
        self.nodes = nodes
        self.edges = edges
        by_id = {n.id: n for n in nodes}
        if len(by_id) != len(nodes):
            raise QuiverFormatError("duplicate node ids")
        for n in nodes:
            if n.kind not in ("gauge", "frozen"):
                raise QuiverFormatError(f"node {n.id!r}: unknown kind {n.kind!r}")
            if not _is_int(n.dim) or n.dim < 1:
                raise QuiverFormatError(f"node {n.id!r}: dim must be a positive integer")
            if n.kind == "gauge":
                if not _is_int(n.theta) or n.theta == 0:
                    raise QuiverFormatError(
                        f"gauge node {n.id!r}: theta must be a nonzero integer"
                    )
            elif n.theta is not None:
                raise QuiverFormatError(f"frozen node {n.id!r} must not carry theta")
        arrows = set()
        ins: dict[str, list] = {nid: [] for nid in by_id}
        outs: dict[str, list] = {nid: [] for nid in by_id}
        for e in edges:
            if e.src not in by_id or e.dst not in by_id:
                raise QuiverFormatError(f"edge {e.src!r}->{e.dst!r}: unknown endpoint")
            if e.src == e.dst:
                raise QuiverFormatError(f"self-loop at node {e.src!r}")
            if not _is_int(e.count) or e.count < 1:
                raise QuiverFormatError(f"edge {e.src!r}->{e.dst!r}: count must be >= 1")
            if (e.src, e.dst) in arrows:
                raise QuiverFormatError(
                    f"parallel edge entries {e.src!r}->{e.dst!r}; use count"
                )
            arrows.add((e.src, e.dst))
            ins[e.dst].append(e)
            outs[e.src].append(e)
        for s, d in arrows:
            if (d, s) in arrows:
                raise QuiverFormatError(f"oriented 2-cycle between {s!r} and {d!r}")
        # the graph index.  Edge tuples keep the order of `edges`; node
        # tuples are in matrix order.
        ordered = sorted(nodes, key=lambda n: _label_key(n.id))
        self._by_id = by_id
        self._in = {nid: tuple(es) for nid, es in ins.items()}
        self._out = {nid: tuple(es) for nid, es in outs.items()}
        self.gauge_nodes = tuple(n for n in ordered if n.kind == "gauge")
        self.frozen_nodes = tuple(n for n in ordered if n.kind == "frozen")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def _lookup(self, index: dict, nid: str):
        try:
            return index[nid]
        except KeyError:
            raise QuiverFormatError(f"unknown node {nid!r}") from None

    def node(self, nid: str) -> Node:
        return self._lookup(self._by_id, nid)

    def dim(self, nid: str) -> int:
        return self.node(nid).dim

    def theta(self, nid: str) -> int:
        th = self.node(nid).theta
        if th is None:
            raise QuiverFormatError(f"node {nid!r} is frozen, has no stability weight")
        return th

    def in_edges(self, nid: str) -> tuple:
        return self._lookup(self._in, nid)

    def out_edges(self, nid: str) -> tuple:
        return self._lookup(self._out, nid)

    def vminus(self, nid: str) -> int:
        """Total dimension flowing in: sum of source dims over in-edges."""
        return sum(e.count * self.dim(e.src) for e in self.in_edges(nid))

    def vplus(self, nid: str) -> int:
        """Total dimension flowing out: sum of target dims over out-edges."""
        return sum(e.count * self.dim(e.dst) for e in self.out_edges(nid))


# -- JSON ----------------------------------------------------------------------


def quiver_from_dict(data: Mapping) -> Quiver:
    if not isinstance(data, Mapping):
        raise QuiverFormatError("top level must be an object")
    try:
        raw_nodes = data["nodes"]
        raw_edges = data.get("edges", [])
    except (TypeError, KeyError) as exc:
        raise QuiverFormatError(f"missing field: {exc}") from None
    for name, raw in (("nodes", raw_nodes), ("edges", raw_edges)):
        if not isinstance(raw, list):
            raise QuiverFormatError(f"{name} must be a list")
        if not all(isinstance(x, Mapping) for x in raw):
            raise QuiverFormatError(f"every entry of {name} must be an object")
    nodes = []
    for nd in raw_nodes:
        extra = set(nd) - {"id", "kind", "dim", "theta"}
        if extra:
            raise QuiverFormatError(f"node has unknown fields {sorted(extra)}")
        try:
            nodes.append(Node(str(nd["id"]), nd["kind"], nd["dim"], nd.get("theta")))
        except KeyError as exc:
            raise QuiverFormatError(f"node missing field {exc}") from None
    edges = []
    for ed in raw_edges:
        extra = set(ed) - {"src", "dst", "count"}
        if extra:
            raise QuiverFormatError(f"edge has unknown fields {sorted(extra)}")
        try:
            edges.append(Edge(str(ed["src"]), str(ed["dst"]), ed.get("count", 1)))
        except KeyError as exc:
            raise QuiverFormatError(f"edge missing field {exc}") from None
    return Quiver(tuple(nodes), tuple(edges))


def require_gauge_nodes(q: Quiver) -> tuple:
    """The gauge nodes of q; a quiver without one is an input error, since
    every check on it would be vacuous."""
    if not q.gauge_nodes:
        raise QuiverFormatError("quiver has no gauge node")
    return q.gauge_nodes


def default_pmax(q: Quiver) -> int:
    """Default truncation degree: the largest gauge dimension plus 2."""
    return max(n.dim for n in require_gauge_nodes(q)) + 2


def resolve_pmax(q: Quiver, p_max: int | None) -> int:
    """The truncation degree to use: p_max as given (0 included), else the
    default; a negative p_max is an input error."""
    if p_max is None:
        return default_pmax(q)
    if p_max < 0:
        raise InputError(f"p_max must be >= 0, got {p_max}")
    return p_max


def quiver_to_dict(q: Quiver) -> dict:
    nodes = []
    for n in q.nodes:
        nd = {"id": n.id, "kind": n.kind, "dim": n.dim}
        if n.theta is not None:
            nd["theta"] = n.theta
        nodes.append(nd)
    return {
        "nodes": nodes,
        "edges": [{"src": e.src, "dst": e.dst, "count": e.count} for e in q.edges],
    }


def load_quiver(path: str) -> Quiver:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise QuiverFormatError(f"cannot read quiver file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise QuiverFormatError(
            f"cannot read quiver file {path!r}: not UTF-8 at byte {exc.start}"
        ) from None
    except json.JSONDecodeError as exc:
        raise QuiverFormatError(f"invalid JSON at line {exc.lineno} col {exc.colno}: {exc.msg}")
    return quiver_from_dict(data)


# -- validation -----------------------------------------------------------------


class ValidationReport(NamedTuple):
    structural_ok: bool
    acyclic: bool
    feasible: bool
    quiver_flag: bool
    type_a: bool
    notes: tuple


def _is_acyclic(q: Quiver) -> bool:
    """Kahn's algorithm: repeatedly remove a node with no edge left in;
    every node is removed exactly when there is no oriented cycle."""
    indeg = {n.id: len(q.in_edges(n.id)) for n in q.nodes}
    ready = [nid for nid, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        nid = ready.pop()
        removed += 1
        for e in q.out_edges(nid):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                ready.append(e.dst)
    return removed == len(indeg)


def _chain_order(q: Quiver) -> list | None:
    """Node ids in path order when the quiver is a single oriented chain."""
    if any(e.count != 1 for e in q.edges):
        return None
    heads = [n.id for n in q.nodes if not q.in_edges(n.id)]
    if len(heads) != 1:
        return None
    order = [heads[0]]
    while nxt := q.out_edges(order[-1]):
        if len(nxt) != 1 or len(q.in_edges(nxt[0].dst)) != 1:
            return None
        order.append(nxt[0].dst)
    return order if len(order) == len(q.nodes) else None


def type_a_failures(q: Quiver) -> list[str]:
    """Why q is not a type-A chain, one line per failing condition at its
    first node or position; empty when it is one.  The conditions: a
    single oriented chain from its one frozen node, theta > 0 at every
    gauge node, dims that fall along the chain, and the chain inequality
    v_0 - v_k < v_(k+1) - v_(k+2) at every position k < n, with v_(n+1) = 0."""
    order = _chain_order(q)
    if order is None or len(q.frozen_nodes) != 1 or order[0] != q.frozen_nodes[0].id:
        return ["not a single oriented chain from its one frozen node"]
    dims = [q.dim(nid) for nid in order] + [0]
    n = len(order) - 1
    failing = (
        ("node %s: theta <= 0", [nid for nid in order[1:] if q.theta(nid) <= 0]),
        ("dims do not fall at position %d", [k for k in range(n) if dims[k] <= dims[k + 1]]),
        ("chain inequality fails at position %d",
         [k for k in range(n) if dims[0] - dims[k] >= dims[k + 1] - dims[k + 2]]),
    )
    return [fmt % bad[0] for fmt, bad in failing if bad]


def validate(q: Quiver) -> ValidationReport:
    """Structural and assumption checks; never raises on a well-formed quiver."""
    notes: list[str] = []
    acyclic = _is_acyclic(q)
    if not acyclic:
        notes.append("oriented cycle present")

    feasible = True
    for n in q.gauge_nodes:
        if n.theta > 0 and q.vminus(n.id) < n.dim:
            feasible = False
            notes.append(f"node {n.id}: positive stability needs inflow >= dim")
        if n.theta < 0 and q.vplus(n.id) < n.dim:
            feasible = False
            notes.append(f"node {n.id}: negative stability needs outflow >= dim")

    # flag-type assumptions: acyclic, a single frozen node that is the only
    # source, all stability weights positive, and strict inflow excess
    quiver_flag = acyclic and len(q.frozen_nodes) == 1
    if quiver_flag:
        frozen = q.frozen_nodes[0]
        sources = [n.id for n in q.nodes if not q.in_edges(n.id)]
        quiver_flag = sources == [frozen.id]
    if quiver_flag:
        quiver_flag = all(n.theta > 0 for n in q.gauge_nodes)
    if quiver_flag:
        for n in q.gauge_nodes:
            if q.vminus(n.id) - q.vplus(n.id) < 2:
                quiver_flag = False
                notes.append(f"node {n.id}: inflow excess below 2")
                break

    # of the type-A conditions, only a failed chain inequality is noted
    why = type_a_failures(q)
    notes += [w for w in why if w.startswith("chain inequality")]
    type_a = not why

    return ValidationReport(True, acyclic, feasible, quiver_flag, type_a, tuple(notes))


# -- exchange matrices -----------------------------------------------------------


def exchange_matrices(q: Quiver) -> tuple:
    """(B, Btilde, row labels): signed arrow-count matrices.

    B is the square matrix over gauge nodes, Btilde stacks frozen rows
    below it; entry (i, k) is arrows i->k minus arrows k->i.
    """
    gauge = [n.id for n in q.gauge_nodes]
    rows = gauge + [n.id for n in q.frozen_nodes]
    cols = [dict(btilde_column(q, k)) for k in gauge]
    btilde = [[col.get(i, 0) for col in cols] for i in rows]
    b = [row[:] for row in btilde[: len(gauge)]]
    return b, btilde, rows


def btilde_column(q: Quiver, k: str) -> list:
    """Nonzero entries of column k of Btilde as (row label, b_ik), rows in
    matrix order; b_ik is arrows i->k minus arrows k->i, read off the one
    edge entry between i and k (no parallel entries, no 2-cycles)."""
    column = {e.src: e.count for e in q.in_edges(k)}
    column.update((e.dst, -e.count) for e in q.out_edges(k))
    return sorted(column.items(),
                  key=lambda ib: (q.node(ib[0]).kind == "frozen", _label_key(ib[0])))


def kaehler_sign(q: Quiver, k: str) -> int:
    """(-1)^(vminus_k - v_k), the sign of the Kaehler elimination
    Q[k] -> (-1)^(vminus_k - v_k) * prod_i zeta_i^(-b_ik)."""
    return -1 if (q.vminus(k) - q.dim(k)) % 2 else 1


# -- weight data -----------------------------------------------------------------


class Weight(NamedTuple):
    """One torus weight of the linear-map space: a linear form plus its
    gauge part as an exponent map over xi variables."""

    form: MultiPoly
    gauge_part: tuple  # tuple[(varname, coeff)] over xi variables

    def pair(self, d: Mapping[str, int]) -> int:
        """Pairing of the gauge part with a cocharacter {xi varname: int}."""
        return sum(c * d.get(name, 0) for name, c in self.gauge_part)


class WeightData:
    """The torus weights of a quiver in one table, with memos that
    ifunction fills lazily.  Equal when quiver, table and weights are;
    the memos stay out of == and repr, and a new WeightData starts them
    empty."""

    __slots__ = ("quiver", "table", "weights", "factors", "degrees")

    def __init__(self, quiver: Quiver, table: VarTable, weights: tuple):
        self.quiver = quiver
        self.table = table
        self.weights = weights  # tuple[Weight]
        # canonicalised linear factors w_i + s*h:
        # (weight index, shift) -> (key, scalar, p, normalized), see
        # ifunction._canon_factor.
        self.factors: dict = {}
        # degree key -> pairing of every weight with that degree, see
        # ifunction._degree.
        self.degrees: dict = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightData):
            return NotImplemented
        return (self.quiver, self.table, self.weights) == (other.quiver, other.table, other.weights)


def node_roots(q: Quiver, table: VarTable, nid: str) -> list:
    """Chern roots of one node as degree-one polynomials.  A frozen node's
    roots are its u variables when the table holds them (an equivariant
    table, see `build_table`) and zeros otherwise."""
    n = q.node(nid)
    if n.kind == "gauge":
        return [MultiPoly.variable(table, f"xi[{nid}][{j}]") for j in range(1, n.dim + 1)]
    if f"u[{nid}][1]" in table:
        return [MultiPoly.variable(table, f"u[{nid}][{j}]") for j in range(1, n.dim + 1)]
    return [MultiPoly.zero(table) for _ in range(n.dim)]


def kaehler_variable(table: VarTable, k: str) -> MultiPoly:
    """The Kaehler variable Q[k] of gauge node k when the table holds Q,
    and zero otherwise: a table without Q (see `build_table`) is the
    classical ring, the ring map Q -> 0."""
    name = f"Q[{k}]"
    return MultiPoly.variable(table, name) if name in table else MultiPoly.zero(table)


def build_table(
    q: Quiver,
    *,
    equivariant: bool,
    with_t: bool = False,
    with_h: bool = False,
    with_q: bool = False,
    with_qtilde: bool = False,
    with_zeta: bool = False,
) -> VarTable:
    """Variable table for a quiver context; include only what is needed.

    This is where every mode is decided, and every function handed the
    table reads it from there: an equivariant table holds the frozen
    nodes' u variables (`node_roots`), and a table without Q is the
    classical slice Q -> 0 (`kaehler_variable`)."""
    vs: list[Variable] = []
    for n in q.gauge_nodes:
        vs.extend(Variable.xi(n.id, j) for j in range(1, n.dim + 1))
        if with_q:
            vs.append(Variable.q(n.id))
        if with_qtilde:
            vs.extend(Variable.qt(n.id, j) for j in range(1, n.dim + 1))
    if equivariant:
        for n in q.frozen_nodes:
            vs.extend(Variable.u(n.id, j) for j in range(1, n.dim + 1))
    if with_t:
        vs.append(Variable.t())
    if with_h:
        vs.append(Variable.h())
    if with_zeta:
        vs.extend(Variable.zeta(n.id) for n in q.nodes)
    return VarTable(vs)


def weights(q: Quiver, table: VarTable) -> WeightData:
    """Torus weights of the arrow-map space, one per edge and index pair.

    Each weight is target root minus source root; frozen roots become u
    variables when the table holds them (else zero, see `node_roots`).
    The gauge part records xi coefficients for cocharacter pairings.
    """
    ws: list[Weight] = []
    for e in q.edges:
        src_roots = node_roots(q, table, e.src)
        dst_roots = node_roots(q, table, e.dst)
        for _ in range(e.count):
            for a, ra in enumerate(src_roots, start=1):
                for b, rb in enumerate(dst_roots, start=1):
                    form = rb - ra
                    gauge_part = []
                    if q.node(e.dst).kind == "gauge":
                        gauge_part.append((f"xi[{e.dst}][{b}]", 1))
                    if q.node(e.src).kind == "gauge":
                        gauge_part.append((f"xi[{e.src}][{a}]", -1))
                    ws.append(Weight(form, tuple(gauge_part)))
    return WeightData(q, table, tuple(ws))


def gauge_blocks(q: Quiver, table: VarTable) -> BlockStructure:
    return BlockStructure(tuple(
        (n.id, tuple(f"xi[{n.id}][{j}]" for j in range(1, n.dim + 1)))
        for n in q.gauge_nodes
    ))


def cocharacter(q: Quiver, entries: Mapping[str, Sequence[int]]) -> dict:
    """Flatten {node id: per-slot ints} to {xi varname: int}."""
    out: dict[str, int] = {}
    for nid, vec in entries.items():
        if q.node(nid).kind != "gauge":
            raise QuiverFormatError(f"cocharacter on non-gauge node {nid!r}")
        if len(vec) != q.dim(nid):
            raise QuiverFormatError(f"cocharacter for node {nid!r} has wrong length")
        for j, v in enumerate(vec, start=1):
            if v:
                out[f"xi[{nid}][{j}]"] = v
    return out


def in_effective_cone(q: Quiver, entries: Mapping[str, Sequence[int]]) -> bool:
    """d lies in the effective cone when sgn(theta_k) d_j >= 0 for all slots."""
    for nid, vec in entries.items():
        s = 1 if q.theta(nid) > 0 else -1
        if any(s * v < 0 for v in vec):
            return False
    return True
