"""Relation generators for the quantum cohomology presentation.

For each gauge node k with block size v, inflow root multiset mu (size
v-) and outflow root multiset nu (size v+), the degree-one-curve relation
with a staircase insertion of extra power p reads, after
antisymmetrization and the Kaehler normalization Q_sharp = (-1)^(v-1) Q:

  positive stability:
    sum_{m=0}^{v-} (-1)^(v- - m) e_{v- - m}(mu) h_{m+p-v+1}(xi)
      = (-1)^(v-1) Q_k * sum_{m=0}^{v+} (-1)^m e_{v+ - m}(nu) h_{m+p-v+1}(xi)

  negative stability (stored multiplied through by Q_k to stay polynomial):
    (-1)^(v-1) * sum_{m=0}^{v-} (-1)^(v- - m) e_{v- - m}(mu) h_{m+p-v+1}(xi)
      = Q_k * sum_{m=0}^{v+} (-1)^m e_{v+ - m}(nu) h_{m+p-v+1}(xi)

with h_i = 0 for i < 0.  Generators are returned as left minus right.
The root multisets mu and nu come only from `inflow_roots` and
`outflow_roots`, and the sign (-1)^(v- - v) of the exchange relation only
from `quiver.kaehler_sign`.

Spanning relations: write g_p for the generator at node k with insertion
power p and v = dim V_k.  It reads g_p = sum_m c_m h_(m+p-v+1)(xi), with
coefficients c_m (signed e_j(mu), and Q_k times signed e_j(nu)) that do
not depend on p.  Since sum_{i=0}^{v} (-1)^i e_i(xi) h_(n-i)(xi) = 0 for
every n >= 1 (Macdonald, Symmetric Functions and Hall Polynomials, I.2:
H(t) E(-t) = 1 with e_i(xi) = 0 for i > v), every p >= v gives, as
expanded polynomials,

    sum_{i=0}^{v} (-1)^i e_i(xi) g_(p-i) = 0,

so g_p lies in the ideal of g_(p-v), ..., g_(p-1) and, by induction, in
the ideal of g_0, ..., g_(v-1).  `spanning_ideal` builds only those, for
the callers that compute a Groebner basis: the ideal and so its reduced
basis are the ones of `build_ideal`, whose full list `present` and
`verify vgit` keep for their reports.

The same relations arise as Weyl antisymmetrizations of the abelianized
relation times the staircase monomial; `nonabelian_relation` computes that
route directly and the two are cross-checked in the test suite.

Truncated Chern quotients: for root multisets U (size r) and U' (size s),

    delta_t(U, U') = [c_t(U) / c_t(U')]_+
      = t^(r-s) sum_{p=0}^{r-s} (-t)^(-p) sum_{m=0}^{p} (-1)^m e_m(U) h_{p-m}(U')

when r >= s, and 0 otherwise.  This is the polynomial part of the quotient
in descending powers of t; the remainder has t-degree below s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .polycore import MultiPoly, VarTable
from .quiver import (
    Quiver,
    WeightData,
    build_table,
    cocharacter,
    gauge_blocks,
    kaehler_sign,
    node_roots,
)
from .symfun import (
    antisymmetrize,
    chern_from_roots,
    complete,
    elementary,
    insertion_exponents,
    positive_root_pairing,
)


@dataclass(frozen=True)
class IdealPresentation:
    """Polynomial generators of the relation ideal, with build metadata."""

    quiver: Quiver
    table: VarTable
    generators: tuple
    p_max: int
    equivariant: bool
    degrees: tuple  # one (node id, sign) per gauge node

    def __iter__(self):
        return iter(self.generators)


def abelian_relation(w: WeightData, d: Mapping[str, Sequence[int]]) -> MultiPoly:
    """Quasimap relation of the abelianized theory for a cocharacter d:

        prod_{<lam,d> > 0} (weight)^<lam,d>  -  Qt^d prod_{<lam,d> < 0} (weight)^(-<lam,d>)

    Requires a table carrying the abelian Kaehler variables Qt[k][j]
    (Laurent when d has negative entries).
    """
    q = w.quiver
    dmap = cocharacter(q, d)
    table = w.table
    pos = MultiPoly.const(table, 1)
    neg = MultiPoly.const(table, 1)
    for wt in w.weights:
        a = wt.pair(dmap)
        if a > 0:
            pos = pos * wt.form.convert(table) ** a
        elif a < 0:
            neg = neg * wt.form.convert(table) ** (-a)
    qmono: dict[str, int] = {}
    for nid, vec in d.items():
        for j, e in enumerate(vec, start=1):
            if e:
                qmono[f"Qt[{nid}][{j}]"] = e
    return pos - MultiPoly.monomial(table, qmono) * neg


def nonabelian_relation(
    w: WeightData,
    d: Mapping[str, Sequence[int]],
    p_insert: Mapping[str, int] | None = None,
) -> MultiPoly:
    """Antisymmetrized relation: the abelian relation with Qt^d replaced by
    (-1)^<2rho,d> Q^dbar, multiplied by the staircase insertion monomial and
    Weyl-antisymmetrized.  dbar sums d over each block, so negative totals
    need a Laurent-capable Q table.
    """
    q = w.quiver
    table = w.table
    blocks = gauge_blocks(q, table)
    dmap = cocharacter(q, d)
    pos = MultiPoly.const(table, 1)
    neg = MultiPoly.const(table, 1)
    for wt in w.weights:
        a = wt.pair(dmap)
        if a > 0:
            pos = pos * wt.form ** a
        elif a < 0:
            neg = neg * wt.form ** (-a)
    sign = -1 if positive_root_pairing(blocks, d) % 2 else 1
    qmono = {f"Q[{nid}]": sum(vec) for nid, vec in d.items() if sum(vec)}
    prefactor = pos - sign * MultiPoly.monomial(table, qmono) * neg
    exps = {}
    for nid, names in blocks.blocks:
        p = 0 if p_insert is None else p_insert.get(nid, 0)
        exps[nid] = insertion_exponents(len(names), p)
    return antisymmetrize(table, blocks, exps, prefactor)


def node_relation(
    q: Quiver,
    k: str,
    p: int,
    *,
    table: VarTable | None = None,
    equivariant: bool = True,
) -> MultiPoly:
    """Relation generator for gauge node k with insertion power p (see
    module docstring for both stability signs)."""
    if table is None:
        table = build_table(q, equivariant=equivariant, with_q=True)
    v = q.dim(k)
    theta = q.theta(k)
    mu = inflow_roots(q, k, table, equivariant)
    nu = outflow_roots(q, k, table, equivariant)
    xi = node_roots(q, table, k, equivariant)
    vm, vp = len(mu), len(nu)

    def side(roots, count, alt_from_top: bool) -> MultiPoly:
        out = MultiPoly.zero(table)
        for m in range(count + 1):
            i = m + p - v + 1
            if i < 0:
                continue
            h = complete(table, xi, i)
            if h.is_zero():
                continue
            e = elementary(table, roots, count - m)
            if e.is_zero():
                continue
            s = (count - m) if alt_from_top else m
            term = e * h
            out = out + (term if s % 2 == 0 else -term)
        return out

    left = side(mu, vm, alt_from_top=True)
    right = side(nu, vp, alt_from_top=False)
    qk = MultiPoly.variable(table, f"Q[{k}]")
    vsign = -1 if (v - 1) % 2 else 1
    if theta > 0:
        return left - vsign * qk * right
    return vsign * left - qk * right


def build_ideal(
    q: Quiver,
    p_max: int,
    *,
    equivariant: bool = False,
    table: VarTable | None = None,
) -> IdealPresentation:
    """All node relations for insertion powers 0..p_max, one list.

    The chosen curve degree per node is sgn(theta_k) times the first
    coordinate cocharacter; negative-stability relations are already
    normalized to polynomials in Q.
    """
    return _node_ideal(q, p_max, lambda v: p_max, equivariant, table)


def spanning_ideal(
    q: Quiver,
    p_max: int,
    *,
    equivariant: bool = False,
    table: VarTable | None = None,
) -> IdealPresentation:
    """The ideal of `build_ideal`, generated by the relations with
    insertion powers 0..min(p_max, v-1) at each node of dimension v; the
    others are redundant (see the module docstring)."""
    return _node_ideal(q, p_max, lambda v: min(p_max, v - 1), equivariant, table)


def _node_ideal(
    q: Quiver,
    p_max: int,
    top: Callable[[int], int],
    equivariant: bool,
    table: VarTable | None,
) -> IdealPresentation:
    """Nonzero node relations for insertion powers 0..top(v) per node."""
    if table is None:
        table = build_table(q, equivariant=equivariant, with_q=True)
    gens = []
    degrees = []
    for n in q.gauge_nodes:
        degrees.append((n.id, 1 if n.theta > 0 else -1))
        for p in range(top(n.dim) + 1):
            g = node_relation(q, n.id, p, table=table, equivariant=equivariant)
            if not g.is_zero():
                gens.append(g)
    return IdealPresentation(q, table, tuple(gens), p_max, equivariant, tuple(degrees))


# -- Chern classes and truncated quotients ----------------------------------------


def chern_poly(
    q: Quiver,
    nid: str,
    table: VarTable,
    *,
    equivariant: bool = True,
) -> MultiPoly:
    """Total Chern polynomial of the tautological bundle at a node."""
    return chern_from_roots(table, node_roots(q, table, nid, equivariant))


def truncated_chern_quotient(
    table: VarTable,
    roots_num: Sequence,
    roots_den: Sequence,
) -> MultiPoly:
    """delta_t(U, U'): polynomial part of c_t(U)/c_t(U') in powers of t."""
    r, s = len(roots_num), len(roots_den)
    if r < s:
        return MultiPoly.zero(table)
    t = MultiPoly.variable(table, "t")
    out = MultiPoly.zero(table)
    for p in range(r - s + 1):
        inner = MultiPoly.zero(table)
        for m in range(p + 1):
            e = elementary(table, roots_num, m)
            if e.is_zero():
                continue
            h = complete(table, roots_den, p - m)
            if h.is_zero():
                continue
            inner = inner + (e * h if m % 2 == 0 else -(e * h))
        if inner.is_zero():
            continue
        term = t ** (r - s - p) * inner
        out = out + (term if p % 2 == 0 else -term)
    return out


def node_chern_quotient(
    q: Quiver,
    num: str | None,
    den: str | None,
    table: VarTable,
    *,
    equivariant: bool = True,
) -> MultiPoly:
    """delta_t between two node bundles; None stands for the zero bundle."""
    rn = node_roots(q, table, num, equivariant) if num is not None else []
    rd = node_roots(q, table, den, equivariant) if den is not None else []
    return truncated_chern_quotient(table, rn, rd)


def inflow_roots(q: Quiver, k: str, table: VarTable, equivariant: bool) -> list:
    out = []
    for e in q.in_edges(k):
        for _ in range(e.count):
            out.extend(node_roots(q, table, e.src, equivariant))
    return out


def outflow_roots(q: Quiver, k: str, table: VarTable, equivariant: bool) -> list:
    out = []
    for e in q.out_edges(k):
        for _ in range(e.count):
            out.extend(node_roots(q, table, e.dst, equivariant))
    return out


def exchange_lhs_rhs(
    q: Quiver,
    k: str,
    table: VarTable | None = None,
    *,
    equivariant: bool = False,
) -> tuple:
    """Both sides of the quantum exchange relation at gauge node k.

    Positive stability:
      lhs = c_t(inflow) - delta_t(inflow, V_k) c_t(V_k)
      rhs = -s Q_k (c_t(outflow) - delta_t(outflow, V_k) c_t(V_k))

    Negative stability keeps the same two sides but clears the inverse
    Kaehler variable to the other side:
      lhs = -s (c_t(inflow) - delta_t(inflow, V_k) c_t(V_k))
      rhs = Q_k (c_t(outflow) - delta_t(outflow, V_k) c_t(V_k))

    with s = (-1)^(v- - v) the Kaehler sign of `quiver.kaehler_sign`.
    """
    if table is None:
        table = build_table(q, equivariant=equivariant, with_q=True, with_t=True)
    mu = inflow_roots(q, k, table, equivariant)
    nu = outflow_roots(q, k, table, equivariant)
    vk = node_roots(q, table, k, True)
    c_in = chern_from_roots(table, mu)
    c_out = chern_from_roots(table, nu)
    c_k = chern_from_roots(table, vk)
    d_in = truncated_chern_quotient(table, mu, vk)
    d_out = truncated_chern_quotient(table, nu, vk)
    qk = MultiPoly.variable(table, f"Q[{k}]")
    sign = -kaehler_sign(q, k)
    left = c_in - d_in * c_k
    right = c_out - d_out * c_k
    if q.theta(k) > 0:
        return left, sign * qk * right
    return sign * left, qk * right
