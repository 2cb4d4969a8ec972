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
not depend on p; `node_relations` builds the c_m and the list of
h_i(xi) once per node and reads every g_0..g_top off them.  Since
sum_{i=0}^{v} (-1)^i e_i(xi) h_(n-i)(xi) = 0 for every n >= 1 (Macdonald,
Symmetric Functions and Hall Polynomials, I.2: H(t) E(-t) = 1 with
e_i(xi) = 0 for i > v), every p >= v gives, as expanded polynomials,

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
`chern_division` computes both by one long division of c_t(U) by the
monic c_t(U') in t, on the coefficient lists e_i(U) and e_j(U'):
delta_t is its quotient, and the two sides of the exchange relation in
`exchange_lhs_rhs` are its remainders c_t(U) - delta_t(U, V_k) c_t(V_k)
for U the inflow and the outflow of node k.

Equivariance and the classical slice are read from the table: every
function here is handed a variable table, a frozen node's roots are its
u variables when the table holds them and zeros otherwise
(`quiver.node_roots`), and Q[k] is zero when the table holds no Q
(`quiver.kaehler_variable`).  Both modes are decided once, in
`quiver.build_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .polycore import MultiPoly, VarTable
from .quiver import (
    Quiver,
    WeightData,
    cocharacter,
    gauge_blocks,
    kaehler_sign,
    kaehler_variable,
    node_roots,
)
from .symfun import (
    antisymmetrize,
    chern_from_roots,
    completes,
    elementaries,
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


def node_relations(
    q: Quiver,
    k: str,
    top: int,
    table: VarTable,
) -> list:
    """Relation generators [g_0, ..., g_top] of gauge node k, g_p with
    insertion power p (see module docstring for both stability signs);
    in a table without Q they are the classical relations at Q[k] = 0."""
    v = q.dim(k)
    e_in = elementaries(table, inflow_roots(q, k, table))
    e_out = elementaries(table, outflow_roots(q, k, table))
    vm, vp = len(e_in) - 1, len(e_out) - 1
    qk = kaehler_variable(table, k)
    vsign = -1 if (v - 1) % 2 else 1
    # g_p = sum_m c_m h_(m+p-v+1)(xi) with
    # c_m = ls (-1)^(v- - m) e_(v- - m)(mu) + rs (-1)^m Q_k e_(v+ - m)(nu)
    ls, rs = (1, -vsign) if q.theta(k) > 0 else (vsign, -1)
    coeffs = []
    for m in range(max(vm, vp) + 1):
        c = MultiPoly.zero(table)
        if m <= vm and e_in[vm - m]:
            c = _signed(ls * (-1) ** (vm - m), e_in[vm - m])
        if m <= vp and e_out[vp - m]:
            c = c + _signed(rs * (-1) ** m, qk * e_out[vp - m])
        coeffs.append(c)
    h = completes(table, node_roots(q, table, k), len(coeffs) + top - v)
    out = []
    for p in range(top + 1):
        g = MultiPoly.zero(table)
        for m, c in enumerate(coeffs):
            i = m + p - v + 1
            if i >= 0 and c and h[i]:
                g = g + c * h[i]
        out.append(g)
    return out


def _signed(sign: int, p: MultiPoly) -> MultiPoly:
    return p if sign > 0 else -p


def build_ideal(q: Quiver, p_max: int, table: VarTable) -> IdealPresentation:
    """All node relations for insertion powers 0..p_max, one list.

    The chosen curve degree per node is sgn(theta_k) times the first
    coordinate cocharacter; negative-stability relations are already
    normalized to polynomials in Q.
    """
    return _node_ideal(q, p_max, lambda v: p_max, table)


def spanning_ideal(q: Quiver, p_max: int, table: VarTable) -> IdealPresentation:
    """The ideal of `build_ideal`, generated by the relations with
    insertion powers 0..min(p_max, v-1) at each node of dimension v; the
    others are redundant (see the module docstring)."""
    return _node_ideal(q, p_max, lambda v: min(p_max, v - 1), table)


def _node_ideal(
    q: Quiver,
    p_max: int,
    top: Callable[[int], int],
    table: VarTable,
) -> IdealPresentation:
    """Nonzero node relations for insertion powers 0..top(v) per node."""
    gens = []
    degrees = []
    for n in q.gauge_nodes:
        degrees.append((n.id, 1 if n.theta > 0 else -1))
        gens.extend(g for g in node_relations(q, n.id, top(n.dim), table) if not g.is_zero())
    return IdealPresentation(q, table, tuple(gens), p_max, tuple(degrees))


# -- Chern classes and truncated quotients ----------------------------------------


def chern_poly(q: Quiver, nid: str, table: VarTable) -> MultiPoly:
    """Total Chern polynomial of the tautological bundle at a node."""
    return chern_from_roots(table, node_roots(q, table, nid))


def chern_division(
    table: VarTable,
    roots_num: Sequence,
    roots_den: Sequence,
) -> tuple:
    """(delta_t(U, U'), remainder): c_t(U) = delta_t(U, U') c_t(U') +
    remainder with t-degree below |U'|, by one long division in t by the
    monic c_t(U').  U = roots_num, U' = roots_den."""
    # coefficients of c_t(U), descending in t; the division overwrites
    # a[0..r-s] with the quotient and a[r-s+1..r] with the remainder
    a = elementaries(table, roots_num)
    b = elementaries(table, roots_den)
    r, s = len(a) - 1, len(b) - 1
    for p in range(r - s + 1):
        if a[p]:
            for j in range(1, s + 1):
                if b[j]:
                    a[p + j] = a[p + j] - b[j] * a[p]
    cut = max(r - s + 1, 0)
    return _t_poly(table, a[:cut], r - s), _t_poly(table, a[cut:], min(r, s - 1))


def _t_poly(table: VarTable, coeffs: Sequence, top: int) -> MultiPoly:
    """sum_i coeffs[i] t^(top - i)."""
    it = table.index("t")
    out = MultiPoly.zero(table)
    for i, c in enumerate(coeffs):
        d = top - i
        out = out + MultiPoly(table, {e[:it] + (e[it] + d,) + e[it + 1:]: x
                                      for e, x in c.terms.items()})
    return out


def truncated_chern_quotient(
    table: VarTable,
    roots_num: Sequence,
    roots_den: Sequence,
) -> MultiPoly:
    """delta_t(U, U'): polynomial part of c_t(U)/c_t(U') in powers of t."""
    return chern_division(table, roots_num, roots_den)[0]


def node_chern_quotient(
    q: Quiver,
    num: str | None,
    den: str | None,
    table: VarTable,
) -> MultiPoly:
    """delta_t between two node bundles; None stands for the zero bundle."""
    rn = node_roots(q, table, num) if num is not None else []
    rd = node_roots(q, table, den) if den is not None else []
    return truncated_chern_quotient(table, rn, rd)


def inflow_roots(q: Quiver, k: str, table: VarTable) -> list:
    out = []
    for e in q.in_edges(k):
        for _ in range(e.count):
            out.extend(node_roots(q, table, e.src))
    return out


def outflow_roots(q: Quiver, k: str, table: VarTable) -> list:
    out = []
    for e in q.out_edges(k):
        for _ in range(e.count):
            out.extend(node_roots(q, table, e.dst))
    return out


def exchange_lhs_rhs(q: Quiver, k: str, table: VarTable) -> tuple:
    """Both sides of the quantum exchange relation at gauge node k.

    Positive stability:
      lhs = c_t(inflow) - delta_t(inflow, V_k) c_t(V_k)
      rhs = -s Q_k (c_t(outflow) - delta_t(outflow, V_k) c_t(V_k))

    Negative stability keeps the same two sides but clears the inverse
    Kaehler variable to the other side:
      lhs = -s (c_t(inflow) - delta_t(inflow, V_k) c_t(V_k))
      rhs = Q_k (c_t(outflow) - delta_t(outflow, V_k) c_t(V_k))

    with s = (-1)^(v- - v) the Kaehler sign of `quiver.kaehler_sign`;
    the table must hold t, and in a table without Q the side carrying
    Q_k is zero.
    """
    vk = node_roots(q, table, k)
    left = chern_division(table, inflow_roots(q, k, table), vk)[1]
    right = chern_division(table, outflow_roots(q, k, table), vk)[1]
    qk = kaehler_variable(table, k)
    sign = -kaehler_sign(q, k)
    if q.theta(k) > 0:
        return left, sign * qk * right
    return sign * left, qk * right
