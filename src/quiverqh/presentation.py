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
the ideal of g_0, ..., g_(v-1).  `spanning_ideal` builds only those:
they generate the presentation ideal, which every Groebner basis of the
CLI is computed from.  `build_ideal` lists g_0..g_p_max for `present`,
redundant relations included; its ideal is the same for p_max >= v-1.
The same identity gives the exchange relation at a theta > 0 node as an
explicit combination of g_0, ..., g_(v-1) (`exchange_cofactor_sum`).

Triangular family and free rank: for i = 1..v let

    G_(k,i) = sum_m c_m h_(m-v+i)(xi_(k,i), ..., xi_(k,v))
            = sum_j (-1)^j e_j(xi_(k,1), ..., xi_(k,i-1)) g_(i-1-j),

the second form by H(t) of xi_(k,i..v) = H(t) E(-t) of xi_(k,1..v) and
xi_(k,1..i-1) (Macdonald I.2).  It is unitriangular in g_0..g_(v-1), so the
G_(k,i) (`triangular_family`) generate the same ideal I.  Order the
monomials by grevlex with the gauge nodes' roots first, a node after
every node it has an arrow to (sinks first), each node's roots in index
order, then every other variable.  At a node of inflow excess
v- - v+ >= 1, G_(k,i) has the lead +-xi_(k,i)^(v- - v + i): its terms
without Q have that degree and hold, besides xi_(k,i), only later
variables (the node's later roots, the roots of nodes with an arrow into
it, u), and its Q terms have at most that degree and hold Q, which comes
after every root.  `free_rank` checks these leads rather than assume
them.  When they hold they are pure powers in distinct variables, so the
family is a Groebner basis (Cox, Little & O'Shea, *Ideals, Varieties,
and Algorithms*, Ch. 2 Sec. 9 Prop. 4).  Its standard monomials are the
products of a monomial in the box prod xi_(k,i)^(< a_(k,i)) and a
monomial of A, the polynomial ring in every variable but the xi; they
are a basis of R/I over the field, so the box is a basis of R/I over A,
and R/I is free over A of rank prod_k v-!/(v- - v)!.  At a node of
excess <= 0 a Q term leads (v212: (1 - Q) xi^2) and `free_rank` gives
None.  `groebner.buchberger` reads that rank to stop pairing early.

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

from typing import Callable, Mapping, NamedTuple, Sequence

from .polycore import MultiPoly, VarTable, poly_to_text
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
    completes,
    elementaries,
    insertion_exponents,
    positive_root_pairing,
)


class IdealPresentation(NamedTuple):
    """Polynomial generators of the relation ideal, with build metadata."""

    table: VarTable
    generators: tuple
    degrees: tuple  # one (node id, sign) per gauge node


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

    p_insert maps a gauge node to its inserted power (default 0).  The
    prefactor is symmetric in the roots of a block that d does not touch,
    so that block's exponents must be distinct or the relation is 0: such
    a block with repeated exponents (p in 0..v-2 for dim v >= 2) raises
    ValueError naming its node.  Giving it the full staircase, p = v-1,
    leaves the relation of the blocks d touches.
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
        if len(set(exps[nid])) < len(names) and not any(d.get(nid, ())):
            raise ValueError(
                f"node {nid!r}: insertion exponents {exps[nid]} repeat on a block "
                f"d does not touch, so the relation antisymmetrizes to 0"
            )
    return antisymmetrize(table, blocks, exps, prefactor)


def _relation_coefficients(q: Quiver, k: str, table: VarTable) -> list:
    """[c_0, ..., c_M] of gauge node k, M = max(v-, v+): the coefficients,
    independent of p, of g_p = sum_m c_m h_(m+p-v+1)(xi) (module
    docstring), read by `node_relations` and `triangular_family`."""
    e_in = elementaries(table, inflow_roots(q, k, table))
    e_out = elementaries(table, outflow_roots(q, k, table))
    vm, vp = len(e_in) - 1, len(e_out) - 1
    qk = kaehler_variable(table, k)
    vsign = -1 if (q.dim(k) - 1) % 2 else 1
    # c_m = ls (-1)^(v- - m) e_(v- - m)(mu) + rs (-1)^m Q_k e_(v+ - m)(nu)
    ls, rs = (1, -vsign) if q.theta(k) > 0 else (vsign, -1)
    coeffs = []
    for m in range(max(vm, vp) + 1):
        c = MultiPoly.zero(table)
        if m <= vm and e_in[vm - m]:
            c = ls * (-1) ** (vm - m) * e_in[vm - m]
        if m <= vp and e_out[vp - m]:
            c = c + rs * (-1) ** m * (qk * e_out[vp - m])
        coeffs.append(c)
    return coeffs


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
    coeffs = _relation_coefficients(q, k, table)
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


def build_ideal(q: Quiver, p_max: int, table: VarTable) -> IdealPresentation:
    """All node relations for insertion powers 0..p_max, one list.

    The chosen curve degree per node is sgn(theta_k) times the first
    coordinate cocharacter; negative-stability relations are already
    normalized to polynomials in Q.
    """
    return _node_ideal(q, lambda v: p_max, table)


def spanning_ideal(q: Quiver, table: VarTable) -> IdealPresentation:
    """The presentation ideal, generated by the relations with insertion
    powers 0..v-1 at each node of dimension v; every higher power lies in
    their ideal (see the module docstring)."""
    return _node_ideal(q, lambda v: v - 1, table)


def triangular_family(q: Quiver, table: VarTable) -> dict:
    """{name of xi_(k,i): G_(k,i)} over every gauge node k and i = 1..v,
    v = dim V_k, in node order:

        G_(k,i) = sum_m c_m h_(m-v+i)(xi_(k,i), ..., xi_(k,v))

    with the c_m of `node_relations`.  G_(k,1) = g_0, and the family spans
    the ideal of `spanning_ideal` (module docstring)."""
    out = {}
    for n in q.gauge_nodes:
        v = n.dim
        c = _relation_coefficients(q, n.id, table)
        roots = node_roots(q, table, n.id)
        for i in range(1, v + 1):
            h = completes(table, roots[i - 1:], len(c) - 1 - v + i)
            g = MultiPoly.zero(table)
            for m in range(v - i, len(c)):
                if c[m] and h[m - v + i]:
                    g = g + c[m] * h[m - v + i]
            out[f"xi[{n.id}][{i}]"] = g
    return out


def _sinks_first(q: Quiver) -> list:
    """Gauge node ids, each after every gauge node it has an arrow to, ties
    in node order; when an oriented cycle leaves no node ready, the rest
    follow in node order."""
    gauge = {n.id for n in q.gauge_nodes}
    order: list = []
    rest = [n.id for n in q.gauge_nodes]
    while rest:
        ready = [k for k in rest
                 if all(e.dst in order or e.dst not in gauge for e in q.out_edges(k))]
        order += ready or rest
        rest = [k for k in rest if k not in order]
    return order


def free_rank(q: Quiver, table: VarTable) -> int | None:
    """The rank n of the presentation ideal's quotient R/I as a free module
    over A, the polynomial ring in the variables of table other than xi,
    when `triangular_family` proves it, and None otherwise.

    The leads of the family are taken under their own key, not the table
    order: grevlex with the gauge nodes' roots first, sinks first
    (`_sinks_first`), each node's roots in index order, then every other
    variable in table order.  When each G_(k,i) has the lead
    +-xi_(k,i)^(a_(k,i)), a_(k,i) >= 1, the rank is n = prod a_(k,i): see
    the module docstring.  That holds at every node of inflow excess
    v- - v+ >= 1, with a_(k,i) = v- - v + i; at a node of excess <= 0 a Q
    term leads and the answer is None."""
    cols = [table.index(f"xi[{k}][{j}]") for k in _sinks_first(q)
            for j in range(1, q.dim(k) + 1)]
    cols += [i for i in range(table.nvars) if i not in cols]
    last_first = cols[::-1]

    def key(e: tuple) -> tuple:
        return sum(e), tuple(-e[i] for i in last_first)

    n = 1
    for name, g in triangular_family(q, table).items():
        if not g:
            return None
        lead = max(g.terms, key=key)
        a = lead[table.index(name)]
        if a < 1 or sum(lead) != a or g.terms[lead] not in (1, -1):
            return None
        n *= a
    return n


def compare_chambers(qa: Quiver, qb: Quiver, table: VarTable) -> list:
    """One row dict (node, theta, epsilon, ok, witness) per gauge node k of
    qa, for qb the same quiver with other stability weights theta.

    theta_k enters the g_p of k only through (ls, rs) of `node_relations`:
    (1, -s) at theta_k > 0 and (s, -1) = s * (1, -s) below, s = (-1)^(v-1).
    Both quivers have the same nodes and dims, so one table holds both
    sides' relations.  A row passes when qb's g_0..g_(v-1) at k are
    epsilon times qa's, one epsilon in {1, -1} read off the first p where
    either is nonzero.  They span each side's ideal (module docstring), so
    rows that all pass prove the two ideals equal, before Q is inverted,
    with no Groebner basis.  A failed row's witness is its first p whose
    relations differ and the text of g_B,p - epsilon * g_A,p."""
    rows = []
    for n in qa.gauge_nodes:
        ga = node_relations(qa, n.id, n.dim - 1, table)
        gb = node_relations(qb, n.id, n.dim - 1, table)
        eps = next((-1 if b == -a else 1 for a, b in zip(ga, gb) if a or b), 1)
        witness = next((f"p={p}: {poly_to_text(b - eps * a)}"
                        for p, (a, b) in enumerate(zip(ga, gb)) if b != eps * a), None)
        rows.append({"node": n.id, "theta": [qa.theta(n.id), qb.theta(n.id)],
                     "epsilon": eps, "ok": witness is None, "witness": witness})
    return rows


def _node_ideal(q: Quiver, top: Callable[[int], int], table: VarTable) -> IdealPresentation:
    """Nonzero node relations for insertion powers 0..top(v) per node."""
    gens = []
    degrees = []
    for n in q.gauge_nodes:
        degrees.append((n.id, 1 if n.theta > 0 else -1))
        gens.extend(g for g in node_relations(q, n.id, top(n.dim), table) if not g.is_zero())
    return IdealPresentation(table, tuple(gens), tuple(degrees))


# -- Chern classes and truncated quotients ----------------------------------------


def chern_poly(q: Quiver, nid: str, table: VarTable) -> MultiPoly:
    """Total Chern polynomial c_t(V) of the tautological bundle at a node,
    as delta_t(V, 0)."""
    return node_chern_quotient(q, nid, None, table)


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


def exchange_cofactor_sum(q: Quiver, k: str, table: VarTable) -> MultiPoly:
    """The exchange difference rhs - lhs of `exchange_lhs_rhs` at a theta > 0
    node k, written in the node's spanning relations g_j =
    `node_relations(q, k, v - 1, table)[j]`, v = dim V_k:

        s * sum_{i=0}^{v-1} t^(v-1-i) sum_{j=0}^{i} (-1)^j e_(i-j)(xi) g_j

    with s = `quiver.kaehler_sign(q, k)`.  The cofactors s (-1)^j e_(i-j)(xi)
    come from H(t) E(-t) = 1 (Macdonald I.2), as the redundancy of the
    g_p for p >= v does (module docstring).  When this sum equals the
    difference as expanded polynomials, every t-coefficient of the
    difference is an explicit combination of g_0..g_(v-1), so the
    exchange relation lies in the presentation ideal.  The table must
    hold t; in a table without Q it is the classical slice."""
    v = q.dim(k)
    g = node_relations(q, k, v - 1, table)
    e = elementaries(table, node_roots(q, table, k))
    coeffs = []
    for i in range(v):
        c = MultiPoly.zero(table)
        for j in range(i + 1):
            if e[i - j] and g[j]:
                c = c + (-1) ** j * (e[i - j] * g[j])
        coeffs.append(c)
    return kaehler_sign(q, k) * _t_poly(table, coeffs, v - 1)
