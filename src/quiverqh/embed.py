"""Embedding of the cluster algebra into the deformed cohomology ring.

The map sends every initial variable to zeta_i * c_t(V_i) and the adjacent
variable of a gauge node k to a zeta-weighted combination of the two
truncated Chern quotients at k.  Kaehler variables are eliminated through

    Q[k]  ->  (-1)^(vminus_k - v_k) * prod_i zeta_i^(-b_ik),

with b the extended signed adjacency matrix, so every claimed identity
becomes a statement in the polynomial ring in the Chern roots, t and
Laurent zeta variables.  No image is ever inverted: identities about
fractions are cross-multiplied into polynomial form and decided by ideal
membership (zeta inverses are adjoined as explicit auxiliary variables).

Each formula has one definition: the sign is `quiver.kaehler_sign`, the
column b_(.k) is `quiver.btilde_column`, the image of one Q[k] is
`kaehler_image` (a check at node k substitutes only that one; the whole
map is `zeta_substitution`), the node image zeta_i * c_t(V_i) is
`node_image`, and every t-coefficient membership check with its witness
goes through `_t_witness`.

Every mode is read from the table the caller built: a frozen node's
roots are its u variables when the table holds them and zeros otherwise
(`quiver.node_roots`), and Q[k] is zero in a table without Q, the
classical slice (`quiver.kaehler_variable`).  No function here takes an
`equivariant` flag; `psi_yhat_qfactor`, whose check involves no Chern
roots, builds its own table.

Images of general cluster variables are carried as PsiImage fractions: a
polynomial numerator and a denominator recorded as a product of node
images (zeta_i * c_t(V_i))^mult, coming from the monomial denominator of
the cluster variable's Laurent normal form.  A run builds its node images
once (`node_images`) and hands that table to every psi image.
"""

from __future__ import annotations

from typing import Sequence

from .polycore import (
    MultiPoly,
    Variable,
    VarTable,
    poly_to_text,
    product,
)
from .quiver import (
    InputError,
    Quiver,
    _chain_order,
    btilde_column,
    build_table,
    kaehler_sign,
    type_a_failures,
)
from .presentation import (
    chern_poly,
    exchange_lhs_rhs,
    inflow_roots,
    node_chern_quotient,
    node_roots,
    outflow_roots,
    truncated_chern_quotient,
)
from .groebner import (
    Budget,
    GroebnerBasis,
    ideal_contains,
    laurent_contains,
    laurent_image_basis,
)
from .cluster import mutate_path, seed_from_quiver
from . import groebner

# No check here builds a basis; `embed.buchberger` stays a module name because
# perfbench/tests/test_harness.py checks that the tracer wraps this copy.
buchberger = groebner.buchberger


def kaehler_image(q: Quiver, k: str, table: VarTable) -> MultiPoly:
    """The image of Q[k], (-1)^(vminus_k - v_k) * prod_i zeta_i^(-b_ik)."""
    exps = {f"zeta[{i}]": -b for i, b in btilde_column(q, k)}
    return MultiPoly.monomial(table, exps, kaehler_sign(q, k))


def zeta_substitution(q: Quiver, table: VarTable) -> dict[str, MultiPoly]:
    """Kaehler-to-zeta elimination map, Q[k] -> `kaehler_image` per gauge node."""
    return {f"Q[{n.id}]": kaehler_image(q, n.id, table) for n in q.gauge_nodes}


# -- psi images --------------------------------------------------------------------


class PsiImage:
    """Fraction num / prod_(i, m) (zeta_i * c_t(V_i))^m in the zeta ring."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: tuple[tuple[str, int], ...] = ()):
        if any(m < 0 for _, m in den):
            raise ValueError("denominator multiplicities must be nonnegative")
        self.num = num
        self.den = den

    def den_poly(self, images: dict) -> MultiPoly:
        """The denominator as a polynomial; images is the `node_images`
        table in the variable table of num."""
        return product(self.num.table, (images[nid] ** m for nid, m in self.den))


def node_image(q: Quiver, i: str, table: VarTable) -> MultiPoly:
    """zeta_i * c_t(V_i), the image of the initial variable at node i."""
    return MultiPoly.variable(table, f"zeta[{i}]") * chern_poly(q, i, table)


def node_images(q: Quiver, table: VarTable) -> dict[str, MultiPoly]:
    """Node id -> `node_image` in table, for every node: a run's one table
    of initial images."""
    return {n.id: node_image(q, n.id, table) for n in q.nodes}


def _zeta_column_parts(
    q: Quiver, k: str, table: VarTable
) -> tuple[MultiPoly, MultiPoly]:
    """(prod_{b_ik>0} zeta_i^b_ik, prod_{b_ik<0} zeta_i^-b_ik) for node k."""
    column = btilde_column(q, k)
    pos = {f"zeta[{i}]": b for i, b in column if b > 0}
    neg = {f"zeta[{i}]": -b for i, b in column if b < 0}
    return MultiPoly.monomial(table, pos), MultiPoly.monomial(table, neg)


def psi_adjacent(q: Quiver, k: str, table: VarTable) -> PsiImage:
    """Image of the adjacent variable of gauge node k.

    The zeta_k^-1 prefactor is cleared into the denominator, so the
    numerator is c_t(V_k) times the zeta-weighted quotient combination and
    the denominator is the single node image at k.
    """
    ct_k = chern_poly(q, k, table)
    vk = node_roots(q, table, k)
    dminus = truncated_chern_quotient(table, inflow_roots(q, k, table), vk)
    dplus = truncated_chern_quotient(table, outflow_roots(q, k, table), vk)
    pos, neg = _zeta_column_parts(q, k, table)
    num = ct_k * (pos * dminus + neg * dplus)
    return PsiImage(num, ((k, 1),))


def psi_of_cluster_variable(
    q: Quiver, path: Sequence[int], k: int, images: dict
) -> PsiImage:
    """Image of the cluster variable at position k after mutating along path.

    The Laurent normal form is split into a polynomial numerator and a
    monomial denominator; every variable slot is then replaced by its node
    image zeta_i * c_t(V_i), read from images, the `node_images` table of
    q, whose table the result is in.
    """
    seed, node_order = seed_from_quiver(q)
    s = mutate_path(seed, path)
    x = s.position(k)
    table = images[node_order[0]].table

    slot_names = s.xnames + s.cnames
    slots = [x.table.index(nm) for nm in slot_names]
    lows = [min((e[i] for e in x.terms), default=0) for i in slots]
    lift = [0] * x.table.nvars
    for i, m in zip(slots, lows):
        lift[i] = max(-m, 0)
    cleared = x.shift(tuple(lift))
    den = sorted((nid, -m) for nid, m in zip(node_order, lows) if m < 0)

    mix = table.extend(x.table.var(nm) for nm in slot_names)
    bindings = {nm: images[nid].convert(mix) for nm, nid in zip(slot_names, node_order)}
    num = cleared.convert(mix).substitute(bindings).convert(table)
    return PsiImage(num, tuple(den))


# -- exchange-relation verification -------------------------------------------------


def require_exchange_node(q: Quiver, k: str) -> None:
    """The input error for a node outside the unified exchange form (theta <= 0)."""
    if q.theta(k) <= 0:
        raise InputError("unified exchange form implemented for theta > 0 only")


def exchange_image_diff(q: Quiver, k: str, table: VarTable) -> MultiPoly:
    """Unified exchange relation at gauge node k as a single difference,
    rhs - lhs of `exchange_lhs_rhs`:

        c_t(V_k) (delta^- + s Q_k delta^+) - prod_in c_t - s Q_k prod_out c_t

    with s = (-1)^(vminus_k - v_k); zero exactly when the relation holds.
    """
    require_exchange_node(q, k)
    lhs, rhs = exchange_lhs_rhs(q, k, table)
    return rhs - lhs


def verify_exchange_image(
    q: Quiver, gb: GroebnerBasis, nodes: Sequence[str], *, budget: Budget | None = None
) -> list[tuple[bool, str | None]]:
    """One (ok, witness) per node: every t-coefficient of the unified
    exchange difference at the node must reduce to zero modulo the ideal
    of gb, the caller's reduced basis, which every node shares.  The
    differences are built in gb's table, which must hold t; a basis built
    in a table without Q gives the classical Whitney slice Q -> 0."""
    out = []
    for k in nodes:
        witness = _t_witness(
            exchange_image_diff(q, k, gb.table),
            lambda c: ideal_contains(gb, c, budget),
            "t^%d coefficient does not reduce: %s",
        )
        out.append((witness is None, witness))
    return out


def _t_witness(poly: MultiPoly, member, fmt: str) -> str | None:
    """fmt % (power, text) for the first coefficient of poly in t that
    member rejects, None when member accepts every coefficient."""
    for power, coeff in poly.coefficients_in("t"):
        if not member(coeff):
            return fmt % (power, poly_to_text(coeff))
    return None


def transformation_link_check(q: Quiver, k: str, table: VarTable) -> bool:
    """Syntactic link between the cluster exchange relation and the ring
    relation: the image of x_k x'_k = prod + prod (multiplied through
    by the node image denominator) equals the positive zeta part of
    column k times the Kaehler-eliminated exchange difference.  The
    table must hold t, Q and zeta."""
    column = btilde_column(q, k)

    adj = psi_adjacent(q, k, table)
    prod_pos = product(table, (node_image(q, i, table) ** b for i, b in column if b > 0))
    prod_neg = product(table, (node_image(q, i, table) ** -b for i, b in column if b < 0))
    cluster_image = adj.num - prod_pos - prod_neg

    diff = exchange_image_diff(q, k, table)
    pos, _ = _zeta_column_parts(q, k, table)
    # the difference holds no Kaehler variable but Q[k]
    linked = pos * diff.substitute({f"Q[{k}]": kaehler_image(q, k, table)})
    return cluster_image == linked


# -- type-A suite -------------------------------------------------------------------


def _substituted_ideal(
    q: Quiver, gb_q: GroebnerBasis, budget: Budget | None
) -> tuple[GroebnerBasis, VarTable]:
    """Groebner data for the ideal after Kaehler-to-zeta elimination.

    The zeta-side ideal is generated by the substituted elements of the
    Kaehler basis gb_q.  That is exact: Q[k] -> +-zeta-monomial is a ring
    homomorphism into the Laurent ring, so any two generating sets of the
    Kaehler ideal map to generating sets of the same extended ideal, with
    the same reduced basis.  `groebner.laurent_image_basis` maps each
    element in one pass, Q[k] to sign * zeta^pos * inv.zeta^neg.  When
    (a) every image is nonconstant, (b) every lead is free of Q and zeta
    and (c) every lead's image stays above the images of its element's
    other terms, the images with the relations zeta * inv.zeta - 1 are a
    Groebner basis already (Mora & Robbiano 1988; Cox, Little & O'Shea,
    Ch. 2 Sec. 9 Thm 6; the `groebner` module docstring gives the
    argument), so no S-pair among them is reduced.  The t/zeta table is
    gb_q's without Q, with every node's zeta.
    """
    t_z = gb_q.table.drop(gb_q.table.of_class("Q")).extend(Variable.zeta(n.id) for n in q.nodes)
    sub = zeta_substitution(q, t_z)
    return laurent_image_basis(gb_q, sub, t_z, t_z.of_class("zeta"), budget), t_z


def type_a_chain(q: Quiver) -> list:
    """Node ids along q, frozen node first, when q is a type-A chain for
    the suite of `verify_type_a`; any other quiver is an input error."""
    why = type_a_failures(q)
    if why:
        raise InputError(f"quiver is not a type-A chain for this suite: {'; '.join(why)}")
    return _chain_order(q)


def verify_type_a(q: Quiver, gb: GroebnerBasis, *, budget: Budget | None = None) -> list:
    """Closed-form images and quotient identities along a type-A chain,
    one row dict (kind, k, l, ok, witness) per check.

    (a) For 0 <= k <= l <= n the cluster variable x[kl] (mutation path
    k+1,..,l read at position l) must map to
    zeta_k zeta_l^-1 delta_t(V_k, V_l) modulo the zeta-substituted ideal,
    cross-multiplied by the image denominator.
    (b) The two quotient identities behind that closed form are verified
    per t-coefficient against the Kaehler-side ideal, with V_(n+1) the
    zero bundle, so c_t(V_a) is delta_t(V_a, V_(n+1)).

    gb is the caller's reduced basis of the Kaehler-side ideal, in a
    table that holds t and Q; the identities are built in that table.
    The zeta-substituted ideal of (a) is generated by the substituted
    elements of gb, which is exact because the substitution is a ring
    homomorphism (see _substituted_ideal).
    """
    chain = type_a_chain(q)
    n = len(chain) - 1
    table = gb.table
    rows = []
    built: dict = {}

    def delta(a: int, b: int, table: VarTable) -> MultiPoly:
        """delta_t(V_a, V_b) in table, built once per (a, b, table)."""
        key = (a, b, table)
        if key not in built:
            na = chain[a] if a <= n else None
            nb = chain[b] if b <= n else None
            built[key] = node_chern_quotient(q, na, nb, table)
        return built[key]

    for k in range(1, n + 1):
        for l in range(k, n + 1):
            sgn = kaehler_sign(q, chain[l])
            ql = MultiPoly.variable(table, f"Q[{chain[l]}]")
            id1 = (delta(l, n + 1, table) * delta(k - 1, l, table) - delta(k - 1, n + 1, table)
                   - sgn * ql * delta(k - 1, l - 1, table) * delta(l + 1, n + 1, table))
            id2 = (delta(k - 1, l, table) * delta(l, l + 1, table) - delta(k - 1, l + 1, table)
                   - sgn * ql * delta(k - 1, l - 1, table))
            for tag, poly in (("quotient-product", id1), ("quotient-chain", id2)):
                witness = _t_witness(poly, lambda c: ideal_contains(gb, c, budget), "t^%d: %s")
                rows.append(
                    {"kind": tag, "k": k, "l": l, "ok": witness is None, "witness": witness}
                )

    # zeta-side closed forms; the psi images share one node image per node
    gb_z, t_z = _substituted_ideal(q, gb, budget)
    images = node_images(q, t_z)
    for k in range(0, n + 1):
        for l in range(k, n + 1):
            zk = MultiPoly.variable(t_z, f"zeta[{chain[k]}]")
            zl_inv = MultiPoly.variable(t_z, f"zeta[{chain[l]}]", -1)
            rhs = zk * zl_inv * delta(k, l, t_z)
            if k == l:
                diff = MultiPoly.const(t_z, 1) - rhs
                ok = diff.is_zero()
                rows.append(
                    {"kind": "image", "k": k, "l": l, "ok": ok,
                     "witness": None if ok else poly_to_text(diff)}
                )
                continue
            path = tuple(range(k + 1, l + 1))
            img = psi_of_cluster_variable(q, path, l, images)
            diff = img.num - rhs * img.den_poly(images)
            witness = _t_witness(diff, lambda c: laurent_contains(gb_z, c, budget), "t^%d: %s")
            rows.append(
                {"kind": "image", "k": k, "l": l, "ok": witness is None, "witness": witness}
            )
    return rows


# -- principal-coefficient monomial check -------------------------------------------


def psi_yhat_qfactor(q: Quiver, k: str) -> bool:
    """The zeta-monomial of the hatted coefficient image at gauge node k
    must equal the Kaehler-eliminated image of Q[k]^-1, with matching
    parity sign.

    The left side is assembled from the initial seed (tropical coefficient
    times the gauge column); the right side inverts the substitution
    monomial.  The two routes use different bookkeeping, so agreement
    checks the principal-coefficient wiring end to end.
    """
    table = build_table(q, equivariant=False, with_zeta=True)
    seed, node_order = seed_from_quiver(q)
    col = [n.id for n in q.gauge_nodes].index(k)
    # slots follow node_order: the gauge column, then the tropical coefficient
    exps = [seed.btilde[i][col] for i in range(seed.n)] + list(seed.coeffs[col].exps)
    lhs = MultiPoly.monomial(table, {f"zeta[{i}]": e for i, e in zip(node_order, exps)})
    rhs = kaehler_image(q, k, table).invert_monomial()
    return lhs == kaehler_sign(q, k) * rhs


def injectivity_witness(q: Quiver, table: VarTable) -> list[tuple[str, str, int]]:
    """Leading (zeta, t-power) data of the initial images.

    Each image is monic of degree dim in t with its own zeta variable, so
    the leading monomials zeta_i t^(v_i) involve pairwise distinct zeta
    variables and are algebraically independent; raises if the wiring ever
    breaks that.  The table must hold t and zeta."""
    out = []
    seen = set()
    for n in q.nodes:
        lead = node_image(q, n.id, table).coeff_of({f"zeta[{n.id}]": 1, "t": n.dim})
        if lead != 1:
            raise ArithmeticError(
                "initial image at %s is not monic of degree %d in t" % (n.id, n.dim)
            )
        zname = f"zeta[{n.id}]"
        if zname in seen:
            raise ArithmeticError("duplicate zeta variable %s" % zname)
        seen.add(zname)
        out.append((n.id, zname, n.dim))
    return out
