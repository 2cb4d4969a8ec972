"""Cluster-to-cohomology embedding: substitution, images, closed forms.

Hand-derived goldens:
  * Kaehler elimination on the two-step chain [4] -> (3) -> (2):
    Q[1] -> -zeta[0]^-1 zeta[2] and Q[2] -> -zeta[1]^-1 (signs from the
    parity of inflow minus rank), and on [4] -> (2): Q[1] -> +zeta[0]^-1;
  * on [4] -> (2) the once-mutated variable is (x_frozen + 1)/x_gauge, so
    its image is (zeta[0] t^4 + 1) over the node image at the gauge node.
"""

from fractions import Fraction

import pytest

import quiverqh.embed
import quiverqh.presentation
from quiverqh.polycore import MultiPoly, Variable, VarTable, poly_to_text, product
from quiverqh.quiver import build_table, kaehler_sign, resolve_pmax
from quiverqh.presentation import build_ideal, chern_poly, node_chern_quotient
from quiverqh.groebner import (
    Budget,
    BudgetError,
    _poly,
    _term_images,
    buchberger,
    laurent_contains,
    laurent_extension,
    normal_form,
)
from quiverqh.embed import (
    PsiImage,
    _substituted_ideal,
    exchange_image_diff,
    injectivity_witness,
    node_image,
    node_images,
    psi_adjacent,
    psi_of_cluster_variable,
    psi_yhat_qfactor,
    transformation_link_check,
    type_a_chain,
    verify_exchange_image,
    verify_type_a,
    zeta_substitution,
)

from conftest import (
    clear_laurent,
    cleared_laurent_basis,
    typed,
    with_inverses,
    zeta_side_generators,
)


def ztable(q, **kw):
    return build_table(q, equivariant=False, with_t=True, with_zeta=True, **kw)


def test_zeta_substitution_two_step_chain(quivers):
    q = quivers("fl234")
    table = ztable(q)
    sub = zeta_substitution(q, table)
    assert set(sub) == {"Q[1]", "Q[2]"}
    assert sub["Q[1]"] == MultiPoly.monomial(table, {"zeta[0]": -1, "zeta[2]": 1}, -1)
    assert sub["Q[2]"] == MultiPoly.monomial(table, {"zeta[1]": -1}, -1)


def test_zeta_substitution_one_node(quivers):
    q = quivers("gr24")
    table = ztable(q)
    sub = zeta_substitution(q, table)
    # inflow 4 minus rank 2 is even: positive sign
    assert sub["Q[1]"] == MultiPoly.monomial(table, {"zeta[0]": -1})


def test_node_image_shape(quivers):
    q = quivers("fl234")
    table = ztable(q)
    for nid, dim in (("0", 4), ("1", 3), ("2", 2)):
        img = node_image(q, nid, table)
        assert img.coeff_of({f"zeta[{nid}]": 1, "t": dim}) == 1
        expect = MultiPoly.variable(table, f"zeta[{nid}]") * chern_poly(q, nid, table)
        assert img == expect


def test_node_image_reads_equivariance_from_the_table(quivers):
    q = quivers("gr24")
    table = build_table(q, equivariant=True, with_t=True, with_zeta=True)
    t = MultiPoly.variable(table, "t")
    expect = MultiPoly.variable(table, "zeta[0]") * product(
        table, (t + MultiPoly.variable(table, f"u[0][{j}]") for j in range(1, 5))
    )
    assert node_image(q, "0", table) == expect


def test_path_image_golden(quivers):
    q = quivers("gr24")
    table = ztable(q)
    images = node_images(q, table)
    img = psi_of_cluster_variable(q, (1,), 1, images)
    assert img.den == (("1", 1),)
    expect = MultiPoly.monomial(table, {"zeta[0]": 1, "t": 4}) + MultiPoly.const(table, 1)
    assert img.num == expect
    # the denominator expands to the node image itself
    assert img.den_poly(images) == node_image(q, "1", table)


def kaehler_basis(q, p_max, equivariant):
    table = build_table(q, equivariant=equivariant, with_t=True, with_q=True)
    return buchberger(build_ideal(q, p_max, table=table).generators)


def test_single_step_path_matches_adjacent_mod_ideal(quivers):
    # the mutation-path image and the closed-form adjacent image are
    # different polynomials but agree as fractions modulo the relations
    q = quivers("gr24")
    gb_q = kaehler_basis(q, 3, False)
    gb, t_z = _substituted_ideal(q, gb_q, budget=None)
    path_img = psi_of_cluster_variable(q, (1,), 1, node_images(q, t_z))
    adj_img = psi_adjacent(q, "1", t_z)
    assert path_img.den == adj_img.den
    diff = path_img.num - adj_img.num
    assert not diff.is_zero()  # genuinely different representatives
    for _, coeff in diff.coefficients_in("t"):
        assert laurent_contains(gb, coeff)


def test_empty_path_image_is_initial(quivers):
    q = quivers("fl234")
    table = ztable(q)
    img = psi_of_cluster_variable(q, (), 1, node_images(q, table))
    assert img.den == ()
    assert img.num == node_image(q, "1", table)


def test_psi_image_rejects_negative_multiplicity(quivers):
    q = quivers("gr24")
    table = ztable(q)
    with pytest.raises(ValueError):
        PsiImage(MultiPoly.const(table, 1), (("1", -1),))


def test_exchange_image_diff_requires_positive_stability(quivers):
    q = quivers("vgit312_minus")
    table = build_table(q, equivariant=False, with_t=True, with_q=True)
    with pytest.raises(ValueError):
        exchange_image_diff(q, "1", table)


def exchange_table(q, equivariant=False, with_q=True):
    return build_table(q, equivariant=equivariant, with_t=True, with_q=with_q)


def test_verify_exchange_image_one_node(quivers):
    q = quivers("gr24")
    assert verify_exchange_image(q, exchange_table(q), ["1"]) == [(True, None)]
    # the classical slice Q -> 0: a table without Q
    assert verify_exchange_image(q, exchange_table(q, with_q=False), ["1"]) == [(True, None)]


def test_verify_exchange_image_equivariant(quivers):
    q = quivers("gr24")
    table = exchange_table(q, equivariant=True)
    assert verify_exchange_image(q, table, ["1"]) == [(True, None)]


def test_verify_exchange_image_one_row_per_node(quivers):
    q = quivers("fl234")
    table = exchange_table(q)
    assert verify_exchange_image(q, table, ["2", "1", "2"]) == [(True, None)] * 3
    assert verify_exchange_image(q, table, []) == []


def zero_relations_past(monkeypatch, top):
    """Make every node_relations call return g_p = 0 for p > top."""
    relations = quiverqh.presentation.node_relations

    def truncated(q, k, last, table):
        return [g if p <= top else MultiPoly.zero(table)
                for p, g in enumerate(relations(q, k, last, table))]

    monkeypatch.setattr(quiverqh.presentation, "node_relations", truncated)


def test_verify_exchange_image_witness(quivers, monkeypatch):
    # with g_1 zeroed the cofactor sum of the dim-2 node misses its g_1 term
    q = quivers("gr24")
    zero_relations_past(monkeypatch, 0)
    [(ok, witness)] = verify_exchange_image(q, exchange_table(q), ["1"])
    assert not ok
    assert witness.startswith("t^0 coefficient is not its cofactor sum: ")


@pytest.mark.parametrize("node, top", [("1", 0), ("1", 1), ("1", 2), ("2", 0)])
def test_exchange_image_fails_without_a_spanning_relation(quivers, monkeypatch, node, top):
    # zeroing g_p for p > top takes s (-1)^j e_(i-j)(xi) g_j, j > top, out
    # of the sum; the highest t power it reaches is t^(v-2-top), where the
    # missing term is s (-1)^(top+1) g_(top+1), with s the Kaehler sign
    q = quivers("fl245")
    table = exchange_table(q, equivariant=True)
    v = q.dim(node)
    g = quiverqh.presentation.node_relations(q, node, v - 1, table)
    missing = kaehler_sign(q, node) * (-1) ** (top + 1) * g[top + 1]
    assert missing
    zero_relations_past(monkeypatch, top)
    assert verify_exchange_image(q, table, [node]) == [(False, (
        f"t^{v - 2 - top} coefficient is not its cofactor sum: {poly_to_text(missing)}"))]


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("node", ["1", "2"])
def test_exchange_image_fails_with_the_q_term_flipped(quivers, monkeypatch, node, equivariant):
    # rhs -> -rhs in exchange_lhs_rhs moves the difference by -2 rhs, whose
    # highest t-coefficient the witness names
    q = quivers("fl245")
    table = exchange_table(q, equivariant=equivariant)
    sides = quiverqh.embed.exchange_lhs_rhs
    monkeypatch.setattr(quiverqh.embed, "exchange_lhs_rhs",
                        lambda q, k, table: (sides(q, k, table)[0], -sides(q, k, table)[1]))
    power, coeff = (-2 * sides(q, node, table)[1]).coefficients_in("t")[0]
    assert verify_exchange_image(q, table, [node]) == [(False, (
        f"t^{power} coefficient is not its cofactor sum: {poly_to_text(coeff)}"))]


@pytest.mark.parametrize("name,node", [
    ("gr24", "1"), ("fl234", "1"), ("fl234", "2"), ("fl245", "1"), ("fl245", "2"),
])
def test_transformation_link(quivers, name, node):
    q = quivers(name)
    assert transformation_link_check(q, node, ztable(q, with_q=True))


def test_transformation_link_equivariant(quivers):
    q = quivers("fl234")
    table = build_table(q, equivariant=True, with_t=True, with_q=True, with_zeta=True)
    assert transformation_link_check(q, "1", table)


@pytest.mark.parametrize("name,nrows", [("gr24", 5), ("fl234", 12), ("fl245", 12)])
def test_type_a_suite(quivers, name, nrows):
    q = quivers(name)
    rows = verify_type_a(q, kaehler_basis(q, resolve_pmax(q, None), False))
    assert len(rows) == nrows
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]][:2]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"quotient-product", "quotient-chain", "image"}


def test_type_a_equivariant(quivers):
    q = quivers("fl234")
    rows = verify_type_a(q, kaehler_basis(q, resolve_pmax(q, None), True))
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]][:2]


def test_type_a_rejects_failing_chain(quivers):
    q = quivers("fl123")
    gb = kaehler_basis(q, resolve_pmax(q, None), False)
    with pytest.raises(ValueError, match="type-A"):
        verify_type_a(q, gb)
    with pytest.raises(ValueError, match="type-A"):
        type_a_chain(q)


def raw_generator_laurent_basis(q, p_max, equivariant):
    """Oracle: the zeta-side basis from the substituted raw generators of
    build_ideal, with no Kaehler basis in between, by the cleared-
    denominator route rather than through laurent_basis."""
    return cleared_laurent_basis(*zeta_side_generators(q, p_max, equivariant))


# fingerprints of the Kaehler and zeta-side bases of fl245, equivariant
FL245_EQ_FINGERPRINTS = (
    "042b633498bb8808f29c1af71cf68db3287ba92eec95a851b6271b652a9fadf2",
    "f31a594bd116eacfd703d33dd51ac4cdd2f942b9ee6b98fbe66811dbc274919b",
)


TYPE_A_FIXTURES = ["p2", "gr24", "fl234", "fl245"]


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("name", TYPE_A_FIXTURES)
def test_zeta_basis_from_kaehler_basis_matches_raw_generators(
    monkeypatch, quivers, name, equivariant
):
    # the basis transferred from the Kaehler basis, with no S-pair
    # reduced, is the one the raw generators give by the cleared route
    q = quivers(name)
    p_max = resolve_pmax(q, None)
    gb_q = kaehler_basis(q, p_max, equivariant)
    seen = []

    def recording(q, table):
        seen.append(table)
        return zeta_substitution(q, table)

    monkeypatch.setattr(quiverqh.embed, "zeta_substitution", recording)
    gb_z, t_z = _substituted_ideal(q, gb_q, budget=Budget(max_pairs=0))
    # the table comes from gb_q's and holds what build_table would give;
    # the images are built in it
    kw = dict(equivariant=equivariant, with_t=True, with_zeta=True)
    assert t_z.names == build_table(q, **kw).names
    assert seen == [t_z]
    want = raw_generator_laurent_basis(q, p_max, equivariant)
    assert gb_z.fingerprint == want.fingerprint
    assert [poly_to_text(g) for g in gb_z] == [poly_to_text(g) for g in want]
    if (name, equivariant) == ("fl245", True):
        assert (gb_q.fingerprint, gb_z.fingerprint) == FL245_EQ_FINGERPRINTS


def kaehler_images(q, gb_q):
    """(extension table, inverse relations, image terms of each Kaehler
    basis element): the generators of the zeta-side basis."""
    t_z = gb_q.table.drop(gb_q.table.of_class("Q")).extend(Variable.zeta(n.id) for n in q.nodes)
    ext, rels = laurent_extension(t_z, t_z.of_class("zeta"))
    sub = zeta_substitution(q, t_z)
    return ext, rels, [_term_images(g, ext, sub) for g in gb_q]


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("name", ["fl234", "fl245"])
def test_kaehler_elimination_matches_convert_substitute_convert(quivers, name, equivariant):
    # one pass per Kaehler basis element gives the polynomials of the
    # old route: convert to the t/Q/zeta table, substitute, convert to
    # the extension table and write negative zeta powers as inverses
    q = quivers(name)
    gb_q = kaehler_basis(q, resolve_pmax(q, None), equivariant)
    ext, _, images = kaehler_images(q, gb_q)
    t_qz = gb_q.table.extend(Variable.zeta(n.id) for n in q.nodes)
    sub = zeta_substitution(q, t_qz)
    for g, terms in zip(gb_q, images):
        assert len(terms) == len(g.terms)
        want = with_inverses(g.convert(t_qz).substitute(sub), ext)
        assert typed(_poly(ext, terms).terms) == typed(want.terms)


def test_kaehler_elimination_sums_colliding_terms():
    # two Kaehler variables with the same image: their terms land on one
    # monomial, where halves add up to an int and opposite signs cancel
    t_qz = VarTable([Variable.xi("1", 1), Variable.q("1"), Variable.q("2"), Variable.zeta("0")])
    t_z = t_qz.drop(["Q[1]", "Q[2]"])
    ext, _ = laurent_extension(t_z, ["zeta[0]"])
    x, q1, q2, zeta = (MultiPoly.variable(t_qz, n) for n in t_qz.names)
    sub = {"Q[1]": zeta ** -1, "Q[2]": -zeta ** -1}
    g = x * q1 * Fraction(1, 2) - x * q2 * Fraction(1, 2) + q1 ** 2 - q2 ** 2 + q1 * q2 + 3
    inv = MultiPoly.variable(ext, "inv.zeta[0]")
    want = MultiPoly.variable(ext, "xi[1][1]") * inv - inv ** 2 + 3
    assert typed(_poly(ext, _term_images(g, ext, sub)).terms) == typed(want.terms)
    assert typed(with_inverses(g.substitute(sub), ext).terms) == typed(want.terms)
    # powers are placed one by one: zeta * Q[1] is zeta * inv.zeta, where
    # the reference route merges it to 1
    got = _poly(ext, _term_images(zeta * q1, ext, sub))
    assert got == MultiPoly.variable(ext, "zeta[0]") * inv
    assert with_inverses((zeta * q1).substitute(sub), ext) == MultiPoly.const(ext, 1)


def test_zeta_side_basis_step_counts_are_pinned(quivers):
    # fl245, equivariant: the transferred zeta-side basis reduces no
    # S-pair and takes no reduction step; its generators through plain
    # buchberger take exactly 1 182 steps
    q = quivers("fl245")
    gb_q = kaehler_basis(q, resolve_pmax(q, None), True)
    gb_z, _ = _substituted_ideal(q, gb_q, budget=Budget(max_pairs=0, max_steps=0))
    ext, rels, images = kaehler_images(q, gb_q)
    gens = [_poly(ext, terms) for terms in images] + rels
    assert buchberger(gens, budget=Budget(max_steps=1182)).fingerprint == gb_z.fingerprint
    with pytest.raises(BudgetError):
        buchberger(gens, budget=Budget(max_steps=1181))


@pytest.mark.parametrize("name,node", [
    ("principal_rank1", "1"), ("gr24", "1"), ("fl234", "1"), ("fl234", "2"),
])
def test_yhat_qfactor(quivers, name, node):
    assert psi_yhat_qfactor(quivers(name), node)


def test_injectivity_witness(quivers):
    q = quivers("fl234")
    assert injectivity_witness(q, ztable(q)) == [
        ("0", "zeta[0]", 4),
        ("1", "zeta[1]", 3),
        ("2", "zeta[2]", 2),
    ]


def zeta_side_coefficients(q, gb_z, t_z):
    """The t-coefficients of every zeta-side difference that verify_type_a
    hands to laurent_contains: img.num - rhs * img.den along the chain."""
    chain = type_a_chain(q)
    images = node_images(q, t_z)
    out = []
    for k in range(len(chain)):
        for l in range(k + 1, len(chain)):
            rhs = (MultiPoly.monomial(t_z, {f"zeta[{chain[k]}]": 1, f"zeta[{chain[l]}]": -1})
                   * node_chern_quotient(q, chain[k], chain[l], t_z))
            img = psi_of_cluster_variable(q, tuple(range(k + 1, l + 1)), l, images)
            diff = img.num - rhs * img.den_poly(images)
            out += [c for _, c in diff.coefficients_in("t")]
    return out


def test_one_pass_laurent_contains_matches_the_reference_routes(quivers):
    # fl245 --equivariant: each coefficient, and each one corrupted by xi*t,
    # gets the verdict of rewriting inverses then normal_form, and of
    # clearing denominators then normal_form
    q = quivers("fl245")
    gb_z, t_z = _substituted_ideal(q, kaehler_basis(q, resolve_pmax(q, None), True), None)
    names = t_z.of_class("zeta")
    xi_t = MultiPoly.monomial(t_z, {t_z.of_class("xi")[0]: 1, "t": 1})
    coeffs = zeta_side_coefficients(q, gb_z, t_z)
    assert len(coeffs) == 12
    for c in coeffs:
        for p, member in ((c, True), (c + xi_t, False)):
            ref = normal_form(with_inverses(p, gb_z.table), gb_z).is_zero()
            cleared = normal_form(clear_laurent(p, names).convert(gb_z.table), gb_z).is_zero()
            assert laurent_contains(gb_z, p) == ref == cleared == member
