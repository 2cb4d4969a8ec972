"""Cluster-to-cohomology embedding: substitution, images, closed forms.

Hand-derived goldens:
  * Kaehler elimination on the two-step chain [4] -> (3) -> (2):
    Q[1] -> -zeta[0]^-1 zeta[2] and Q[2] -> -zeta[1]^-1 (signs from the
    parity of inflow minus rank), and on [4] -> (2): Q[1] -> +zeta[0]^-1;
  * on [4] -> (2) the once-mutated variable is (x_frozen + 1)/x_gauge, so
    its image is (zeta[0] t^4 + 1) over the node image at the gauge node.
"""

import pytest

import quiverqh.embed
from quiverqh.polycore import MultiPoly, poly_to_text, product
from quiverqh.quiver import build_table, resolve_pmax
from quiverqh.presentation import build_ideal, chern_poly, node_chern_quotient
from quiverqh.groebner import (
    Budget,
    BudgetError,
    _with_inverses,
    buchberger,
    laurent_contains,
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

from conftest import clear_laurent, cleared_laurent_basis, zeta_side_generators


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


def test_verify_exchange_image_one_node(quivers):
    q = quivers("gr24")
    gb = kaehler_basis(q, 3, False)
    assert verify_exchange_image(q, gb, ["1"]) == [(True, None)]
    # the classical slice Q -> 0: the basis built in a table without Q
    table = build_table(q, equivariant=False, with_t=True)
    classical = buchberger(build_ideal(q, 3, table).generators)
    assert verify_exchange_image(q, classical, ["1"]) == [(True, None)]


def test_verify_exchange_image_equivariant(quivers):
    q = quivers("gr24")
    gb = kaehler_basis(q, 3, True)
    assert verify_exchange_image(q, gb, ["1"]) == [(True, None)]


def test_verify_exchange_image_one_row_per_node(quivers):
    q = quivers("fl234")
    gb = kaehler_basis(q, 5, False)
    assert verify_exchange_image(q, gb, ["2", "1", "2"]) == [(True, None)] * 3
    assert verify_exchange_image(q, gb, []) == []


def test_verify_exchange_image_witness(quivers):
    # p_max = 0 truncates the ideal below the exchange relation's degree
    q = quivers("gr24")
    gb = kaehler_basis(q, 0, False)
    [(ok, witness)] = verify_exchange_image(q, gb, ["1"])
    assert not ok
    assert witness.startswith("t^")


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


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("name", ["fl234", "fl245"])
def test_zeta_basis_from_kaehler_basis_matches_raw_generators(
    monkeypatch, quivers, name, equivariant
):
    q = quivers(name)
    p_max = resolve_pmax(q, None)
    gb_q = kaehler_basis(q, p_max, equivariant)
    seen = []

    def recording(q, table):
        seen.append(table)
        return zeta_substitution(q, table)

    monkeypatch.setattr(quiverqh.embed, "zeta_substitution", recording)
    gb_z, t_z = _substituted_ideal(q, gb_q, budget=None)
    # both tables come from gb_q's and hold what build_table would give
    kw = dict(equivariant=equivariant, with_t=True, with_zeta=True)
    assert [t.names for t in seen] == [build_table(q, with_q=True, **kw).names]
    assert t_z.names == build_table(q, **kw).names
    want = raw_generator_laurent_basis(q, p_max, equivariant)
    assert gb_z.fingerprint == want.fingerprint
    assert [poly_to_text(g) for g in gb_z] == [poly_to_text(g) for g in want]
    if (name, equivariant) == ("fl245", True):
        assert (gb_q.fingerprint, gb_z.fingerprint) == FL245_EQ_FINGERPRINTS


def test_laurent_basis_step_count_is_pinned(quivers):
    # exact reduction steps of the zeta-side basis of fl245, equivariant,
    # from the Kaehler basis, with negative zeta powers entering as inverses
    q = quivers("fl245")
    gb_q = kaehler_basis(q, resolve_pmax(q, None), True)
    _substituted_ideal(q, gb_q, budget=Budget(max_steps=1182))
    with pytest.raises(BudgetError):
        _substituted_ideal(q, gb_q, budget=Budget(max_steps=1181))


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
            ref = normal_form(_with_inverses(p, gb_z.table, names), gb_z).is_zero()
            cleared = normal_form(clear_laurent(p, names).convert(gb_z.table), gb_z).is_zero()
            assert laurent_contains(gb_z, p) == ref == cleared == member
