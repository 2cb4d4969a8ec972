"""Cluster-to-cohomology embedding: substitution, images, closed forms.

Hand-derived goldens:
  * Kaehler elimination on the two-step chain [4] -> (3) -> (2):
    Q[1] -> -zeta[0]^-1 zeta[2] and Q[2] -> -zeta[1]^-1 (signs from the
    parity of inflow minus rank), and on [4] -> (2): Q[1] -> +zeta[0]^-1;
  * on [4] -> (2) the once-mutated variable is (x_frozen + 1)/x_gauge, so
    its image is (zeta[0] t^4 + 1) over the node image at the gauge node.
"""

import pytest

from quiverqh.polycore import MultiPoly, poly_to_text
from quiverqh.quiver import build_table, resolve_pmax
from quiverqh.presentation import build_ideal, chern_poly
from quiverqh.groebner import buchberger, laurent_basis, laurent_contains
from quiverqh.embed import (
    PsiImage,
    _substituted_ideal,
    exchange_image_diff,
    injectivity_witness,
    psi_adjacent,
    psi_initial,
    psi_of_cluster_variable,
    psi_yhat_qfactor,
    transformation_link_check,
    verify_exchange_image,
    verify_type_a,
    zeta_substitution,
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


def test_psi_initial_shape(quivers):
    q = quivers("fl234")
    table = ztable(q)
    for nid, dim in (("0", 4), ("1", 3), ("2", 2)):
        img = psi_initial(q, nid, table)
        assert img.den == ()
        assert img.num.coeff_of({f"zeta[{nid}]": 1, "t": dim}) == 1
        expect = MultiPoly.variable(table, f"zeta[{nid}]") * chern_poly(
            q, nid, table, equivariant=False
        )
        assert img.num == expect


def test_path_image_golden(quivers):
    q = quivers("gr24")
    table = ztable(q)
    img = psi_of_cluster_variable(q, (1,), 1, table)
    assert img.den == (("1", 1),)
    expect = MultiPoly.monomial(table, {"zeta[0]": 1, "t": 4}) + MultiPoly.const(table, 1)
    assert img.num == expect
    # the denominator expands to the node image itself
    assert img.den_poly() == psi_initial(q, "1", table).num


def kaehler_basis(q, p_max, equivariant):
    table = build_table(q, equivariant=equivariant, with_t=True, with_q=True)
    return buchberger(build_ideal(q, p_max, equivariant=equivariant, table=table).generators)


def test_single_step_path_matches_adjacent_mod_ideal(quivers):
    # the mutation-path image and the closed-form adjacent image are
    # different polynomials but agree as fractions modulo the relations
    q = quivers("gr24")
    gb_q = kaehler_basis(q, 3, False)
    gb, t_z, znames = _substituted_ideal(q, gb_q, equivariant=False, budget=None)
    path_img = psi_of_cluster_variable(q, (1,), 1, t_z)
    adj_img = psi_adjacent(q, "1", t_z)
    assert path_img.den == adj_img.den
    diff = path_img.num - adj_img.num
    assert not diff.is_zero()  # genuinely different representatives
    for _, coeff in diff.coefficients_in("t"):
        assert laurent_contains(gb, coeff, znames, None)


def test_empty_path_image_is_initial(quivers):
    q = quivers("fl234")
    table = ztable(q)
    img = psi_of_cluster_variable(q, (), 1, table)
    assert img.den == ()
    assert img.num == psi_initial(q, "1", table).num


def test_psi_image_rejects_negative_multiplicity(quivers):
    q = quivers("gr24")
    table = ztable(q)
    with pytest.raises(ValueError):
        PsiImage(q, table, False, MultiPoly.const(table, 1), (("1", -1),))


def test_exchange_image_diff_requires_positive_stability(quivers):
    q = quivers("vgit312_minus")
    table = build_table(q, equivariant=False, with_t=True, with_q=True)
    with pytest.raises(ValueError):
        exchange_image_diff(q, "1", table)


def test_verify_exchange_image_one_node(quivers):
    q = quivers("gr24")
    ideal = build_ideal(q, 3, equivariant=False)
    assert verify_exchange_image(q, ideal, ["1"]) == [(True, None)]
    assert verify_exchange_image(q, ideal, ["1"], classical_slice=True) == [(True, None)]


def test_verify_exchange_image_equivariant(quivers):
    q = quivers("gr24")
    ideal = build_ideal(q, 3, equivariant=True)
    assert verify_exchange_image(q, ideal, ["1"]) == [(True, None)]


def test_verify_exchange_image_one_row_per_node(quivers):
    q = quivers("fl234")
    ideal = build_ideal(q, 5, equivariant=False)
    assert verify_exchange_image(q, ideal, ["2", "1", "2"]) == [(True, None)] * 3
    assert verify_exchange_image(q, ideal, []) == []


def test_verify_exchange_image_witness(quivers):
    # p_max = 0 truncates the ideal below the exchange relation's degree
    q = quivers("gr24")
    ideal = build_ideal(q, 0, equivariant=False)
    [(ok, witness)] = verify_exchange_image(q, ideal, ["1"])
    assert not ok
    assert witness.startswith("t^")


@pytest.mark.parametrize("name,node", [
    ("gr24", "1"), ("fl234", "1"), ("fl234", "2"), ("fl245", "1"), ("fl245", "2"),
])
def test_transformation_link(quivers, name, node):
    assert transformation_link_check(quivers(name), node)


def test_transformation_link_equivariant(quivers):
    assert transformation_link_check(quivers("fl234"), "1", equivariant=True)


@pytest.mark.parametrize("name,nrows", [("gr24", 5), ("fl234", 12), ("fl245", 12)])
def test_type_a_suite(quivers, name, nrows):
    rep = verify_type_a(quivers(name))
    assert len(rep.rows) == nrows
    assert rep.ok, rep.failures()[:2]
    kinds = {r["kind"] for r in rep.rows}
    assert kinds == {"quotient-product", "quotient-chain", "image"}


def test_type_a_equivariant(quivers):
    rep = verify_type_a(quivers("fl234"), equivariant=True)
    assert rep.ok, rep.failures()[:2]


def test_type_a_rejects_failing_chain(quivers):
    with pytest.raises(ValueError, match="type-A"):
        verify_type_a(quivers("fl123"))


def raw_generator_laurent_basis(q, p_max, equivariant):
    """Oracle: the zeta-side basis from the substituted raw generators of
    build_ideal, with no Kaehler basis in between."""
    t_qz = build_table(
        q, equivariant=equivariant, with_t=True, with_q=True, with_zeta=True
    )
    t_z = build_table(q, equivariant=equivariant, with_t=True, with_zeta=True)
    sub = zeta_substitution(q, t_qz)
    ideal = build_ideal(q, p_max, equivariant=equivariant, table=t_qz)
    gens = [g.substitute(sub).convert(t_z) for g in ideal.generators]
    return laurent_basis(gens, t_z.of_class("zeta"))


# fingerprints of the Kaehler and zeta-side bases of fl245, equivariant
FL245_EQ_FINGERPRINTS = (
    "042b633498bb8808f29c1af71cf68db3287ba92eec95a851b6271b652a9fadf2",
    "f31a594bd116eacfd703d33dd51ac4cdd2f942b9ee6b98fbe66811dbc274919b",
)


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("name", ["fl234", "fl245"])
def test_zeta_basis_from_kaehler_basis_matches_raw_generators(quivers, name, equivariant):
    q = quivers(name)
    p_max = resolve_pmax(q, None)
    gb_q = kaehler_basis(q, p_max, equivariant)
    gb_z = _substituted_ideal(q, gb_q, equivariant=equivariant, budget=None)[0]
    want = raw_generator_laurent_basis(q, p_max, equivariant)
    assert gb_z.fingerprint == want.fingerprint
    assert [poly_to_text(g) for g in gb_z] == [poly_to_text(g) for g in want]
    if (name, equivariant) == ("fl245", True):
        assert (gb_q.fingerprint, gb_z.fingerprint) == FL245_EQ_FINGERPRINTS


@pytest.mark.parametrize("name,node", [
    ("principal_rank1", "1"), ("gr24", "1"), ("fl234", "1"), ("fl234", "2"),
])
def test_yhat_qfactor(quivers, name, node):
    assert psi_yhat_qfactor(quivers(name), node)


def test_injectivity_witness(quivers):
    q = quivers("fl234")
    assert injectivity_witness(q) == [
        ("0", "zeta[0]", 4),
        ("1", "zeta[1]", 3),
        ("2", "zeta[2]", 2),
    ]
