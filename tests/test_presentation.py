"""Relation ideals, truncated Chern quotients, and exchange sides.

Golden values below were fixed by independent hand computation: projective
space and Grassmannian relations from the classical quantum-cohomology
presentations, quotient values from expanding c_t(U)/c_t(U') as a series
and truncating at nonnegative powers.
"""

import itertools
import os
from fractions import Fraction

import pytest

from quiverqh.polycore import MultiPoly, poly_to_text, product
from quiverqh.quiver import (
    build_table, default_pmax, kaehler_sign, load_quiver, quiver_from_dict,
    quiver_to_dict, validate, weights,
)
from quiverqh.presentation import (
    abelian_relation,
    build_ideal,
    chern_division,
    compare_chambers,
    chern_poly,
    exchange_lhs_rhs,
    inflow_roots,
    node_chern_quotient,
    node_roots,
    nonabelian_relation,
    node_relations,
    outflow_roots,
    spanning_ideal,
    truncated_chern_quotient,
)
from quiverqh.symfun import chern_from_roots, complete, elementary
from quiverqh.groebner import MonomialOrder, buchberger, normal_form

FL12345 = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "fixtures", "fl12345.json"
)
# every bundled fixture but a3_frozen (dims 10, 7, 5), whose node
# relations alone take seconds to gigabytes to expand, plus the 4-step chain
SPAN_FIXTURES = [
    "a2", "fl123", "fl234", "fl245", "gr24", "p2", "principal_rank1",
    "vgit312_minus", "vgit312_plus", "fl12345",
]


def xi(table, nid, j):
    return MultiPoly.variable(table, f"xi[{nid}][{j}]")


def test_projective_plane_relation(quivers):
    q = quivers("p2")
    ideal = build_ideal(q, 3, build_table(q, equivariant=False, with_q=True))
    texts = [poly_to_text(g) for g in ideal.generators]
    # x^3 = Q and its multiples x^(3+i) = Q x^i
    assert texts[0] == "xi[1][1]^3 - Q[1]"
    assert texts[1] == "xi[1][1]^4 - xi[1][1]*Q[1]"


def test_grassmannian_relations(quivers):
    q = quivers("gr24")
    ideal = build_ideal(q, 5, build_table(q, equivariant=False, with_q=True))
    table = ideal.table
    roots = node_roots(q, table, "1")
    qv = MultiPoly.variable(table, "Q[1]")
    by_text = {poly_to_text(g) for g in ideal.generators}
    # h_3 = 0, h_4 = -Q, h_5 = -Q h_1, h_6 = -Q h_2  (sign (-1)^(v-1), v=2)
    for p, corr in [(3, 0), (4, 1), (5, None), (6, None)]:
        h = complete(table, roots, p)
        if corr == 0:
            expect = h
        elif corr == 1:
            expect = h + qv
        else:
            expect = h + qv * complete(table, roots, p - 4)
        assert poly_to_text(expect) in by_text


def test_generator_count_fl234(quivers):
    ideal = build_ideal(
        quivers("fl234"), 4, build_table(quivers("fl234"), equivariant=False, with_q=True)
    )
    # node 1 (dim 3): p=3,4 nonzero after h_{p-v+1} kicks in at p>=v;
    # every p in 0..4 contributes per node unless identically zero
    assert len(ideal.generators) == 10
    assert all(not g.is_zero() for g in ideal.generators)


def test_nonabelian_matches_antisymmetrized_abelian(quivers):
    # the nonabelian relation is the Weyl antisymmetrization of the
    # abelian (toric) one; check on the Grassmannian at low degree
    q = quivers("gr24")
    table = build_table(q, equivariant=False, with_q=True, with_h=True)
    w = weights(q, table)
    d = {"1": [1, 0]}
    nonab = nonabelian_relation(w, d, {"1": 4})
    direct = node_relations(q, "1", 4, table=table)[4]
    assert nonab == direct


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
def test_nonabelian_matches_node_relations_with_full_staircases(quivers, equivariant):
    # d = sgn(theta_k) e_(k,1) touches block k only; every other block of
    # fl234 has dim >= 2 and a prefactor symmetric in its roots, so it
    # needs distinct exponents: naming only node k used to give 0 with no
    # error, and the full staircase dim - 1 gives the closed form
    q = quivers("fl234")
    table = build_table(q, equivariant=equivariant, with_q=True, with_h=True)
    w = weights(q, table)
    full = {n.id: n.dim - 1 for n in q.gauge_nodes}
    for n in q.gauge_nodes:
        k, v = n.id, n.dim
        d = {k: [1 if n.theta > 0 else -1] + [0] * (v - 1)}
        (other,) = full.keys() - {k}
        closed = node_relations(q, k, v - 1, table)
        for p in range(v):
            with pytest.raises(ValueError, match=f"node {other!r}: insertion exponents"):
                nonabelian_relation(w, d, {k: p})
            got = nonabelian_relation(w, d, {**full, k: p})
            assert got == closed[p] and not got.is_zero()


def test_abelian_relation_projective(quivers):
    q = quivers("p2")
    table = build_table(q, equivariant=False, with_qtilde=True, with_h=True)
    w = weights(q, table)
    rel = abelian_relation(w, {"1": [1]})
    assert poly_to_text(rel) == "xi[1][1]^3 - Qt[1][1]"


def test_quotient_small_cases(quivers):
    q = quivers("fl234")
    table = build_table(q, equivariant=False, with_t=True)
    r1 = node_roots(q, table, "1")
    r2 = node_roots(q, table, "2")
    # equal bundles: quotient is 1
    assert node_chern_quotient(q, "1", "1", table) == \
        MultiPoly.const(table, 1)
    # smaller numerator rank: quotient is 0
    assert truncated_chern_quotient(table, r2, r1).is_zero()
    # zero denominator bundle: plain Chern polynomial
    assert node_chern_quotient(q, "1", None, table) == \
        chern_poly(q, "1", table)


def test_chern_poly_of_a_frozen_node_in_a_plain_table(quivers):
    q = quivers("gr24")
    table = build_table(q, equivariant=False, with_t=True)
    assert chern_poly(q, "0", table) == MultiPoly.variable(table, "t") ** 4


def test_quotient_rank_one_series():
    from quiverqh.polycore import VarTable, Variable

    table = VarTable([Variable.xi("1", 1), Variable.xi("1", 2), Variable.t()])
    a = MultiPoly.variable(table, "xi[1][1]")
    b = MultiPoly.variable(table, "xi[1][2]")
    t = MultiPoly.variable(table, "t")
    # c_t(a)/c_t(b) = (t+a)/(t+b): polynomial part in t is t + a - b ... no:
    # (t+a)/(t+b) = 1 + (a-b)/(t+b); series in 1/t has polynomial part 1
    got = truncated_chern_quotient(table, [a], [b])
    assert got == MultiPoly.const(table, 1)
    # rank 2 over rank 1: (t+a)(t+b)/(t+0) -> t + (a+b) with remainder ab/t
    got2 = truncated_chern_quotient(table, [a, b], [MultiPoly.zero(table)])
    assert got2 == t + a + b


def _product_quotient(table, num, den):
    # the nested e.h formula of the module docstring, kept as an oracle
    r, s = len(num), len(den)
    t = MultiPoly.variable(table, "t")
    out = MultiPoly.zero(table)
    for p in range(r - s + 1):
        for m in range(p + 1):
            term = t ** (r - s - p) * elementary(table, num, m) * complete(table, den, p - m)
            out = out + (term if (p + m) % 2 == 0 else -term)
    return out


def _span_fixture(quivers, name):
    return load_quiver(FL12345) if name == "fl12345" else quivers(name)


def test_quotient_defining_property(quivers):
    # c_t(U) = delta_t(U,U') c_t(U') + rem with deg_t rem < rank U', for
    # every inflow and outflow multiset U against its node U' = V_k
    for name in SPAN_FIXTURES:
        q = _span_fixture(quivers, name)
        for eq in (False, True):
            table = build_table(q, equivariant=eq, with_t=True)
            for n in q.gauge_nodes:
                den = node_roots(q, table, n.id)
                for num in (inflow_roots(q, n.id, table), outflow_roots(q, n.id, table)):
                    delta, rem = chern_division(table, num, den)
                    assert delta == truncated_chern_quotient(table, num, den)
                    assert delta == _product_quotient(table, num, den)
                    assert rem == (chern_from_roots(table, num)
                                   - delta * chern_from_roots(table, den)), (name, eq, n.id)
                    assert rem.degree("t") < len(den)


def _product_exchange_sides(q, k, table, equivariant):
    # both exchange sides as c_t(U) - delta_t(U, V_k) c_t(V_k), kept as an oracle
    mu = inflow_roots(q, k, table)
    nu = outflow_roots(q, k, table)
    vk = node_roots(q, table, k)
    c_k = chern_from_roots(table, vk)
    left = chern_from_roots(table, mu) - truncated_chern_quotient(table, mu, vk) * c_k
    right = chern_from_roots(table, nu) - truncated_chern_quotient(table, nu, vk) * c_k
    qk = MultiPoly.variable(table, f"Q[{k}]")
    sign = -kaehler_sign(q, k)
    if q.theta(k) > 0:
        return left, sign * qk * right
    return sign * left, qk * right


@pytest.mark.parametrize("equivariant", [False, True])
@pytest.mark.parametrize("name", SPAN_FIXTURES)
def test_exchange_sides_match_the_product_form(quivers, name, equivariant):
    # theta > 0 on every fixture, theta < 0 on vgit312_minus
    q = _span_fixture(quivers, name)
    table = build_table(q, equivariant=equivariant, with_q=True, with_t=True)
    for n in q.gauge_nodes:
        assert (exchange_lhs_rhs(q, n.id, table)
                == _product_exchange_sides(q, n.id, table, equivariant)), n.id


def _per_p_relation(q, k, p, table, equivariant):
    # one generator by the nested e.h loop of the module docstring, kept as an oracle
    v = q.dim(k)
    mu = inflow_roots(q, k, table)
    nu = outflow_roots(q, k, table)
    xi = node_roots(q, table, k)

    def side(roots, alt_from_top):
        out = MultiPoly.zero(table)
        for m in range(len(roots) + 1):
            term = elementary(table, roots, len(roots) - m) * complete(table, xi, m + p - v + 1)
            s = (len(roots) - m) if alt_from_top else m
            out = out + (term if s % 2 == 0 else -term)
        return out

    left, right = side(mu, True), side(nu, False)
    qk = MultiPoly.variable(table, f"Q[{k}]")
    vsign = -1 if (v - 1) % 2 else 1
    if q.theta(k) > 0:
        return left - vsign * qk * right
    return vsign * left - qk * right


@pytest.mark.parametrize("equivariant", [False, True])
@pytest.mark.parametrize("name", SPAN_FIXTURES)
def test_node_relations_match_the_per_p_formula(quivers, name, equivariant):
    q = _span_fixture(quivers, name)
    table = build_table(q, equivariant=equivariant, with_q=True)
    pmax = default_pmax(q)
    for n in q.gauge_nodes:
        got = node_relations(q, n.id, pmax, table=table)
        assert got == [_per_p_relation(q, n.id, p, table, equivariant)
                       for p in range(pmax + 1)], n.id


@pytest.mark.parametrize("equivariant", [False, True])
@pytest.mark.parametrize("name", SPAN_FIXTURES)
def test_a_table_without_q_is_the_classical_slice(quivers, name, equivariant):
    # node relations and exchange sides built with Q[k] = 0 are those built
    # with Q and then sent through the ring map Q -> 0
    q = _span_fixture(quivers, name)
    with_q = build_table(q, equivariant=equivariant, with_q=True, with_t=True)
    classical = build_table(q, equivariant=equivariant, with_t=True)
    zero_q = {name: 0 for name in with_q.of_class("Q")}

    def slice_of(polys):
        return [p.substitute(zero_q).convert(classical) for p in polys]

    for n in q.gauge_nodes:
        assert (node_relations(q, n.id, n.dim, classical)
                == slice_of(node_relations(q, n.id, n.dim, with_q))), n.id
        assert (list(exchange_lhs_rhs(q, n.id, classical))
                == slice_of(exchange_lhs_rhs(q, n.id, with_q))), n.id


def test_exchange_sides_reduce_in_ideal(quivers):
    q = quivers("gr24")
    ideal = build_ideal(q, 3, build_table(q, equivariant=False, with_q=True))
    table = build_table(q, equivariant=False, with_q=True, with_t=True)
    gens = [g.convert(table) for g in ideal.generators]
    gb = buchberger(gens)
    lhs, rhs = exchange_lhs_rhs(q, "1", table)
    diff = lhs - rhs
    for _, coeff in diff.coefficients_in("t"):
        assert normal_form(coeff, gb).is_zero()


def test_negative_stability_relation_is_polynomial(quivers):
    q = quivers("vgit312_minus")
    ideal = build_ideal(q, 3, build_table(q, equivariant=False, with_q=True))
    for g in ideal.generators:
        assert all(e >= 0 for exps in g.terms for e in exps)


def test_inflow_outflow_roots(quivers):
    q = quivers("fl234")
    table = build_table(q, equivariant=False, with_t=True)
    assert len(inflow_roots(q, "1", table)) == 4
    assert len(outflow_roots(q, "1", table)) == 2
    assert len(inflow_roots(q, "2", table)) == 3
    assert len(outflow_roots(q, "2", table)) == 0
    # non-equivariant frozen roots are zero
    assert all(r.is_zero() for r in inflow_roots(q, "1", table))
    ue = build_table(q, equivariant=True, with_t=True)
    assert all(not r.is_zero() for r in inflow_roots(q, "1", ue))


@pytest.mark.parametrize("equivariant", [False, True])
@pytest.mark.parametrize("name", SPAN_FIXTURES)
def test_node_relations_past_the_dimension_are_redundant(quivers, name, equivariant):
    # sum_{i=0}^{v} (-1)^i e_i(xi_k) g_(p-i) = 0 for p >= v = dim V_k, as
    # expanded polynomials, on theta > 0 and theta < 0 nodes alike
    q = _span_fixture(quivers, name)
    table = build_table(q, equivariant=equivariant, with_q=True)
    for n in q.gauge_nodes:
        v = n.dim
        xi = node_roots(q, table, n.id)
        g = node_relations(q, n.id, v + 1, table=table)
        for p in (v, v + 1):
            total = MultiPoly.zero(table)
            for i in range(v + 1):
                term = elementary(table, xi, i) * g[p - i]
                total = total + (term if i % 2 == 0 else -term)
            assert total.is_zero(), (n.id, p)


@pytest.mark.parametrize("equivariant", [False, True])
@pytest.mark.parametrize("name", [n for n in SPAN_FIXTURES if n != "fl12345"])
def test_theta_flip_multiplies_the_node_relations_by_a_sign(quivers, name, equivariant):
    # for every sign pattern on the gauge nodes: a node whose theta flips
    # has its spanning relations multiplied by (-1)^(v-1), the others keep
    # theirs (module docstring), and compare_chambers reads off that sign
    q = quivers(name)
    table = build_table(q, equivariant=equivariant, with_q=True)
    before = {n.id: node_relations(q, n.id, n.dim - 1, table) for n in q.gauge_nodes}
    for signs in itertools.product((1, -1), repeat=len(q.gauge_nodes)):
        flip = {n.id: s for n, s in zip(q.gauge_nodes, signs)}
        data = quiver_to_dict(q)
        for nd in data["nodes"]:
            if nd["id"] in flip:
                nd["theta"] *= flip[nd["id"]]
        flipped = quiver_from_dict(data)
        eps = {n.id: (-1) ** (n.dim - 1) if flip[n.id] < 0 else 1 for n in q.gauge_nodes}
        for n in q.gauge_nodes:
            after = node_relations(flipped, n.id, n.dim - 1, table)
            assert after == [eps[n.id] * g for g in before[n.id]], (signs, n.id)
        rows = compare_chambers(q, flipped, table)
        assert [(r["node"], r["epsilon"], r["ok"]) for r in rows] == [
            (n.id, eps[n.id], True) for n in q.gauge_nodes], signs


# lex bases of fl12345 and of the equivariant fl234 and fl245 take from
# seconds to more than five minutes, so those are compared under grevlex only
@pytest.mark.parametrize("name,equivariant,kind", [
    (name, eq, kind)
    for name in SPAN_FIXTURES
    for eq in (False, True)
    for kind in ("grevlex", "lex")
    if kind == "grevlex" or not (name == "fl12345" or eq and name in ("fl234", "fl245"))
])
def test_spanning_ideal_has_the_full_basis(quivers, name, equivariant, kind):
    q = _span_fixture(quivers, name)
    full = build_ideal(q, default_pmax(q), build_table(q, equivariant=equivariant, with_q=True))
    span = spanning_ideal(q, build_table(q, equivariant=equivariant, with_q=True))
    assert span.table.names == full.table.names
    assert span.degrees == full.degrees
    texts = {poly_to_text(g) for g in full.generators}
    assert {poly_to_text(g) for g in span.generators} < texts
    order = MonomialOrder(kind)
    assert (buchberger(span.generators, order).fingerprint
            == buchberger(full.generators, order).fingerprint)
