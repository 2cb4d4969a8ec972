"""Reduced bases, normal forms, budgets and Laurent-localized ideals.

The S-polynomial criterion is re-verified here with an independent
textbook reducer, so basis correctness does not rest on the same code
path that produced the basis.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.polycore import MultiPoly, VarTable, Variable, poly_to_text
from quiverqh.groebner import (
    Budget,
    BudgetError,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    clear_laurent,
    ideal_contains,
    ideal_equal_laurent,
    laurent_basis,
    laurent_contains,
    laurent_extension,
    normal_form,
)
from quiverqh.groebner import _Overflow, _Packer, _packed_basis, _width_for
from quiverqh.presentation import build_ideal
from quiverqh.quiver import build_table

T = VarTable([Variable.xi("1", 1), Variable.xi("1", 2), Variable.q("1")])
X = MultiPoly.variable(T, "xi[1][1]")
Y = MultiPoly.variable(T, "xi[1][2]")
Q = MultiPoly.variable(T, "Q[1]")


# -- independent textbook reducer over a fixed monomial order ------------------------


def _lead(p, key):
    return max(p.terms, key=key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def slow_reduce(p, basis, key):
    """Plain repeated leading-term division, no caching, no pair logic."""
    table = p.table
    rem = MultiPoly.zero(table)
    work = p
    while not work.is_zero():
        e = _lead(work, key)
        c = work.terms[e]
        hit = None
        for g in basis:
            eg = _lead(g.terms if isinstance(g, dict) else g, key) if False else _lead(g, key)
            if _divides(eg, e):
                hit = (g, eg)
                break
        if hit is None:
            mono = MultiPoly(table, {e: c})
            rem = rem + mono
            work = work - mono
        else:
            g, eg = hit
            factor = MultiPoly(
                table, {tuple(a - b for a, b in zip(e, eg)): Fraction(c, g.terms[eg])}
            )
            work = work - factor * g
    return rem


def spoly(f, g, key):
    ef, eg = _lead(f, key), _lead(g, key)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = MultiPoly(f.table, {tuple(l - a for l, a in zip(lcm, ef)): Fraction(1, 1) / f.terms[ef]})
    mg = MultiPoly(g.table, {tuple(l - a for l, a in zip(lcm, eg)): Fraction(1, 1) / g.terms[eg]})
    return mf * f - mg * g


def test_hand_example_reduced_basis():
    gb = buchberger([X ** 2 - Q, X * Y])
    texts = sorted(poly_to_text(g) for g in gb.elements)
    assert texts == sorted([
        "xi[1][1]^2 - Q[1]",
        "xi[1][1]*xi[1][2]",
        "xi[1][2]*Q[1]",
    ])


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_buchberger_criterion_independently(kind):
    order = MonomialOrder(kind)
    key = order.key_fn(T)
    gb = buchberger([X ** 3 - Q * Y, X * Y - Q, Y ** 2 - X], order)
    for i, f in enumerate(gb.elements):
        for g in gb.elements[i + 1:]:
            assert slow_reduce(spoly(f, g, key), gb.elements, key).is_zero()


def test_idempotence_and_determinism():
    gens = [X ** 2 - Q, X * Y]
    g1 = buchberger(gens)
    g2 = buchberger(list(reversed(gens)))
    assert [poly_to_text(p) for p in g1.elements] == \
        [poly_to_text(p) for p in g2.elements]
    assert g1.fingerprint == g2.fingerprint
    again = buchberger(list(g1.elements))
    assert again.fingerprint == g1.fingerprint


def test_normal_form_is_ideal_invariant():
    gb = buchberger([X ** 2 - Q, X * Y])
    p = X ** 3 + Y ** 2 + 7
    member = (X ** 2 - Q) * Y + (X * Y) * Q
    assert normal_form(p + member, gb) == normal_form(p, gb)
    assert ideal_contains(gb, member)
    assert not ideal_contains(gb, X + 1)


def test_normal_form_of_members_is_zero_both_orders():
    gens = [X ** 2 - Q, X * Y]
    for kind in ("grevlex", "lex"):
        gb = buchberger(gens, MonomialOrder(kind))
        assert normal_form((X ** 2 - Q) * (Y + 3) - X * Y * X, gb).is_zero()


def test_zero_and_unit_ideals():
    with pytest.raises(ValueError):
        buchberger([MultiPoly.zero(T)])
    gb1 = buchberger([X, X + 1])
    assert [poly_to_text(g) for g in gb1.elements] == ["1"]
    assert ideal_contains(gb1, Y ** 5)


def test_budget_error():
    # dense generators in 5 variables exhaust a tiny step budget
    tv = VarTable([Variable.xi("1", j) for j in range(1, 6)])
    vs = [MultiPoly.variable(tv, f"xi[1][{j}]") for j in range(1, 6)]
    gens = [
        (vs[0] + vs[1] + vs[2]) ** 3 - 1,
        (vs[1] - vs[3]) ** 4 + vs[4] * vs[0],
        (vs[2] + vs[4]) ** 3 - vs[0] * vs[1] * vs[2],
    ]
    with pytest.raises(BudgetError):
        buchberger(gens, budget=Budget(max_steps=25))


def test_clear_laurent_and_extension():
    tl = VarTable([Variable.zeta("a"), Variable.xi("1", 1)])
    z = MultiPoly.variable(tl, "zeta[a]")
    x = MultiPoly.variable(tl, "xi[1][1]")
    p = z ** -2 * x + z
    cleared = clear_laurent(p, ["zeta[a]"])
    assert cleared == x + z ** 3
    ext, rels = laurent_extension(tl, ["zeta[a]"])
    assert "inv.zeta[a]" in ext
    assert [poly_to_text(r) for r in rels] == ["zeta[a]*inv.zeta[a] - 1"]


def test_laurent_membership():
    tl = VarTable([Variable.zeta("a"), Variable.xi("1", 1)])
    z = MultiPoly.variable(tl, "zeta[a]")
    x = MultiPoly.variable(tl, "xi[1][1]")
    gb = laurent_basis([x * z - 1], ["zeta[a]"])
    # x - zeta^-1 lies in the localized ideal but not in the plain one
    assert laurent_contains(gb, x - z ** -1, ["zeta[a]"])
    assert laurent_contains(gb, x ** 2 - z ** -2, ["zeta[a]"])
    assert not laurent_contains(gb, x - 1, ["zeta[a]"])


def test_ideal_equal_laurent():
    tl = VarTable([Variable.zeta("a"), Variable.xi("1", 1)])
    z = MultiPoly.variable(tl, "zeta[a]")
    x = MultiPoly.variable(tl, "xi[1][1]")
    same = ideal_equal_laurent([x * z - 1], [x - z ** -1], ["zeta[a]"])
    assert same.equal
    diff = ideal_equal_laurent([x * z - 1], [x - 1], ["zeta[a]"])
    assert not diff.equal
    assert diff.missing_from_first or diff.missing_from_second


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                          st.integers(-3, 3)), min_size=1, max_size=3))
def test_random_members_reduce_to_zero(spec):
    gens = [X ** 2 - Q, X * Y - 1]
    gb = buchberger(gens)
    member = MultiPoly.zero(T)
    for (a, b, c, coef) in spec:
        mono = MultiPoly.monomial(T, {"xi[1][1]": a, "xi[1][2]": b, "Q[1]": c}, coef)
        member = member + mono * gens[(a + b) % 2]
    assert normal_form(member, gb).is_zero()


# -- packed monomials ---------------------------------------------------------------

T4 = VarTable([Variable.xi("1", j) for j in range(1, 5)])
ORDERS = [
    MonomialOrder("grevlex"),
    MonomialOrder("lex"),
    MonomialOrder("grevlex", ("xi[1][3]", "xi[1][1]", "xi[1][4]", "xi[1][2]")),
    MonomialOrder("lex", ("xi[1][2]", "xi[1][4]", "xi[1][1]", "xi[1][3]")),
]
_exp = st.tuples(*[st.integers(0, 40)] * 4)


def _packer(order):
    # fields hold degrees up to 1023; a product of two exponents has degree <= 320
    return _Packer(order, T4, _width_for(160))


@settings(max_examples=200, deadline=None)
@given(_exp, _exp, st.sampled_from(ORDERS))
def test_packed_comparison_matches_key_fn(a, b, order):
    pk = _packer(order)
    key = order.key_fn(T4)
    assert (pk.pack(a) < pk.pack(b)) == (key(a) < key(b))
    assert (pk.pack(a) == pk.pack(b)) == (a == b)


@settings(max_examples=200, deadline=None)
@given(_exp, _exp, st.sampled_from(ORDERS))
def test_packed_divisibility_matches_componentwise(a, b, order):
    pk = _packer(order)
    assert pk.divides(pk.pack(a), pk.pack(b)) == _divides(a, b)
    ab = tuple(x + y for x, y in zip(a, b))
    assert pk.divides(pk.pack(a), pk.pack(ab))
    assert pk.divides(pk.pack(ab), pk.pack(a)) == (a == ab)


@settings(max_examples=200, deadline=None)
@given(_exp, _exp, st.sampled_from(ORDERS))
def test_packed_product_and_round_trip(a, b, order):
    pk = _packer(order)
    ab = tuple(x + y for x, y in zip(a, b))
    assert pk.pack(a) + pk.pack(b) == pk.pack(ab)
    assert pk.unpack(pk.pack(a)) == a
    assert pk.unpack(pk.pack(ab)) == ab


def test_degree_past_the_field_width_widens():
    # lex with x > y: reducing x^8 - 1 by x - y^d raises the degree to 8d,
    # past the width chosen from the input degree d
    tv = VarTable([Variable.xi("1", 1), Variable.xi("1", 2)])
    x = MultiPoly.variable(tv, "xi[1][1]")
    y = MultiPoly.variable(tv, "xi[1][2]")
    d = 2 ** 15 + 3
    gb = buchberger([x - y ** d, x ** 8 - 1], MonomialOrder("lex"))
    assert list(gb.elements) == [y ** (8 * d) - 1, x - y ** d]
    assert gb.packed.packer.width > _width_for(d)
    # normal_form widens again for an input beyond the basis width
    big = 2 ** 23
    assert big > gb.packed.packer.vmax
    assert normal_form(y ** big + x, gb) == y ** (big % (8 * d)) + y ** d


def test_s_polynomial_past_the_field_width_overflows():
    # lex with x > y at 4-bit fields (degrees up to 15): the S-polynomial
    # of x*y - y^15 and x^4 - 1 is y - x^3*y^15, of degree 18, and must be
    # refused before it is formed
    pk = _Packer(MonomialOrder("lex"), T4.drop(["xi[1][3]", "xi[1][4]"]), 4)
    polys = [
        {pk.pack((1, 1)): 1, pk.pack((0, 15)): -1},
        {pk.pack((4, 0)): 1, pk.pack((0, 0)): -1},
    ]
    with pytest.raises(_Overflow) as exc:
        _packed_basis(polys, pk, Budget())
    assert exc.value.degree == 18


def test_normal_form_rejects_negative_exponents():
    tl = VarTable([Variable.zeta("a"), Variable.xi("1", 1)])
    z = MultiPoly.variable(tl, "zeta[a]")
    x = MultiPoly.variable(tl, "xi[1][1]")
    gb = buchberger([x * z - 1])
    with pytest.raises(ValueError):
        buchberger([x - z ** -1])
    with pytest.raises(ValueError):
        normal_form(x - z ** -1, gb)


@pytest.mark.parametrize("name,pmax,equivariant,kind,steps", [
    ("fl234", 5, True, "grevlex", 1247),
    ("fl123", 4, True, "lex", 216),
])
def test_reduction_step_count_is_pinned(quivers, name, pmax, equivariant, kind, steps):
    # exact step counts of the Gebauer-Moeller engine with sugar selection
    # and shortest-tail reducers, on the full generator lists
    gens = build_ideal(
        quivers(name), pmax, build_table(quivers(name), equivariant=equivariant, with_q=True)
    ).generators
    order = MonomialOrder(kind)
    buchberger(gens, order, Budget(max_steps=steps))
    with pytest.raises(BudgetError):
        buchberger(gens, order, Budget(max_steps=steps - 1))
