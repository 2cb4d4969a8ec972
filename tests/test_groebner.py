"""Reduced bases, normal forms, budgets and Laurent-localized ideals.

The S-polynomial criterion is re-verified here with an independent
textbook reducer, so basis correctness does not rest on the same code
path that produced the basis.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.polycore import (
    ContextError,
    LaurentViolationError,
    MultiPoly,
    VarTable,
    Variable,
    poly_to_text,
)
from quiverqh.groebner import (
    Budget,
    BudgetError,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    ideal_contains,
    ideal_equal_laurent,
    laurent_basis,
    laurent_contains,
    laurent_extension,
    normal_form,
)
from quiverqh.groebner import _Overflow, _Packer, _packed_basis, _width_for, _with_inverses
from quiverqh.presentation import build_ideal, spanning_ideal
from quiverqh.quiver import build_table, quiver_from_dict, resolve_pmax

from conftest import clear_laurent, cleared_laurent_basis, key_fn, zeta_side_generators

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
    key = key_fn(order)
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
    assert laurent_contains(gb, x - z ** -1)
    assert laurent_contains(gb, x ** 2 - z ** -2)
    assert not laurent_contains(gb, x - 1)


def test_ideal_equal_laurent():
    tl = VarTable([Variable.zeta("a"), Variable.xi("1", 1)])
    z = MultiPoly.variable(tl, "zeta[a]")
    x = MultiPoly.variable(tl, "xi[1][1]")
    same = ideal_equal_laurent([x * z - 1], [x - z ** -1], ["zeta[a]"])
    assert same.equal
    diff = ideal_equal_laurent([x * z - 1], [x - 1], ["zeta[a]"])
    assert not diff.equal
    assert diff.missing_from_first or diff.missing_from_second


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("name", ["fl234", "fl245"])
def test_laurent_basis_matches_cleared_route(quivers, name, equivariant):
    # inverses in place of cleared denominators span the same ideal
    q = quivers(name)
    gens, znames = zeta_side_generators(q, resolve_pmax(q, None), equivariant)
    assert laurent_basis(gens, znames).fingerprint == \
        cleared_laurent_basis(gens, znames).fingerprint


TL = VarTable([Variable.zeta("a"), Variable.zeta("b"), Variable.xi("1", 1)])
ZA = MultiPoly.variable(TL, "zeta[a]")
ZB = MultiPoly.variable(TL, "zeta[b]")
XL = MultiPoly.variable(TL, "xi[1][1]")
LAURENT_IDEALS = [
    [XL * ZA - 1],
    [XL - ZA ** -1 * ZB, ZA * ZB ** -2 - XL ** 2],
    [XL ** 2 - ZA ** -1, XL * ZB - ZA + 1],
]
_laurent_term = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2),
                          st.integers(-3, 3))


def _laurent_poly(spec):
    return sum(
        (MultiPoly.monomial(TL, {"zeta[a]": a, "zeta[b]": b, "xi[1][1]": c}, coef)
         for a, b, c, coef in spec),
        MultiPoly.zero(TL),
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(range(len(LAURENT_IDEALS))),
       st.lists(_laurent_term, min_size=1, max_size=3),
       st.lists(_laurent_term, max_size=3))
def test_laurent_contains_matches_cleared_route(which, mult, other):
    # p = sum of Laurent multiples of the generators is a member; p plus a
    # random Laurent polynomial may or may not be
    gens = LAURENT_IDEALS[which]
    names = ["zeta[a]", "zeta[b]"]
    budget = Budget(max_steps=20_000)
    gb = laurent_basis(gens, names, budget=budget)
    ref = cleared_laurent_basis(gens, names)
    assert gb.fingerprint == ref.fingerprint
    member = sum((_laurent_poly([t]) * gens[n % len(gens)] for n, t in enumerate(mult)),
                 MultiPoly.zero(TL))
    for p, known in ((member, True), (member + _laurent_poly(other), None)):
        got = laurent_contains(gb, p, budget)
        cleared = clear_laurent(p, names).convert(ref.table)
        assert got == ideal_contains(ref, cleared, budget)
        assert known is None or got == known


def test_laurent_contains_inverts_only_the_basis_variables():
    # the inverted variables come from the basis: zeta[a] is inverted,
    # zeta[b] is not, and a plain basis inverts nothing
    gb = laurent_basis([XL * ZA - 1], ["zeta[a]"])
    assert laurent_contains(gb, XL - ZA ** -1)
    assert not laurent_contains(gb, XL - ZA ** -2)
    with pytest.raises(ValueError, match="negative exponent"):
        laurent_contains(gb, XL - ZB ** -1)
    with pytest.raises(ValueError, match="negative exponent"):
        laurent_contains(buchberger([XL * ZA - 1]), XL - ZA ** -1)


def test_membership_errors_are_kept():
    # laurent_contains packs p straight onto the basis columns; the
    # errors stay those of the rebinding (`convert`) and of the packer
    gb = laurent_basis([XL * ZA - 1], ["zeta[a]"])
    wider = TL.extend([Variable.t()])
    member = XL.convert(wider) - MultiPoly.variable(wider, "zeta[a]") ** -1
    assert laurent_contains(gb, member)  # t is missing but never occurs
    with pytest.raises(ContextError, match="missing from target table"):
        laurent_contains(gb, member * MultiPoly.variable(wider, "t"))
    with pytest.raises(ContextError, match="different tables"):
        ideal_contains(gb, XL)
    with pytest.raises(ContextError, match="different tables"):
        ideal_contains(buchberger([XL * ZA - 1]), member)
    with pytest.raises(ValueError, match="negative exponent"):
        ideal_contains(buchberger([XL * ZA - 1]), XL - ZA ** -1)
    # a variable the basis table holds as non-Laurent takes no negative
    # power from another table, even when the basis inverts it
    plain = VarTable([Variable.x(1, laurent=False), Variable.xi("1", 1)])
    loose = VarTable([Variable.x(1), Variable.xi("1", 1)])
    x = MultiPoly.variable(plain, "x[1]")
    gb = laurent_basis([x * MultiPoly.variable(plain, "xi[1][1]") - 1], ["x[1]"])
    assert laurent_contains(gb, x ** 2 * MultiPoly.variable(plain, "xi[1][1]") - x)
    with pytest.raises(LaurentViolationError):
        laurent_contains(gb, MultiPoly.variable(loose, "x[1]", -1))


def test_laurent_contains_past_the_basis_width_leaves_the_basis_alone():
    gb = laurent_basis([XL * ZA - 1], ["zeta[a]"])
    packer, rows = gb.packer, gb.rows
    names = ["zeta[a]"]
    for big in (packer.vmax + 1, 3 * packer.vmax):
        for p in (XL ** big - ZA ** -big, XL ** big - ZA ** -big + ZB, ZA ** -big * ZB - 1):
            ref = normal_form(_with_inverses(p, gb.table, names), gb).is_zero()
            cleared = normal_form(clear_laurent(p, names).convert(gb.table), gb).is_zero()
            assert laurent_contains(gb, p) == ref == cleared
            assert gb.packer is packer and gb.rows is rows
    assert laurent_contains(gb, XL ** (packer.vmax + 1) - ZA ** -(packer.vmax + 1))


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
]
_exp = st.tuples(*[st.integers(0, 40)] * 4)


def _packer(order):
    # fields hold degrees up to 1023; a product of two exponents has degree <= 320
    return _Packer(order, T4, _width_for(160))


@settings(max_examples=200, deadline=None)
@given(_exp, _exp, st.sampled_from(ORDERS))
def test_packed_comparison_matches_key_fn(a, b, order):
    pk = _packer(order)
    key = key_fn(order)
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


@st.composite
def _narrow(draw):
    """(order, packer, a, b, a + b) over 1 to 8 variables at 4-bit fields:
    a + b has degree at most vmax = 15, and often exactly 15."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from(ORDERS))
    pk = _Packer(order, VarTable([Variable.xi("1", j) for j in range(1, n + 1)]), 4)
    total = draw(st.just(pk.vmax) | st.integers(0, pk.vmax))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    ab = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total]))
    a = tuple(draw(st.integers(0, x)) for x in ab)
    return order, pk, a, tuple(x - y for x, y in zip(ab, a)), ab


@settings(max_examples=300, deadline=None)
@given(_narrow())
def test_narrow_packing_is_linear_and_exact(case):
    order, pk, a, b, ab = case
    pack = pk.pack
    assert pack(a) + pack(b) == pack(ab)
    for e in (a, b, ab):
        assert pk.unpack(pack(e)) == e
        assert pk.degree(pack(e)) == sum(e)
    key = key_fn(order)
    for x, y in ((a, b), (a, ab), (b, ab)):
        assert (pack(x) < pack(y)) == (key(x) < key(y))
        assert (pack(x) == pack(y)) == (x == y)
    assert pk.divides(pack(a), pack(b)) == _divides(a, b)
    assert pk.divides(pack(a), pack(ab)) and pk.divides(pack(b), pack(ab))
    assert pk.divides(pack(ab), pack(a)) == (a == ab)
    with pytest.raises(_Overflow):
        pack((ab[0] + pk.vmax + 1 - sum(ab),) + ab[1:])


def test_normal_form_past_the_basis_width_leaves_the_basis_alone():
    # lex with x > y at the width of degree 2: y^40 overflows the basis rows
    tv = VarTable([Variable.xi("1", 1), Variable.xi("1", 2)])
    x = MultiPoly.variable(tv, "xi[1][1]")
    y = MultiPoly.variable(tv, "xi[1][2]")
    gb = buchberger([x - y ** 2], MonomialOrder("lex"))
    packer, rows = gb.packer, gb.rows
    assert 40 > packer.vmax
    first = normal_form(y ** 40 + x, gb)
    assert first == y ** 40 + y ** 2
    assert gb.packer is packer and gb.rows is rows
    assert normal_form(y ** 40 + x, gb) == first
    assert gb.packer is packer and gb.rows is rows


def test_degree_past_the_field_width_widens():
    # lex with x > y: reducing x^8 - 1 by x - y^d raises the degree to 8d,
    # past the width chosen from the input degree d
    tv = VarTable([Variable.xi("1", 1), Variable.xi("1", 2)])
    x = MultiPoly.variable(tv, "xi[1][1]")
    y = MultiPoly.variable(tv, "xi[1][2]")
    d = 2 ** 15 + 3
    gb = buchberger([x - y ** d, x ** 8 - 1], MonomialOrder("lex"))
    assert list(gb.elements) == [y ** (8 * d) - 1, x - y ** d]
    assert gb.packer.width > _width_for(d)
    # normal_form widens again for an input beyond the basis width
    big = 2 ** 23
    assert big > gb.packer.vmax
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


def test_coprime_pairs_pack_no_lcm(monkeypatch):
    # on a chain of dim-1 nodes almost every pair of leads is coprime; their
    # lcms are sums of packed leads, so the packings done while the basis
    # grows stay linear in the chain length (the input terms are 4n)
    n = 60
    q = quiver_from_dict({
        "nodes": [{"id": "0", "kind": "frozen", "dim": 1}]
        + [{"id": str(i), "kind": "gauge", "dim": 1, "theta": 1} for i in range(1, n)],
        "edges": [{"src": str(i), "dst": str(i + 1)} for i in range(n - 1)],
    })
    gens = spanning_ideal(q, resolve_pmax(q, None), build_table(q, equivariant=False,
                                                                with_t=True, with_q=True))
    calls = []
    pack = _Packer.pack
    monkeypatch.setattr(_Packer, "pack", lambda pk, e: calls.append(e) or pack(pk, e))
    assert len(buchberger(gens.generators)) == n - 1
    assert len(calls) < 10 * n
