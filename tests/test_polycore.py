"""Ring axioms, slicing round-trips and exact division on the sparse core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.polycore import (
    CLASS_ORDER,
    ContextError,
    DivisibilityError,
    LaurentViolationError,
    MultiPoly,
    VarTable,
    Variable,
    exact_divide,
    poly_to_text,
    product,
)

from conftest import typed

T = VarTable([
    Variable.x(1), Variable.x(2),
    Variable.y(1), Variable.y(2),
    Variable.t(),
])

NAMES = ("x[1]", "x[2]", "y[1]", "y[2]", "t")


def mono_strategy():
    return st.tuples(
        st.integers(-3, 3), st.integers(-3, 3),
        st.integers(0, 3), st.integers(0, 3),
        st.integers(0, 2),
        st.one_of(st.integers(-5, 5), st.fractions(min_value=-3, max_value=3,
                                                   max_denominator=4)),
    )


@st.composite
def polys(draw):
    monos = draw(st.lists(mono_strategy(), max_size=5))
    p = MultiPoly.zero(T)
    for *exp, c in monos:
        p = p + MultiPoly.monomial(T, dict(zip(NAMES, exp)), c)
    return p


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero(T) == a
    assert a * MultiPoly.const(T, 1) == a
    assert a - a == MultiPoly.zero(T)
    assert -(-a) == a


@settings(max_examples=60, deadline=None)
@given(polys())
def test_small_powers(a):
    assert a ** 0 == MultiPoly.const(T, 1)
    assert a ** 1 == a
    assert a ** 3 == a * a * a


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_substitute_is_ring_map(a, b):
    target = MultiPoly.variable(T, "y[1]") + MultiPoly.const(T, 2)
    bind = {"y[2]": target}
    assert (a + b).substitute(bind) == a.substitute(bind) + b.substitute(bind)
    assert (a * b).substitute(bind) == a.substitute(bind) * b.substitute(bind)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_t_slices_rebuild(a):
    t = MultiPoly.variable(T, "t")
    total = MultiPoly.zero(T)
    for power, coeff in a.coefficients_in("t"):
        assert coeff.degree("t") <= 0
        total = total + coeff * t ** power
    assert total == a


@settings(max_examples=80, deadline=None)
@given(polys())
def test_laurent_split_reconstructs(a):
    shift, part = a.laurent_split()
    assert part.shift(shift) == a
    if not part.is_zero():
        for i, nm in enumerate(NAMES):
            if T.laurent_mask[T.index(nm)]:
                assert min(e[T.index(nm)] for e in part.terms) >= 0


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_exact_divide_inverts_product(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            exact_divide(a, b)
        return
    assert exact_divide(a * b, b) == a


def test_exact_divide_failure():
    p = MultiPoly.variable(T, "x[1]") * MultiPoly.variable(T, "y[1]") + 1
    with pytest.raises(DivisibilityError):
        exact_divide(p, MultiPoly.variable(T, "y[1]"))


def test_laurent_permissions():
    MultiPoly.monomial(T, {"x[1]": -2})  # laurent slot: fine
    with pytest.raises(LaurentViolationError):
        MultiPoly.monomial(T, {"y[1]": -1})
    with pytest.raises(LaurentViolationError):
        # inverting the binding monomial would need y[1]^-1
        MultiPoly.variable(T, "x[1]", -1).substitute(
            {"x[1]": MultiPoly.variable(T, "y[1]")}
        )


def test_negative_substitution_needs_monomial():
    p = MultiPoly.variable(T, "x[1]", -1)
    res = p.substitute({"x[1]": MultiPoly.monomial(T, {"x[2]": 1}, Fraction(1, 2))})
    assert res == MultiPoly.monomial(T, {"x[2]": -1}, 2)
    with pytest.raises(DivisibilityError):
        p.substitute({"x[1]": MultiPoly.variable(T, "x[2]") + 1})


def test_invert_monomial():
    m = MultiPoly.monomial(T, {"x[1]": 2, "x[2]": -1}, Fraction(3, 2))
    assert m * m.invert_monomial() == MultiPoly.const(T, 1)
    with pytest.raises(DivisibilityError):
        (m + 1).invert_monomial()


def test_variable_class_order_is_canonical():
    # table construction sorts by class then label, independent of input order
    t1 = VarTable([Variable.t(), Variable.x(2), Variable.xi("1", 1), Variable.x(1)])
    t2 = VarTable([Variable.x(1), Variable.xi("1", 1), Variable.x(2), Variable.t()])
    assert t1.names == t2.names
    assert t1.names[0] == "xi[1][1]"
    order = [CLASS_ORDER.index(v.cls) for v in t1.vars]
    assert order == sorted(order)


def test_canonical_text_golden():
    p = (MultiPoly.variable(T, "x[1]") + MultiPoly.variable(T, "t")) ** 2
    assert poly_to_text(p) == "t^2 + 2*t*x[1] + x[1]^2"
    q = MultiPoly.monomial(T, {"x[1]": -1}, Fraction(-1, 2)) + 3
    assert poly_to_text(q) == "3 - 1/2*x[1]^-1"
    assert poly_to_text(MultiPoly.zero(T)) == "0"


def test_convert_between_tables():
    small = VarTable([Variable.x(1), Variable.t()])
    p = MultiPoly.variable(small, "x[1]") + MultiPoly.variable(small, "t") * 2
    q = p.convert(T)
    assert q.table is T
    assert q.coeff_of({"x[1]": 1}) == 1 and q.coeff_of({"t": 1}) == 2
    back = q.convert(small)
    assert back == p
    with pytest.raises(ContextError):
        (q * MultiPoly.variable(T, "y[1]")).convert(small)


def test_context_mixing_rejected():
    other = VarTable([Variable.x(1)])
    with pytest.raises(ContextError):
        MultiPoly.variable(T, "x[1]") + MultiPoly.variable(other, "x[1]")


def test_coefficients_in_round_trip():
    p = MultiPoly.monomial(T, {"x[1]": -2, "y[1]": 1}, 3) + MultiPoly.variable(T, "x[1]")
    slices = p.coefficients_in("x[1]")
    assert [power for power, _ in slices] == [1, -2]
    x = MultiPoly.variable(T, "x[1]")
    assert sum((c * x ** k for k, c in slices), MultiPoly.zero(T)) == p


def test_product_helper():
    xs = [MultiPoly.variable(T, "x[1]"), MultiPoly.variable(T, "x[2]"),
          MultiPoly.const(T, 2)]
    assert product(T, xs) == MultiPoly.monomial(T, {"x[1]": 1, "x[2]": 1}, 2)
    assert product(T, []) == MultiPoly.const(T, 1)


# -- packed products against the tuple-sum reference ----------------------------------


def tuple_sum_product(a, b):
    """Reference product: every pair of terms summed as exponent tuples,
    coefficients added in a dict, zeros dropped, integral Fractions
    collapsed to int.  Kept apart from `MultiPoly.__mul__`, which packs
    exponents into ints."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c
            for e, c in out.items() if c}


# 10 Laurent and 10 non-Laurent variables
W = VarTable([Variable.x(i) for i in range(10)] + [Variable.y(i) for i in range(10)])
# exponent tops whose sums sit at the byte (255/256) and two-byte (65535/65536)
# field limits and past them, so every field width runs
TOPS = (1, 3, 127, 128, 255, 256, 32767, 32768, 65535, 70000)
COEFFS = st.one_of(
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]),
    st.integers(-4, 4).filter(bool),
)


@st.composite
def wide_polys(draw):
    """Sparse polynomials over W: each term sets up to three variables, to
    0, +-1 or +-top (negative on the Laurent x only), so products both
    collide and reach the field limits."""
    top = draw(st.sampled_from(TOPS))
    p = MultiPoly.zero(W)
    for _ in range(draw(st.integers(0, 5))):
        exps = {}
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, W.nvars - 1))
            lo = -top if W.vars[i].laurent else 0
            exps[W.names[i]] = draw(st.sampled_from(sorted({lo, -1 if lo else 0, 0, 1, top})))
        p = p + MultiPoly.monomial(W, exps, draw(COEFFS))
    return p


@settings(max_examples=150, deadline=None)
@given(wide_polys(), wide_polys())
def test_packed_product_matches_tuple_sums(a, b):
    assert typed((a * b).terms) == typed(tuple_sum_product(a, b))


@settings(max_examples=40, deadline=None)
@given(wide_polys(), wide_polys(), st.integers(0, 3))
def test_packed_powers_and_products_match_tuple_sums(a, b, n):
    ref = MultiPoly.const(W, 1)
    for _ in range(n):
        ref = MultiPoly(W, tuple_sum_product(ref, a))
    assert typed((a ** n).terms) == typed(ref.terms)
    ref = MultiPoly(W, tuple_sum_product(MultiPoly(W, tuple_sum_product(a, b)), a))
    assert typed(product(W, [a, b, a]).terms) == typed(ref.terms)


def termwise_substitute(p, bindings):
    """Reference substitution: each term's image, built by products and
    powers, added to a running `MultiPoly` sum one term at a time."""
    table = p.table
    out = MultiPoly.zero(table)
    for e, c in p.terms.items():
        term = MultiPoly(table, {tuple(0 if n in bindings else x
                                       for n, x in zip(table.names, e)): c})
        for n, x in zip(table.names, e):
            if n in bindings and x:
                term = term * bindings[n] ** x
        out = out + term
    return out


@st.composite
def substitutions(draw):
    """A polynomial over T and bindings for some of its variables, each to
    a one-term polynomial or to any polynomial over T; a Laurent x bound
    to more than one term cannot take its negative powers."""
    p = draw(polys())
    bindings = {}
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True)):
        if draw(st.booleans()):
            *exp, c = draw(mono_strategy())
            bindings[name] = MultiPoly.monomial(T, dict(zip(NAMES, exp)), c or 1)
        else:
            bindings[name] = draw(polys())
    return p, bindings


@settings(max_examples=100, deadline=None)
@given(substitutions())
def test_substitute_matches_termwise_sum(case):
    p, bindings = case
    try:
        want = termwise_substitute(p, bindings)
    except (DivisibilityError, LaurentViolationError) as exc:
        with pytest.raises(type(exc)):
            p.substitute(bindings)
        return
    assert typed(p.substitute(bindings).terms) == typed(want.terms)


@pytest.mark.parametrize("top", [127, 128, 255, 256, 32767, 32768, 65535, 65536, 2 ** 40])
def test_packed_product_at_the_field_limits(top):
    # the product's largest exponent is exactly 2 * top or top + 1; a
    # carry between fields would move some other variable's exponent
    x0, x1, y0 = (MultiPoly.variable(W, n) for n in ("x[0]", "x[1]", "y[0]"))
    a = x0 ** top + x1 * y0 ** top - x0 ** -top
    b = x0 ** top - y0 + 1
    for p, q in ((a, b), (b, b), (a, a), (a, x1 * y0 ** top)):
        assert typed((p * q).terms) == typed(tuple_sum_product(p, q))


def test_packed_product_cancels_terms_and_fractions():
    x0, y0 = MultiPoly.variable(W, "x[0]"), MultiPoly.variable(W, "y[0]")
    half = Fraction(1, 2)
    p = (x0 * half + y0) * (x0 * 2 - y0 * 4)
    assert p.terms == {(2,) + (0,) * 19: 1, (0,) * 10 + (2,) + (0,) * 9: -4}
    assert all(type(c) is int for c in p.terms.values())
    assert ((x0 - x0 ** -1) * (x0 + x0 ** -1)) == x0 ** 2 - x0 ** -2
