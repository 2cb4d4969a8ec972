"""Reduced bases checked against sympy's Groebner engine.

sympy is an independent implementation: both sides' reduced bases are
compared as sets of monic polynomials over QQ, with the table's variable
order as the variable order of both engines.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from quiverqh.groebner import (  # noqa: E402
    Budget,
    BudgetError,
    MonomialOrder,
    buchberger,
)
from quiverqh.polycore import MultiPoly, VarTable, Variable  # noqa: E402
from quiverqh.presentation import build_ideal  # noqa: E402
from quiverqh.quiver import build_table  # noqa: E402


def _to_sympy(p, gens):
    terms = {
        e: sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
        for e, c in p.terms.items()
    }
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def _assert_same_basis(generators, kind):
    table = generators[0].table
    gens = sympy.symbols(f"v0:{table.nvars}")
    ours = buchberger(generators, MonomialOrder(kind))
    theirs = sympy.groebner(
        [_to_sympy(g, gens) for g in generators], *gens, order=kind, domain=sympy.QQ
    )
    want = {sympy.Poly(p, *gens, domain=sympy.QQ).monic() for p in theirs.exprs}
    got = {_to_sympy(g, gens).monic() for g in ours.elements}
    assert got == want


# sympy's lex engine takes minutes on the equivariant flag ideals, so
# those are compared under grevlex only
@pytest.mark.parametrize("name,pmax,equivariant,kind", [
    ("a2", 3, False, "grevlex"),
    ("a2", 3, False, "lex"),
    ("gr24", 3, False, "grevlex"),
    ("gr24", 3, False, "lex"),
    ("gr24", 4, True, "grevlex"),
    ("gr24", 4, True, "lex"),
    ("p2", 4, False, "lex"),
    ("fl123", 3, False, "grevlex"),
    ("fl123", 3, False, "lex"),
    ("fl123", 3, True, "grevlex"),
    ("fl234", 4, False, "grevlex"),
])
def test_fixture_bases_match_sympy(quivers, name, pmax, equivariant, kind):
    ideal = build_ideal(
        quivers(name), pmax, build_table(quivers(name), equivariant=equivariant, with_q=True)
    )
    _assert_same_basis(list(ideal.generators), kind)


T3 = VarTable([Variable.xi("1", j) for j in range(1, 4)])


def test_slow_lex_ideal_matches_sympy_in_pinned_steps():
    # a draw of the random test below that takes more than 30 s when pairs
    # are selected by lcm degree alone: 3 generators in 3 variables,
    # 5-element lex basis
    a, b, c = (MultiPoly.variable(T3, f"xi[1][{j}]") for j in (1, 2, 3))
    gens = [
        a**2 * b**3 * c - 2 * a * b**3 * c**2 + 2 * b * c,
        3 * a * b**3 * c - 2 * a * b**2 * c**2 - 2 * b**3 * c**2,
        -a**2 * c**2 + a * b**2 - 2 * b**3,
    ]
    _assert_same_basis(gens, "lex")
    order = MonomialOrder("lex")
    assert len(buchberger(gens, order, Budget(max_steps=736))) == 5
    with pytest.raises(BudgetError):
        buchberger(gens, order, Budget(max_steps=735))

_term = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool),
)
_poly = st.lists(_term, min_size=1, max_size=3).map(lambda ts: MultiPoly(T3, dict(ts)))


@settings(max_examples=30, deadline=None)
@given(st.lists(_poly, min_size=1, max_size=3), st.sampled_from(["grevlex", "lex"]))
def test_random_small_ideals_match_sympy(polys, kind):
    _assert_same_basis(polys, kind)
