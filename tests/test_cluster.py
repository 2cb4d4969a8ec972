"""Seeds, mutation, Laurent phenomenon, F-polynomials, separation.

Classical oracles used here, all independent of the implementation:
  * rank-2 matrix [[0,1],[-1,0]] has exactly five cluster variables and
    mutation period five (pentagon recurrence),
  * rank-1 coefficient-free has the single extra variable 2/x,
  * cluster variables of a chain quiver satisfy the three-term product
    recursion x[k-1,l+1] = x[k-1,l]*x[l,l+1] - x[k-1,l-1] with x[kk] = 1,
  * every mutation is an involution on labeled seeds.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.groebner import BudgetError
from quiverqh.polycore import MultiPoly, poly_to_text
from quiverqh.quiver import load_quiver
from quiverqh.cluster import (
    LaurentPhenomenonError,
    Seed,
    SeedError,
    TropMonomial,
    cluster_variables,
    coefficient_free_seed,
    f_polynomial_and_g_vector,
    is_principal,
    mutate,
    mutate_path,
    parse_path,
    principal_seed,
    seed_from_matrix,
    seed_from_quiver,
    seed_layers,
    separation_check,
    tropical_evaluation,
)

A2 = [[0, 1], [-1, 0]]


def labeled_state(s: Seed):
    return (s.btilde, s.variable_texts(), tuple(y.exps for y in s.coeffs))


# -- finite-type enumeration -------------------------------------------------------


def test_rank2_pentagon_variables():
    s0 = coefficient_free_seed(A2)
    table = s0.table
    x1 = MultiPoly.variable(table, "x[1]")
    x2 = MultiPoly.variable(table, "x[2]")
    one = MultiPoly.const(table, 1)
    inv1 = MultiPoly.variable(table, "x[1]", -1)
    inv2 = MultiPoly.variable(table, "x[2]", -1)
    expected = {
        poly_to_text(p)
        for p in (
            x1,
            x2,
            (one + x2) * inv1,
            (one + x1) * inv2,
            (one + x1 + x2) * inv1 * inv2,
        )
    }
    got = cluster_variables(s0, 5)
    assert {poly_to_text(p) for p in got} == expected
    # finite type: deeper search finds nothing new
    assert len(cluster_variables(s0, 8)) == 5


def test_rank1_variables():
    s0 = coefficient_free_seed([[0]])
    texts = {poly_to_text(p) for p in cluster_variables(s0, 3)}
    assert texts == {"x[1]", "2*x[1]^-1"}


def test_pentagon_periodicity():
    s0 = coefficient_free_seed(A2)
    s5 = mutate_path(s0, (1, 2, 1, 2, 1))
    assert s5.variable_texts() == ("x[2]", "x[1]")
    assert s5.unlabeled_key() == s0.unlabeled_key()
    s10 = mutate_path(s5, (1, 2, 1, 2, 1))
    assert labeled_state(s10) == labeled_state(s0)


def test_chain_with_frozen_enumeration(quivers):
    seed, rows = seed_from_quiver(quivers("a3_frozen"))
    assert rows == ("1", "2", "3", "0")
    got = cluster_variables(seed, 6)
    # type A_3 count: 3 initial + 6 non-initial
    assert len(got) == 9
    assert len(cluster_variables(seed, 8)) == 9
    frozen_slot = seed.table.index(seed.cnames[0])
    for p in got:
        for exp, c in p.terms.items():
            assert isinstance(c, int)
            assert exp[frozen_slot] >= 0, "frozen generator inverted"


def test_seed_layers_count_clusters(quivers):
    # finite type: A_2 has 5 clusters and A_3 has 14 (Catalan numbers); the
    # first depth that adds no seed comes back empty and ends the walk
    a2 = coefficient_free_seed(A2)
    assert [len(layer) for layer in seed_layers(a2, 8)] == [1, 2, 2, 0]
    seed, _ = seed_from_quiver(quivers("a3_frozen"))
    assert [len(layer) for layer in seed_layers(seed, 8)] == [1, 3, 5, 5, 0]
    assert [len(layer) for layer in seed_layers(seed, 2)] == [1, 3, 5]


def test_seed_budget_guard():
    markov = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
    with pytest.raises(BudgetError):
        cluster_variables(coefficient_free_seed(markov), 6, max_seeds=10)


# -- mutation mechanics -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    path=st.lists(st.integers(1, 3), max_size=5),
    k=st.integers(1, 3),
)
def test_mutation_is_involutive(quivers, path, k):
    seed, _ = seed_from_quiver(quivers("a3_frozen"))
    s = mutate_path(seed, path)
    assert labeled_state(mutate(mutate(s, k), k)) == labeled_state(s)


def test_mutation_direction_range():
    s0 = coefficient_free_seed(A2)
    with pytest.raises(SeedError):
        mutate(s0, 0)
    with pytest.raises(SeedError):
        mutate(s0, 3)


@pytest.mark.parametrize("name", ["fl234", "a3_frozen"])
def test_chain_three_term_recursion(quivers, name):
    q = quivers(name)
    seed, _ = seed_from_quiver(q)
    n = seed.n

    def xv(k, l):
        if k == l:
            return MultiPoly.const(seed.table, 1)
        return mutate_path(seed, range(k + 1, l + 1)).cluster[l - 1]

    for k in range(1, n):
        for l in range(k, n):
            lhs = xv(k - 1, l + 1)
            rhs = xv(k - 1, l) * xv(l, l + 1) - xv(k - 1, l - 1)
            assert (lhs - rhs).is_zero(), (k, l)


def test_mutation_path_parse():
    assert parse_path("") == ()
    assert parse_path("1,2,1") == (1, 2, 1)
    assert parse_path(" 2 , 1 ".replace(" ", "")) == (2, 1)
    with pytest.raises(ValueError):
        parse_path("1,a")


def test_seed_from_quiver_matrix(quivers):
    seed, rows = seed_from_quiver(quivers("fl234"))
    assert rows == ("1", "2", "0")
    assert [list(r) for r in seed.btilde] == [[0, 1], [-1, 0], [1, 0]]
    assert seed.xnames == ("x[1]", "x[2]") and seed.cnames == ("x[3]",)
    assert not is_principal(seed)
    assert is_principal(principal_seed(A2))


# -- seed validation ----------------------------------------------------------------


def test_seed_rejects_non_skew():
    with pytest.raises(SeedError):
        seed_from_matrix([[0, 1], [1, 0]], 2)


def test_seed_rejects_short_matrix():
    with pytest.raises(SeedError):
        seed_from_matrix([[0]], 2)


def test_seed_rejects_coefficient_mismatch():
    p0 = principal_seed(A2)
    swapped = (p0.coeffs[1], p0.coeffs[0])
    with pytest.raises(SeedError):
        Seed(p0.table, p0.xnames, p0.cnames, p0.cluster, swapped, p0.btilde)


def test_seed_rejects_fractional_cluster_entry():
    s0 = coefficient_free_seed(A2)
    bad = (s0.cluster[0] * Fraction(1, 2), s0.cluster[1])
    with pytest.raises(LaurentPhenomenonError):
        Seed(s0.table, s0.xnames, s0.cnames, bad, s0.coeffs, s0.btilde)


# -- tropical semifield -------------------------------------------------------------


def test_trop_monomial_algebra():
    g = ("y[1]", "y[2]")
    a = TropMonomial(g, (2, -1))
    b = TropMonomial(g, (-1, 3))
    assert (a * b).exps == (1, 2)
    assert a.oplus(b).exps == (-1, -1)
    assert a.power(3).exps == (6, -3)
    assert (a * a.inverse()).is_one
    assert a.positive_part().exps == (2, 0)
    assert TropMonomial.one(g).is_one
    assert str(a) == "y[1]^2*y[2]^-1"
    with pytest.raises(SeedError):
        a * TropMonomial(("y[1]",), (1,))
    with pytest.raises(SeedError):
        TropMonomial(g, (1,))


# -- F-polynomials, g-vectors, separation -------------------------------------------


def test_f_polynomial_goldens():
    p0 = principal_seed(A2)
    f, g = f_polynomial_and_g_vector(p0, (1, 2), 2)
    assert poly_to_text(f) == "y[1]*y[2] + y[1] + 1"
    assert g == (-1, 0)
    f1, g1 = f_polynomial_and_g_vector(p0, (1,), 1)
    assert poly_to_text(f1) == "y[1] + 1"
    assert g1 == (-1, 1)
    # initial variables: F = 1, g = e_k
    f0, g0 = f_polynomial_and_g_vector(p0, (), 1)
    assert poly_to_text(f0) == "1" and g0 == (1, 0)


def test_f_polynomial_needs_principal():
    with pytest.raises(SeedError):
        f_polynomial_and_g_vector(coefficient_free_seed(A2), (1,), 1)
    with pytest.raises(SeedError):
        separation_check(coefficient_free_seed(A2), (1,), 1)


def test_tropical_evaluation_of_f_is_trivial():
    # F-polynomials have constant term 1, so their tropical value is 1
    p0 = principal_seed(A2)
    f, _ = f_polynomial_and_g_vector(p0, (1, 2, 1), 1)
    assert tropical_evaluation(p0, f).is_one


@pytest.mark.parametrize("path", [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2, 1)])
def test_separation_rank2(path):
    p0 = principal_seed(A2)
    assert separation_check(p0, path, 1)
    assert separation_check(p0, path, 2)


def test_separation_rank1():
    p0 = principal_seed([[0]])
    assert separation_check(p0, (1,), 1)
    f, g = f_polynomial_and_g_vector(p0, (1,), 1)
    assert poly_to_text(f) == "y[1] + 1" and g == (-1,)
