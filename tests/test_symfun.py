"""Symmetric-function identities and the bialternant insertion formula."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.polycore import MultiPoly, VarTable, Variable, product
from quiverqh.symfun import (
    BlockStructure,
    antisymmetrize,
    chern_from_roots,
    complete,
    completes,
    elementaries,
    elementary,
    insertion_exponents,
    positive_root_pairing,
    vandermonde,
)

T4 = VarTable([Variable.xi("1", j) for j in range(1, 5)] + [Variable.t()])
X4 = tuple(f"xi[1][{j}]" for j in range(1, 5))


def xs(table, names):
    return [MultiPoly.variable(table, n) for n in names]


def brute_elementary(table, forms, i):
    if i == 0:
        return MultiPoly.const(table, 1)
    total = MultiPoly.zero(table)
    for combo in itertools.combinations(forms, i):
        total = total + product(table, combo)
    return total


def brute_complete(table, forms, i):
    if i == 0:
        return MultiPoly.const(table, 1)
    total = MultiPoly.zero(table)
    for combo in itertools.combinations_with_replacement(forms, i):
        total = total + product(table, combo)
    return total


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
def test_elementary_and_complete_against_expansion(n, i):
    forms = xs(T4, X4[:n])
    assert elementary(T4, forms, i) == brute_elementary(T4, forms, i)
    assert complete(T4, forms, i) == brute_complete(T4, forms, i)
    assert elementaries(T4, forms) == [brute_elementary(T4, forms, j) for j in range(n + 1)]
    assert completes(T4, forms, i) == [brute_complete(T4, forms, j) for j in range(i + 1)]


def test_out_of_range_indices_vanish():
    forms = xs(T4, X4[:2])
    assert elementary(T4, forms, -1).is_zero()
    assert elementary(T4, forms, 3).is_zero()
    assert complete(T4, forms, -1).is_zero()
    assert not complete(T4, forms, 3).is_zero()
    assert completes(T4, forms, -1) == []


def test_e_h_generating_function_inverse():
    # sum_{i+j=k} (-1)^i e_i h_j = 0 for k >= 1
    forms = xs(T4, X4[:3])
    for k in range(1, 5):
        acc = MultiPoly.zero(T4)
        for i in range(k + 1):
            term = elementary(T4, forms, i) * complete(T4, forms, k - i)
            acc = acc + (term if i % 2 == 0 else -term)
        assert acc.is_zero()


def test_chern_from_roots_expands_by_elementary():
    forms = xs(T4, X4[:3])
    c = chern_from_roots(T4, forms)
    t = MultiPoly.variable(T4, "t")
    expect = sum(
        (elementary(T4, forms, i) * t ** (3 - i) for i in range(4)),
        MultiPoly.zero(T4),
    )
    assert c == expect


def test_jacobi_trudi_two_rows():
    # h-determinant for the two-row shape (a, b): s = h_a h_b - h_{a+1} h_{b-1}
    # cross-checked against the bialternant for v = 2
    forms = xs(T4, X4[:2])
    blocks = BlockStructure((("1", X4[:2]),))
    for a, b in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        det = complete(T4, forms, a) * complete(T4, forms, b) - complete(
            T4, forms, a + 1
        ) * complete(T4, forms, b - 1)
        bial = antisymmetrize(
            T4, blocks, {"1": (a + 1, b)}
        )
        assert det == bial


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6))
def test_bialternant_insertion_is_complete(v, p):
    # antisymmetrized staircase with an inserted power at the top slot
    # collapses to a single complete symmetric function
    names = X4[:v]
    blocks = BlockStructure((("1", names),))
    forms = xs(T4, names)
    got = antisymmetrize(T4, blocks, {"1": insertion_exponents(v, p)})
    assert got == complete(T4, forms, p - v + 1)


def test_antisymmetrize_kills_repeated_exponents():
    blocks = BlockStructure((("1", X4[:3]),))
    assert antisymmetrize(T4, blocks, {"1": (2, 2, 0)}).is_zero()


def test_antisymmetrize_block_transposition_sign():
    blocks = BlockStructure((("1", X4[:2]),))
    a = antisymmetrize(T4, blocks, {"1": (4, 1)})
    b = antisymmetrize(T4, blocks, {"1": (1, 4)})
    assert a == -b


def test_antisymmetrize_inert_prefactor():
    blocks = BlockStructure((("1", X4[:2]),))
    t = MultiPoly.variable(T4, "t")
    plain = antisymmetrize(T4, blocks, {"1": (3, 0)})
    scaled = antisymmetrize(T4, blocks, {"1": (3, 0)}, prefactor=t * 5)
    assert scaled == t * 5 * plain


def test_vandermonde_alternates():
    blocks = BlockStructure((("1", X4[:3]),))
    v = vandermonde(T4, blocks)
    x1, x2, x3 = X4[:3]
    swap = {x1: MultiPoly.variable(T4, x2), x2: MultiPoly.variable(T4, x1)}
    assert v.substitute(swap) == -v


def test_positive_root_pairing():
    blocks = BlockStructure((("1", X4[:2]), ("2", (X4[2],))))
    assert positive_root_pairing(blocks, {"1": [1, 0]}) == 1
    assert positive_root_pairing(blocks, {"1": [0, 1]}) == -1
    assert positive_root_pairing(blocks, {"2": [7]}) == 0
    assert positive_root_pairing(blocks, {"1": [2, -1], "2": [4]}) == 3
    with pytest.raises(ValueError):
        positive_root_pairing(blocks, {"1": [1]})


def test_block_structure_rejects_overlap():
    with pytest.raises(ValueError):
        BlockStructure((("1", X4[:2]), ("2", X4[1:3])))
