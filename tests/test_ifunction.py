"""Quasimap coefficient products and degree-shift difference equations.

Golden coefficients fixed independently: for projective space P^(m-1)
(one gauge node of rank 1 fed by m arrows) the degree-d coefficient is
1 / prod_{l=1..d} (xi + l h)^m, read off from the telescoping recursion
c_d / c_(d-1) = 1 / (xi + d h)^m.
"""

import pytest

from quiverqh.polycore import MultiPoly, RationalFunction, poly_to_text, product
from quiverqh.quiver import (
    Edge,
    Node,
    Quiver,
    build_table,
    gauge_blocks,
    weights,
)
from quiverqh.ifunction import (
    ifun_coeff,
    qde_box_pairs,
    qde_check,
    qde_rows,
    root_shift_sign,
)


def qweights(q, equivariant=False):
    return weights(q, build_table(q, equivariant=equivariant, with_h=True))


def projective(m: int) -> Quiver:
    return Quiver(
        (Node("0", "frozen", m, None), Node("1", "gauge", 1, 1)),
        (Edge("0", "1"),),
    )


@pytest.mark.parametrize("m,d", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2)])
def test_projective_space_coefficient(m, d):
    q = projective(m)
    w = qweights(q)
    c = ifun_coeff(w, {"1": [d]})
    table = w.table
    xi = MultiPoly.variable(table, "xi[1][1]")
    h = MultiPoly.variable(table, "h")
    expect_den = product(
        table, ((xi + l * h) ** m for l in range(1, d + 1))
    )
    assert c.value() == RationalFunction(MultiPoly.const(table, 1), expect_den)


def test_degree_zero_coefficient_is_one(quivers):
    w = qweights(quivers("gr24"))
    c = ifun_coeff(w, {"1": [0, 0]})
    one = MultiPoly.const(w.table, 1)
    assert c.value() == RationalFunction(one, one)


def test_coefficient_outside_cone_rejected(quivers):
    w = qweights(quivers("gr24"))
    with pytest.raises(ValueError):
        ifun_coeff(w, {"1": [-1, 0]})


def test_gr24_coefficient_split_by_slots(quivers):
    w = qweights(quivers("gr24"))
    c = ifun_coeff(w, {"1": [1, 1]})
    table = w.table
    h = MultiPoly.variable(table, "h")
    dens = []
    for j in (1, 2):
        xi = MultiPoly.variable(table, f"xi[1][{j}]")
        dens.append((xi + h) ** 4)
    assert c.value() == RationalFunction(
        MultiPoly.const(table, 1), product(table, dens)
    )


def test_qde_single_step_p2(quivers):
    w = qweights(quivers("p2"))
    res = qde_check(w, {"1": [2]}, {"1": [1]})
    assert res.ok and not res.skipped


def test_qde_skips_outside_cone(quivers):
    w = qweights(quivers("p2"))
    res = qde_check(w, {"1": [0]}, {"1": [1]})
    assert res.ok and res.skipped
    assert "cone" in res.notice


@pytest.mark.parametrize("name,box", [
    ("p2", 4), ("gr24", 3), ("vgit312_plus", 3), ("vgit312_minus", 3),
])
def test_qde_box_sweeps(quivers, name, box):
    q = quivers(name)
    rows = qde_rows(qweights(q), qde_box_pairs(q, box))
    assert rows, "sweep produced no rows"
    bad = [r for r in rows if not r["ok"]]
    assert not bad, bad[:3]
    assert any(not r["skipped"] for r in rows)


def test_qde_equivariant_slice(quivers):
    # frozen-node parameters stay symbolic; the identity must still close
    w = qweights(quivers("p2"), equivariant=True)
    res = qde_check(w, {"1": [2]}, {"1": [1]})
    assert res.ok and not res.skipped


def test_qde_pairs_enumeration(quivers):
    q = quivers("gr24")
    pairs = list(qde_box_pairs(q, 2))
    # 3^2 degree vectors, 2 coordinate directions each
    assert len(pairs) == 18
    seen = {tuple(tuple(v) for _, v in sorted(d.items())) for d, _ in pairs}
    assert len(seen) == 9


def test_root_shift_sign(quivers):
    q = quivers("gr24")
    table = build_table(q, equivariant=False, with_h=True)
    blocks = gauge_blocks(q, table)
    assert root_shift_sign(table, blocks, {"1": [1, 0]}) == -1
    assert root_shift_sign(table, blocks, {"1": [0, 1]}) == -1
    assert root_shift_sign(table, blocks, {"1": [1, 1]}) == 1
    assert root_shift_sign(table, blocks, {"1": [2, 0]}) == 1
