"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Every check is exact — integer/rational arithmetic, ideal membership, or
polynomial identity.  Wall-clock times are printed for information and
never asserted.  Run with -v for the per-criterion pass/fail listing.
"""

import itertools
import random
import time

from quiverqh.polycore import MultiPoly, VarTable, Variable, poly_to_text
from quiverqh.symfun import (
    BlockStructure,
    antisymmetrize,
    chern_from_roots,
    complete,
    insertion_exponents,
)
from quiverqh.quiver import build_table, default_pmax, weights
from quiverqh.presentation import (
    build_ideal,
    compare_chambers,
    exchange_lhs_rhs,
    truncated_chern_quotient,
)
from quiverqh.groebner import buchberger, laurent_contains, normal_form
from quiverqh.cluster import (
    cluster_variables,
    coefficient_free_seed,
    f_polynomial_and_g_vector,
    mutate,
    mutate_path,
    principal_seed,
    seed_from_quiver,
    separation_check,
)
from quiverqh.ifunction import qde_box_pairs, qde_rows
from quiverqh.embed import psi_yhat_qfactor, verify_type_a

from conftest import cleared_laurent_basis

A2 = [[0, 1], [-1, 0]]


def report(tag, t0, detail):
    print(f"{tag} PASS ({time.perf_counter() - t0:.2f}s): {detail}")


def test_ac01_truncated_quotient_remainder():
    t0 = time.perf_counter()
    table = VarTable([Variable.t()])
    rng = random.Random(20260819)
    for _ in range(200):
        nu = rng.randint(0, 5)
        np_ = rng.randint(0, nu)
        U = [MultiPoly.const(table, rng.randint(-3, 3)) for _ in range(nu)]
        Up = [MultiPoly.const(table, rng.randint(-3, 3)) for _ in range(np_)]
        delta = truncated_chern_quotient(table, U, Up)
        rem = chern_from_roots(table, U) - delta * chern_from_roots(table, Up)
        assert rem.degree("t") < len(Up), (
            [poly_to_text(r) for r in U],
            [poly_to_text(r) for r in Up],
        )
    report("AC-1", t0, "200 random quotient remainders bounded by the rank")


def test_ac02_bialternant_identity():
    t0 = time.perf_counter()
    table = VarTable([Variable.xi("1", j) for j in range(1, 5)])
    checked = 0
    for v in range(1, 5):
        names = tuple(f"xi[1][{j}]" for j in range(1, v + 1))
        blocks = BlockStructure((("1", names),))
        forms = [MultiPoly.variable(table, n) for n in names]
        for m in range(0, 7):
            for p in range(0, 7 - m):
                got = antisymmetrize(
                    table, blocks, {"1": insertion_exponents(v, m + p)}
                )
                assert got == complete(table, forms, m + p - v + 1), (v, m, p)
                checked += 1
    report("AC-2", t0, f"{checked} bialternant insertions equal complete functions")


def test_ac03_grassmannian_relation(quivers):
    t0 = time.perf_counter()
    q = quivers("gr24")
    ideal = build_ideal(q, 3, build_table(q, equivariant=False, with_q=True))
    table = ideal.generators[0].table
    gb = buchberger(list(ideal.generators))
    xi = [MultiPoly.variable(table, f"xi[1][{j}]") for j in (1, 2)]
    member = complete(table, xi, 4) + MultiPoly.variable(table, "Q[1]")
    assert normal_form(member, gb).is_zero()
    report("AC-3", t0, "h4(xi) + Q lies in the [4]->(2) ideal at p_max 3")


def test_ac04_exchange_relation_membership(quivers):
    t0 = time.perf_counter()
    q = quivers("fl234")
    table = build_table(q, equivariant=False, with_t=True, with_q=True)
    ideal = build_ideal(q, 5, build_table(q, equivariant=False, with_q=True))
    gens = [g.convert(table) for g in ideal.generators]
    gb = buchberger(gens)
    checked = 0
    for k in ("1", "2"):
        lhs, rhs = exchange_lhs_rhs(q, k, table)
        for power, coeff in (lhs - rhs).coefficients_in("t"):
            assert normal_form(coeff, gb).is_zero(), (k, power)
            checked += 1
    report("AC-4", t0, f"{checked} t-coefficients of both exchange relations in the ideal")


def test_ac05_pentagon_enumeration():
    t0 = time.perf_counter()
    s0 = coefficient_free_seed(A2)
    table = s0.table
    x1 = MultiPoly.variable(table, "x[1]")
    x2 = MultiPoly.variable(table, "x[2]")
    one = MultiPoly.const(table, 1)
    i1 = MultiPoly.variable(table, "x[1]", -1)
    i2 = MultiPoly.variable(table, "x[2]", -1)
    expected = {
        poly_to_text(p)
        for p in (x1, x2, (one + x2) * i1, (one + x1) * i2,
                  (one + x1 + x2) * i1 * i2)
    }
    got = cluster_variables(s0, 5)
    assert {poly_to_text(p) for p in got} == expected
    for p in got:
        assert all(isinstance(c, int) for c in p.terms.values())
    report("AC-5", t0, "exactly 5 rank-2 cluster variables with pentagon values")


def test_ac06_strong_laurent_and_involutivity(quivers):
    t0 = time.perf_counter()
    seed0, _ = seed_from_quiver(quivers("a3_frozen"))

    def state(s):
        return (s.btilde, s.variable_texts(), tuple(y.exps for y in s.coeffs))

    seen = {seed0.unlabeled_key()}
    frontier, visited = [seed0], [seed0]
    for _ in range(6):
        nxt = []
        for s in frontier:
            for k in range(1, s.n + 1):
                s2 = mutate(s, k)
                key = s2.unlabeled_key()
                if key not in seen:
                    seen.add(key)
                    nxt.append(s2)
                    visited.append(s2)
        frontier = nxt

    variables = {}
    frozen_slot = seed0.table.index(seed0.cnames[0])
    for s in visited:
        for k in range(1, s.n + 1):
            assert state(mutate(mutate(s, k), k)) == state(s)
        for p, txt in zip(s.cluster, s.variable_texts()):
            variables.setdefault(txt, p)
    assert len(variables) == 9
    for p in variables.values():
        for exp, c in p.terms.items():
            assert isinstance(c, int)
            assert exp[frozen_slot] >= 0
    report(
        "AC-6", t0,
        f"{len(visited)} seeds involutive; 9 variables Laurent, frozen-positive",
    )


def test_ac07_type_a_closed_forms(quivers):
    t0 = time.perf_counter()
    q = quivers("fl234")
    table = build_table(q, equivariant=False, with_t=True, with_q=True)
    rows = verify_type_a(q, buchberger(build_ideal(q, default_pmax(q), table).generators))
    assert len(rows) == 12
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]
    images = [r for r in rows if r["kind"] == "image"]
    quotients = [r for r in rows if r["kind"] != "image"]
    assert len(images) == 6 and len(quotients) == 6
    report("AC-7", t0, "all 6 closed-form images and 6 quotient identities hold")


def test_ac08_qde_sweeps(quivers):
    t0 = time.perf_counter()
    total = 0
    for name in ("p2", "gr24"):
        q = quivers(name)
        w = weights(q, build_table(q, equivariant=False, with_h=True))
        rows = qde_rows(w, qde_box_pairs(q, 3))
        bad = [r for r in rows if not r["ok"]]
        assert not bad, bad[:3]
        total += sum(1 for r in rows if not r["skipped"])
    assert total > 0
    report("AC-8", t0, f"{total} difference-equation instances verified")


def test_ac09_vgit_ideals_agree(quivers):
    # the Groebner oracle, mutual membership over inverted Kaehler
    # variables, agrees with the rows of the relation-by-relation check;
    # the two quivers differ in theta only, so one table holds both ideals
    t0 = time.perf_counter()
    qa = quivers("vgit312_plus")
    qb = quivers("vgit312_minus")
    for equivariant in (False, True):
        ta = build_table(qa, equivariant=equivariant, with_q=True)
        gens_a = list(build_ideal(qa, default_pmax(qa), ta).generators)
        gens_b = list(build_ideal(qb, default_pmax(qb), ta).generators)
        qnames = ta.of_class("Q")
        gb_a = cleared_laurent_basis(gens_a, qnames)
        gb_b = cleared_laurent_basis(gens_b, qnames)
        assert all(laurent_contains(gb_a, g) for g in gens_b)
        assert all(laurent_contains(gb_b, g) for g in gens_a)
        rows = compare_chambers(qa, qb, ta)
        assert [(r["node"], r["ok"]) for r in rows] == [("1", True)], rows
    report("AC-9", t0, "theta = +1 and -1 ideals agree, plain and equivariant")


def test_ac10_gvector_suite(quivers):
    t0 = time.perf_counter()
    p0 = principal_seed(A2)
    paths = [()]
    for length in range(1, 6):
        paths += list(itertools.product((1, 2), repeat=length))
    for path in paths:
        for k in (1, 2):
            f, g = f_polynomial_and_g_vector(p0, path, k)
            assert f.coeff_of({}) == 1
            assert separation_check(p0, path, k), (path, k)
    assert psi_yhat_qfactor(quivers("principal_rank1"), "1")
    report(
        "AC-10", t0,
        f"{len(paths) * 2} homogeneous variables separated; hatted monomial matches",
    )
