"""Differential test of qde_check against a factor-by-factor oracle.

The oracle is the straightforward form of the check: every linear factor
w + k h of both sides is built as a fresh polynomial and canonicalised on
the spot, the coefficients come from a direct transcription of the
telescoped formula, and scalars are Fractions.  qde_check passes a pair
when every weight's ladder closes and otherwise names factors by (weight
index, shift) and canonicalises each name once per WeightData; every
QdeResult field must agree with the oracle, witness text included.

Real weights pair linearly with degrees, so the difference equation
holds for any linear forms and every check passes.  The corrupted weight
sets below pair with an offset, which breaks the telescoping and the
first weight's ladder, so the fallback's failing checks (residual
witnesses and scalar mismatches) are compared as well.

The sweep, `qde_rows`, must give the rows of qde_check on fresh copies
of each pair, also when the caller reuses one mutated d dict, while the
rows of one degree share one copy of d.
"""

import copy
import dataclasses
import glob
import os
from fractions import Fraction

import pytest

from quiverqh.ifunction import QdeResult, qde_box_pairs, qde_check, qde_rows
from quiverqh.polycore import MultiPoly, poly_to_text, product
from quiverqh.quiver import (
    Weight,
    WeightData,
    build_table,
    cocharacter,
    in_effective_cone,
    weights,
)

from conftest import QUIVER_DIR

# -- oracle ------------------------------------------------------------------------


def oracle_coeff(w, dmap) -> tuple:
    """(numerator, denominator) factor polynomials of c_d, padded with 1."""
    h = MultiPoly.variable(w.table, "h")
    num: list = []
    den: list = []
    for wt in w.weights:
        a = wt.pair(dmap)
        if a > 0:
            for l in range(1, a + 1):
                den.append(wt.form + l * h)
        elif a < 0:
            for l in range(0, -a):
                num.append(wt.form - l * h)
    one = MultiPoly.const(w.table, 1)
    return tuple(num) or (one,), tuple(den) or (one,)


def oracle_canon(p: MultiPoly) -> tuple:
    """(text, scalar, normalized form) with p = scalar * normalized form."""
    if p.is_zero():
        return "0", Fraction(0), p
    _, lc = p.leading()
    scaled = p * (Fraction(1, lc) if isinstance(lc, int) else 1 / lc)
    return poly_to_text(scaled), Fraction(lc), scaled


def oracle_sub_degree(d, dp) -> dict:
    out = {nid: list(vec) for nid, vec in d.items()}
    for nid, vec in dp.items():
        cur = out.setdefault(nid, [0] * len(vec))
        for j, v in enumerate(vec):
            cur[j] -= v
    return out


def oracle_qde_check(w, d, dprime) -> QdeResult:
    q = w.quiver
    if not in_effective_cone(q, d):
        return QdeResult(True, True, "d outside the effective cone")
    dm = oracle_sub_degree(d, dprime)
    if not in_effective_cone(q, dm):
        return QdeResult(True, True, "d - d' leaves the effective cone")
    table = w.table
    h = MultiPoly.variable(table, "h")
    dmap = cocharacter(q, d)
    dmmap = cocharacter(q, dm)
    dpmap = cocharacter(q, dprime)

    lhs: list = []
    rhs: list = []
    for wt in w.weights:
        ap = wt.pair(dpmap)
        if ap > 0:
            ad = wt.pair(dmap)
            for m in range(ap):
                lhs.append(wt.form + (ad - m) * h)
        elif ap < 0:
            am = wt.pair(dmmap)
            for m in range(-ap):
                rhs.append(wt.form + (am - m) * h)
    cd_num, cd_den = oracle_coeff(w, dmap)
    cdm_num, cdm_den = oracle_coeff(w, dmmap)
    left = lhs + list(cd_num) + list(cdm_den)
    right = rhs + list(cdm_num) + list(cd_den)

    counts: dict = {}
    reps: dict = {}
    scalar = Fraction(1)
    for p in left:
        key, s, unit = oracle_canon(p)
        scalar *= s
        counts[key] = counts.get(key, 0) + 1
        reps.setdefault(key, unit)
    rscalar = Fraction(1)
    for p in right:
        key, s, unit = oracle_canon(p)
        rscalar *= s
        counts[key] = counts.get(key, 0) - 1
        reps.setdefault(key, unit)

    residual = {k: n for k, n in counts.items() if n}
    if not residual:
        if scalar == rscalar:
            return QdeResult(True, False)
        return QdeResult(False, False, witness=f"scalar mismatch {scalar} vs {rscalar}")
    # both sides are scalar * product of normalized factors
    lres = product(table, [reps[k] for k, n in residual.items() for _ in range(max(n, 0))])
    rres = product(table, [reps[k] for k, n in residual.items() for _ in range(max(-n, 0))])
    diff = scalar * lres - rscalar * rres
    if diff.is_zero():
        return QdeResult(True, False)
    return QdeResult(False, False, witness=poly_to_text(diff))


# -- fixtures and corruptions ----------------------------------------------------------

# a3_frozen has 22 degree slots: 3^22 degree vectors at box 2
FIXTURES = sorted(
    os.path.splitext(os.path.basename(p))[0]
    for p in glob.glob(os.path.join(QUIVER_DIR, "*.json"))
    if not p.endswith("a3_frozen.json")
)


def qweights(q, equivariant):
    return weights(q, build_table(q, equivariant=equivariant, with_h=True))


@dataclasses.dataclass(frozen=True)
class SkewedWeight:
    """A weight whose pairing is off by a constant, so not linear."""

    form: MultiPoly
    gauge_part: tuple
    offset: int

    def pair(self, d) -> int:
        return Weight.pair(self, d) + self.offset


def fresh(w):
    """A copy of w that shares its quiver, table and weights and starts
    empty memos."""
    return WeightData(w.quiver, w.table, w.weights)


def corrupted(w, offset, scale, const):
    """Weights with the first one's form replaced by scale * form + const
    and its pairing shifted by offset (the copy starts an empty factor memo)."""
    first = w.weights[0]
    skewed = SkewedWeight(first.form * scale + const, first.gauge_part, offset)
    return WeightData(w.quiver, w.table, (skewed,) + w.weights[1:])


# (offset, scale, const): residual witnesses; scalars 2^k in the residual;
# a constant factor 2 against the padding 1 (scalar mismatches); zero factors
CORRUPTIONS = [(1, 1, 0), (1, 2, 0), (-1, 0, 2), (-1, 0, 0)]


def assert_agrees(w, q, box) -> list:
    results = []
    for d, dp in qde_box_pairs(q, box):
        got = qde_check(w, d, dp)
        want = oracle_qde_check(w, d, dp)
        assert got._asdict() == want._asdict(), (d, dp)
        results.append(got)
    return results


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("equivariant", [False, True], ids=["plain", "equivariant"])
@pytest.mark.parametrize("name", FIXTURES)
def test_qde_check_matches_oracle(quivers, name, equivariant):
    q = quivers(name)
    results = assert_agrees(qweights(q, equivariant), q, 2)
    assert all(r.ok for r in results)


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=str)
@pytest.mark.parametrize("name", ["p2", "gr24", "fl123"])
def test_qde_check_matches_oracle_on_failures(quivers, name, corruption):
    q = quivers(name)
    w = corrupted(qweights(q, True), *corruption)
    results = assert_agrees(w, q, 2)
    assert any(not r.ok for r in results)


def test_corruptions_reach_both_failure_kinds(quivers):
    q = quivers("gr24")
    witnesses = [
        r.witness
        for c in CORRUPTIONS
        for r in assert_agrees(corrupted(qweights(q, False), *c), q, 2)
        if not r.ok
    ]
    assert any(t.startswith("scalar mismatch") for t in witnesses)
    assert any(t and not t.startswith("scalar mismatch") for t in witnesses)


def degree_key(d) -> tuple:
    return tuple(sorted((nid, tuple(vec)) for nid, vec in d.items()))


def test_factor_memo_is_small_and_outside_equality(quivers):
    q = quivers("fl234")
    w = qweights(q, False)
    met = set()
    for d, dp in qde_box_pairs(q, 2):
        if not qde_check(w, d, dp).skipped:
            met.update(degree_key(x) for x in (d, oracle_sub_degree(d, dp), dp))
    # real weights pair linearly, so every ladder closes and no factor is
    # ever canonicalised
    assert not w.factors
    # two gauge nodes of dims 3 and 2: the 3^5 degrees of box 2, each met
    # as d or d - d', and the 5 shifts d', which name one node only
    assert len(w.degrees) == len(met) == 3 ** 5 + 5
    # a skewed first weight breaks its ladder on every checked pair, so the
    # fallback canonicalises the few dozen factors the sweep meets
    bad = corrupted(w, 1, 1, 0)
    for d, dp in qde_box_pairs(q, 2):
        qde_check(bad, d, dp)
    assert 0 < len(bad.factors) < 100
    copy = fresh(w)
    assert copy == w
    assert not copy.factors and not copy.degrees
    assert "factors" not in repr(w) and "degrees" not in repr(w)


def test_corrupted_copy_of_a_swept_weight_set_starts_fresh_memos(quivers):
    # the copy shares the quiver, table and all but the first weight with a
    # swept original; reusing its factor or degree memo would check the
    # original weights again and pass every pair
    q = quivers("gr24")
    w = qweights(q, True)
    assert all(r.ok for r in assert_agrees(w, q, 2))
    assert w.degrees
    results = assert_agrees(corrupted(w, 1, 2, 0), q, 2)
    assert any(not r.ok for r in results)


def test_residual_witness_counts_each_scalar_once(quivers):
    # first form doubled, pairing offset +1: the left side is
    # 2(x+h) (2x+h)^2 (x+h)^2 and the right side 2(x+h)^3 (2x+h), x = xi[1][1]
    # (padding 1s dropped); after cancelling normalized factors the left
    # keeps x + h/2 with scalar 2*2*2 and the right keeps scalar 2*2
    q = quivers("p2")
    w = corrupted(qweights(q, False), 1, 2, 0)
    d, dp = {"1": [1]}, {"1": [1]}
    want = QdeResult(False, False, witness="8*xi[1][1] + 4*h - 4")
    assert qde_check(w, d, dp) == want
    assert oracle_qde_check(w, d, dp) == want


# -- the sweep ---------------------------------------------------------------------


def fresh_rows(w, pairs) -> list:
    """Report rows from qde_check on fresh deep copies of each pair, with
    every QdeResult field."""
    rows = []
    for d, dp in pairs:
        d, dp = copy.deepcopy(d), copy.deepcopy(dp)
        rows.append({"d": d, "dprime": dp, **qde_check(w, d, dp)._asdict()})
    return rows


def reused_dict_pairs(pairs):
    """The given pairs with every d written into one dict, whose lists are
    overwritten in place from degree to degree."""
    d: dict = {}
    for dd, dp in pairs:
        for nid, vec in dd.items():
            d.setdefault(nid, [0] * len(vec))[:] = vec
        yield d, dp


@pytest.mark.parametrize("corruption", [None] + CORRUPTIONS, ids=str)
@pytest.mark.parametrize("name,box", [("fl234", 2), ("gr24", 3)])
def test_sweep_rows_match_checks_on_fresh_copies(quivers, name, box, corruption):
    q = quivers(name)
    w = qweights(q, False)
    if corruption:
        w = corrupted(w, *corruption)
    # each route starts empty memos, so none reads what another filled
    want = fresh_rows(fresh(w), qde_box_pairs(q, box))
    rows = qde_rows(fresh(w), qde_box_pairs(q, box))
    assert rows == want
    assert rows == qde_rows(fresh(w), reused_dict_pairs(qde_box_pairs(q, box)))
    assert rows == qde_rows(fresh(w), map(copy.deepcopy, qde_box_pairs(q, box)))
    assert any(not r["ok"] for r in rows) == bool(corruption)


def test_sweep_rows_of_a_degree_share_one_d(quivers):
    q = quivers("fl234")
    shifts = sum(n.dim for n in q.gauge_nodes)
    # equal degrees share by value, even when every pair is a fresh copy
    for pairs in (qde_box_pairs(q, 2), map(copy.deepcopy, qde_box_pairs(q, 2))):
        rows = qde_rows(qweights(q, False), pairs)
        runs = [rows[i:i + shifts] for i in range(0, len(rows), shifts)]
        assert len(runs) == 3 ** 5
        assert all(r["d"] is run[0]["d"] for run in runs for r in run)
        assert len({id(run[0]["d"]) for run in runs}) == len(runs)
        assert len({id(r["dprime"]) for r in rows}) == shifts
        assert all(r["dprime"] is runs[0][j]["dprime"]
                   for run in runs for j, r in enumerate(run))
