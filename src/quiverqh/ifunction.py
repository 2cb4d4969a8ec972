"""Hypergeometric quasimap coefficients and their difference equation.

The degree-d coefficient of the abelianized small I-function is a product
over torus weights w with pairing a = <gauge part of w, d>:

    a > 0:   1 / prod_{l=1}^{a} (w + l h)
    a < 0:   prod_{l=0}^{-a-1} (w - l h)
    a = 0:   1

(the infinite products in the raw definition telescope to this finite
form; the degree-zero coefficient is 1).  Coefficients are kept factored
as multisets of linear forms, which both speeds up and sharpens the
difference-equation check: common factors cancel exactly and only the
residual products are expanded and compared.

The difference equation along a degree shift d' states

    prod_{<w,d'> > 0} prod_{m=0}^{<w,d'>-1} (w + <w,d> h - m h) * c_d
  = prod_{<w,d'> < 0} prod_{m=0}^{-<w,d'>-1} (w + <w,d-d'> h - m h) * c_{d-d'}

Both windows follow from telescoping the coefficient formula: the factors
a weight w contributes to c_d and to c_{d-d'} differ by the ladder of
linear forms w + l h for l strictly between <w,d-d'> and <w,d> inclusive
on the larger end, and the two product ranges above are exactly that
ladder written from the top.

A factor is named by a pair (weight index i, shift s) and stands for the
linear form w_i + s h.  Weight i's names in c_d, in c_{d-d'} and in the
two windows cancel as multisets exactly when its ladder closes,
<w_i,d> - <w_i,d-d'> = <w_i,d'>, and equal name multisets give equal
products and equal scalars.  So the ladder certificate decides a pair:
when every weight's ladder closes the pair passes, read off three integer
vectors without building a polynomial.  The pairing of every weight with
a degree is computed once per WeightData and kept in the
``WeightData.degrees`` memo.  d - d' is paired with every weight on its
own rather than read off as <w,d> - <w,d'>: that difference is the
pairing only for weights that pair linearly, and the check must judge the
weights it is given, not assume that of them.  Real weights pair
linearly, so the certificate decides every pair of a real sweep.

A pair with a weight whose ladder does not close falls back to counting
factors by name.  The names of c_d, of c_{d-d'} and of the two windows
are read off the three pairing tuples; each name is built and
canonicalised (the text of its sign- and scale-normalized form, plus the
scalar it was divided by) once per WeightData and kept in the
``WeightData.factors`` memo.  The left side (the lhs window, c_d's
numerator and c_{d-d'}'s denominator) counts each canonical key +1 and
the right side -1; only the products that did not cancel are expanded
and compared, so a failure returns the nonzero residual, or the
mismatched scalars, as witness.  An empty numerator or denominator of a
coefficient stands as the single factor 1, which takes part in the
cancellation like any other factor.

Coefficients outside the effective cone are zero and recursions that step
outside the cone are skipped with a notice rather than checked.

The h -> 0 Kaehler-normalization sign: the ratio of root factors for a
shift by d collapses to prod_{roots a, <a,d> != 0} a^{<a,d>} (a constant
+-1), computed by exact division and cross-checked against the parity of
the pairing with the sum of positive roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product as iproduct
from operator import sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .groebner import Budget, BudgetError
from .polycore import (
    MultiPoly,
    RationalFunction,
    VarTable,
    exact_divide,
    poly_to_text,
    product,
)
from .quiver import (
    Quiver,
    WeightData,
    cocharacter,
    in_effective_cone,
    require_gauge_nodes,
)
from .symfun import BlockStructure, positive_root_pairing


class IfunCoeff(NamedTuple):
    """Factored coefficient: products of linear forms, numerator and
    denominator kept as tuples of polynomials."""

    degree: tuple  # sorted ((node id, (entries...)), ...)
    num_factors: tuple
    den_factors: tuple

    def value(self) -> RationalFunction:
        table = (self.num_factors or self.den_factors)[0].table
        return RationalFunction(
            product(table, self.num_factors), product(table, self.den_factors)
        )


def _degree_key(d: Mapping[str, Sequence[int]]) -> tuple:
    return tuple(sorted((nid, tuple(vec)) for nid, vec in d.items()))


def _coeff_factors(pairings: Sequence[int]) -> tuple:
    """(numerator, denominator) of a coefficient as lists of factor names
    (weight index i, shift s), each naming w_i + s h, given the pairing a
    of every weight with the degree: the ladder l = 1..a in the
    denominator when a > 0, shifts -l for l = 0..-a-1 in the numerator
    when a < 0."""
    num: list = []
    den: list = []
    for i, a in enumerate(pairings):
        if a > 0:
            den.extend((i, l) for l in range(1, a + 1))
        elif a < 0:
            num.extend((i, -l) for l in range(-a))
    return num, den


# an empty numerator or denominator stands as the single factor 1
_PAD = [None]


def _canon_factor(p: MultiPoly) -> tuple:
    """(canonical text of the normalized form, scalar, p, normalized form)
    with p = scalar * normalized form; leading canonical coefficient 1.
    The zero polynomial is ("0", 0, p, p)."""
    if p.is_zero():
        return "0", 0, p, p
    _, lc = p.leading()
    scaled = p * (Fraction(1, lc) if isinstance(lc, int) else 1 / lc)
    return poly_to_text(scaled), lc, p, scaled


def _factor(w: WeightData, name) -> tuple:
    """Canonical factor of a name (i, s), or of the padding name None;
    computed once per WeightData and kept in ``w.factors``."""
    f = w.factors.get(name)
    if f is None:
        if name is None:
            p = MultiPoly.const(w.table, 1)
        else:
            i, s = name
            p = w.weights[i].form + s * MultiPoly.variable(w.table, "h")
        f = w.factors[name] = _canon_factor(p)
    return f


def _degree(w: WeightData, d: Mapping[str, Sequence[int]]) -> tuple:
    """The pairing of every weight with d, computed once per WeightData and
    degree and kept in ``w.degrees``."""
    key = _degree_key(d)
    pairings = w.degrees.get(key)
    if pairings is None:
        dmap = cocharacter(w.quiver, d)
        pairings = w.degrees[key] = tuple(wt.pair(dmap) for wt in w.weights)
    return pairings


def _polys(w: WeightData, names: list) -> tuple:
    return tuple(_factor(w, n)[2] for n in (names or _PAD))


def ifun_coeff(w: WeightData, d: Mapping[str, Sequence[int]]) -> IfunCoeff:
    """Finite telescoped coefficient at degree d (must lie in the cone)."""
    q = w.quiver
    if not in_effective_cone(q, d):
        raise ValueError("degree outside the effective cone has zero coefficient")
    num, den = _coeff_factors(_degree(w, d))
    return IfunCoeff(_degree_key(d), _polys(w, num), _polys(w, den))


def _sub_degree(d: Mapping, dp: Mapping) -> dict:
    out = {nid: list(vec) for nid, vec in d.items()}
    for nid, vec in dp.items():
        cur = out.setdefault(nid, [0] * len(vec))
        for j, v in enumerate(vec):
            cur[j] -= v
    return out


class QdeResult(NamedTuple):
    ok: bool
    skipped: bool
    notice: str = ""
    witness: str = ""

    def __bool__(self) -> bool:
        return self.ok


def qde_check(
    w: WeightData,
    d: Mapping[str, Sequence[int]],
    dprime: Mapping[str, Sequence[int]],
    d_entry: tuple | None = None,
) -> QdeResult:
    """Exact difference-equation check relating c_d and c_{d-d'}.

    A pair whose ladders all close passes on the ladder certificate.
    Otherwise both sides are assembled as factor multisets; after
    cancellation the residues are expanded and compared as polynomials,
    so a pass is an exact identity and a failure returns the nonzero
    residual as witness.  A degree d or a step d-d' outside the effective
    cone is reported as skipped.

    A caller that already holds d's pairings (`_degree`) may pass them as
    d_entry, and only for d in the effective cone: d's cone test and
    pairing lookup are then not repeated.  Without them the check makes
    both itself; the verdict is the same either way.
    """
    q = w.quiver
    if d_entry is None and not in_effective_cone(q, d):
        return QdeResult(True, True, "d outside the effective cone")
    dm = _sub_degree(d, dprime)
    if not in_effective_cone(q, dm):
        return QdeResult(True, True, "d - d' leaves the effective cone")
    ad = _degree(w, d) if d_entry is None else d_entry
    am, ap = _degree(w, dm), _degree(w, dprime)
    # the ladder certificate: weight i's factor names cancel as multisets
    # exactly when <w_i,d> - <w_i,d-d'> = <w_i,d'>
    if tuple(map(sub, ad, am)) == ap:
        return QdeResult(True, False)
    # lhs_window * c_d = rhs_window * c_{d-d'}, cross-multiplied: the left
    # holds the lhs window, c_d's numerator and c_{d-d'}'s denominator and
    # counts +1, the right the rest and counts -1
    num_d, den_d = _coeff_factors(ad)
    num_dm, den_dm = _coeff_factors(am)
    lwin = [(i, ad[i] - m) for i, a in enumerate(ap) for m in range(a)]
    rwin = [(i, am[i] - m) for i, a in enumerate(ap) for m in range(-a)]
    counts: dict = {}
    reps: dict = {}
    scalars = []
    for sign, window, num, den in ((1, lwin, num_d, den_dm), (-1, rwin, num_dm, den_d)):
        scalar = 1
        for n in chain(window, num or _PAD, den or _PAD):
            key, s, _, unit = _factor(w, n)
            scalar *= s
            counts[key] = counts.get(key, 0) + sign
            reps[key] = unit
        scalars.append(scalar)
    scalar, rscalar = scalars

    residual = {k: n for k, n in counts.items() if n}
    if not residual:
        if scalar == rscalar:
            return QdeResult(True, False)
        return QdeResult(False, False, witness=f"scalar mismatch {scalar} vs {rscalar}")
    # expand whatever did not cancel and compare exactly; the scalars are
    # already in scalar/rscalar, so the residual is built from normalized forms
    table = w.table
    lres = product(table, [reps[k] for k, n in residual.items() for _ in range(max(n, 0))])
    rres = product(table, [reps[k] for k, n in residual.items() for _ in range(max(-n, 0))])
    diff = scalar * lres - rscalar * rres
    if diff.is_zero():
        return QdeResult(True, False)
    return QdeResult(False, False, witness=poly_to_text(diff))


def qde_box_size(q: Quiver, box: int) -> int:
    """Number of (d, d') pairs in the degree box, (box+1)^s * s for s
    coordinates.  A negative box is an input error, and a count over the
    default pair budget raises BudgetError."""
    if box < 0:
        raise ValueError(f"degree box bound must be >= 0, got {box}")
    s = sum(n.dim for n in require_gauge_nodes(q))
    count = (box + 1) ** s * s
    budget = Budget()
    if count > budget.max_pairs:
        raise BudgetError(
            f"degree box {box} has {count} pairs, over the pair budget "
            f"({budget.max_pairs} pairs)"
        )
    return count


def qde_box_pairs(q: Quiver, box: int) -> Iterator[tuple]:
    """All (d, d') pairs with d-coordinates 0..box (sign-adjusted by theta)
    and d' running over coordinate generators, in deterministic order,
    yielded one at a time.  The box is checked by `qde_box_size` when this
    is called, before any pair is built."""
    qde_box_size(q, box)
    slots = []
    for n in q.gauge_nodes:
        s = 1 if n.theta > 0 else -1
        for j in range(n.dim):
            slots.append((n.id, j, s))
    return _box_pairs(q, slots, box)


def _box_pairs(q: Quiver, slots: list, box: int) -> Iterator[tuple]:
    """The pairs of `qde_box_pairs` over its (node id, slot, sign)
    coordinates, in the same order."""
    for vec in iproduct(range(box + 1), repeat=len(slots)):
        d: dict = {}
        for (nid, j, s), v in zip(slots, vec):
            d.setdefault(nid, [0] * q.dim(nid))[j] = s * v
        for nid, j, s in slots:
            dp = {nid: [s if jj == j else 0 for jj in range(q.dim(nid))]}
            yield d, dp


def qde_rows(w: WeightData, pairs: Iterable) -> list:
    """Report rows of qde_check for the given (d, d') pairs, in order.

    The pairs are taken one degree at a time: a pair whose d equals, by
    value, the report copy of the previous pair's d continues that
    degree's run, so a caller may reuse and mutate one dict.  Each run
    tests d's cone and looks up d's pairings once, and all its rows hold
    one report copy of d; rows with equal d' hold one copy of d' between
    them.  qde_check still decides every pair, once.  The shared row
    objects are read-only: a caller that edits one row's "d" or "dprime"
    edits every row holding it.
    """
    q = w.quiver
    rows = []
    shifts: dict = {}
    d_row = None
    for d, dp in pairs:
        if d != d_row:
            d_row = {nid: list(vec) for nid, vec in d.items()}
            entry = _degree(w, d) if in_effective_cone(q, d) else None
        key = tuple([(nid, tuple(vec)) for nid, vec in dp.items()])
        dp_row = shifts.get(key)
        if dp_row is None:
            dp_row = shifts[key] = {nid: list(vec) for nid, vec in dp.items()}
        res = qde_check(w, d, dp, entry)
        rows.append({
            "d": d_row,
            "dprime": dp_row,
            "ok": res.ok,
            "skipped": res.skipped,
            "notice": res.notice,
            "witness": res.witness,
        })
    return rows


def root_shift_sign(
    table: VarTable,
    blocks: BlockStructure,
    d: Mapping[str, Sequence[int]],
) -> int:
    """Sign of the h -> 0 root-factor ratio for a shift by d.

    Computed as the exact quotient of the shifted-root products and
    cross-checked against parity of the positive-root pairing; the two
    disagreeing is an internal error.
    """
    num = MultiPoly.const(table, 1)
    den = MultiPoly.const(table, 1)
    for node, names in blocks.blocks:
        vec = d.get(node)
        if vec is None:
            continue
        for a in range(len(names)):
            for b in range(len(names)):
                if a == b:
                    continue
                root = MultiPoly.variable(table, names[a]) - MultiPoly.variable(table, names[b])
                pair = vec[a] - vec[b]
                if pair > 0:
                    num = num * root ** pair
                elif pair < 0:
                    den = den * root ** (-pair)
    ratio = exact_divide(num, den)
    if not ratio.is_constant():
        raise ArithmeticError("root ratio did not collapse to a constant")
    c = ratio.constant_coeff()
    if c not in (1, -1):
        raise ArithmeticError(f"root ratio is {c}, expected a sign")
    expected = -1 if positive_root_pairing(blocks, d) % 2 else 1
    if c != expected:
        raise ArithmeticError("finite ratio disagrees with positive-root parity")
    return int(c)
