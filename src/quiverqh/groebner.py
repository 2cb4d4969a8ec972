"""Deterministic Buchberger engine and exact ideal membership.

Everything downstream that claims "congruent modulo the ideal" funnels
through this module: a reduced Groebner basis is computed once per ideal
and normal forms decide membership exactly.

Determinism: generators are processed in input order and the reduced
basis is sorted by leading monomial, so two runs on the same input produce
byte-identical bases.  A reduced basis is unique, so none of the choices
below changes a basis or a fingerprint, only the work done.

Pair selection: the pair with the least key (sugar, lcm degree, i, j)
comes first, after Giovini, Mora, Niesi, Robbiano and Traverso ("One
sugar cube, please", ISSAC 1991): an input's sugar is its total degree, a
pair's is max(sugar_i - deg lead_i, sugar_j - deg lead_j) + deg lcm, and
an element added from a pair keeps the pair's sugar.  By lcm degree
alone, coefficients can swell on inputs that are not homogeneous.  Under
lex, the 3-generator ideal of the test
`test_slow_lex_ideal_matches_sympy_in_pinned_steps` reached 37 051-bit
coefficients and took half a minute that way.  Under grevlex with the
criteria below, some small random ideals did the same.

Reducers: each term is reduced by the first row that divides it in
reducer-key order: least excess (how far a tail's top degree passes its
lead's degree; always 0 under grevlex), then shortest tail, then basis
index.  The rows are kept in that order with bisect as the basis grows;
a final basis keeps its rows in the same order, ties in lead order.

Pair criteria: the Gebauer-Moeller update ("On an installation of
Buchberger's algorithm", J. Symb. Comp. 6, 1988), run as each element h
joins the basis.  An old pair (i, j) is dropped when lead(h) divides its
lcm and that lcm differs from both lcm(i, h) and lcm(j, h) (criterion
B_k).  A new pair (i, h) is dropped when the lcm of another new pair
divides its lcm, coprime pairs taking part as divisors (criterion M and
F); then the new pairs with coprime leads are dropped (product
criterion).  Elements whose lead a later lead divides get no new pairs;
those that remain at the end form the minimal basis whose tails are
inter-reduced.

Rank-certified stop (``buchberger(..., free_rank=(n, names))``), after
Traverso ("Hilbert functions and the Buchberger algorithm", J. Symb.
Comp. 22, 1996).  The caller asserts that the generators lie in an ideal
I and that R/I is a free module of rank n over A, the polynomial ring in
the variables not named.  Each time a row joins, the engine checks two
things: every active lead is a monomial in the named variables only, and
exactly n such monomials are divisible by no active lead.  When both
hold it drops the remaining pairs and inter-reduces.  This is sound.
The leads hold no variable of A, so division by the rows leaves a
remainder in the A-span of those n monomials: the A-linear map from A^n
to R/I that sends the unit vectors to them is onto, and R/I is
isomorphic to A^n.  A surjective endomorphism of a finitely generated
module is an isomorphism (Matsumura, *Commutative Ring Theory*, Thm
2.4), so the map is injective and every element f of I reduces to 0 by
the rows.  Division meets the lead of f first, so a row's lead divides
it: the rows are a Groebner basis of I (Cox, Little & O'Shea, Ch. 2
Sec. 5 Def. 5).  Every row lies in the ideal of the generators, so they
generate I.  Hence generators of a strictly smaller ideal never stop
early: their rows cannot generate I.  The count needs a pure-power lead
in every named variable (read off the lead masks); `_standard_count`
slices the box by the first variable and is memoised, and the check runs
once per joined row.  The reduced basis is unique, so the stop changes
the work done, never a basis.

Packed monomials: the engine works on one Python int per monomial, after
Monagan & Pearce ("Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  For n variables and a field width
of w bits the int holds, from the most significant end:

* n order fields of w bits: for grevlex the total degree, then the
  partial sums e1+...+e(n-1), ..., e1 of the exponents in table order
  (first = largest); for lex the exponents in table order.
* n + 1 low fields of w + 1 bits: the total degree, then the exponents
  in table order, each topped by a guard bit that is 0 in every packed
  monomial.  With G the mask of the guard bits, ``lead`` divides ``m``
  exactly when ``((m | G) - lead) & G == G``: a field of ``m`` smaller
  than the one of ``lead`` borrows its guard bit and the borrow stops
  there.

Every field is a linear form in the exponents with nonnegative
coefficients, so packing is one linear map, pack(e) = sum e_i *
pack(unit_i), and adding packed ints multiplies monomials.  No field
exceeds the total degree, so nothing carries between fields while every
degree stays below 2**w, and comparing packed ints then compares
monomials in the order.  The width is derived from the input degrees,
with room for four times the largest.  Degrees are checked before they
are formed: each lcm when its pair is made, each S-polynomial, and each
reduction step whose reducer has a tail of higher degree than its lead
(possible under lex).  A degree that does not fit raises an internal
overflow and the computation is restarted at a wider width, so a carry
can never pass unnoticed.  A basis keeps its packer and reducer rows; a
``normal_form`` that overflows them packs the basis and its input again
at a width that fits, for that call only.

Packing is a bijection that preserves order, products and divisibility,
the reducer visits the same terms with the same reducers in the same
sequence as a tuple-keyed one, so bases, fingerprints, step counts and
reports do not depend on it.  A basis keeps its packer and the reducer
rows built from the packed result itself, which is all membership
reads.  It unpacks its elements to exponent tuples and computes its
fingerprint on first read, and loads ``hashlib`` only then: a run that
only decides membership never formats or hashes a basis.

Laurent variables are handled by adjoining an explicit inverse variable
inv.v with the relation v * inv.v - 1 (Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*), never by fractional arithmetic inside the
basis computation.  A polynomial enters the extended ring with each
negative power v^-a written inv.v^a, which equals it modulo the
relations; clearing denominators (the tests' reference route) would
give another generating set of the same ideal, so the same reduced
basis, at more work.  `_term_images` is the one map into the extended
ring: it rebinds by name, may replace variables by signed monomials and
writes each negative power on its inv.* column, with no merge between
powers (Q -> zeta^-1 sends zeta * Q to zeta * inv.zeta).

Transfer of a basis (``laurent_image_basis``).  Let G be a reduced basis
and phi the map that sends each substituted variable Q to its image, a
signed monomial zeta^pos * inv.zeta^neg, and fixes the other variables.
Let E be phi(G) with the relations v * inv.v - 1.  Check, on the packed
grevlex order that ``buchberger`` uses:

(a) the image of every substituted variable is a nonconstant monomial
    (with every negative power on an inv.* column);
(b) the lead of each element of G holds no substituted variable and its
    image no variable that an image or a relation holds;
(c) the image of each element's lead is strictly greater than the image
    of each of its other terms.

Then E is a Groebner basis.  By (a), phi(m) > phi(m') with ties broken
by G's order is a monomial order on the source; by (c) it gives G its
old leads, so G is a Groebner basis for it too (a set whose leads agree
under two orders is a Groebner basis for both: Mora & Robbiano, "The
Groebner fan of an ideal", J. Symb. Comp. 6, 1988).  So every S-pair of
G has a representation sum a_k g_k with every term below the lcm of the
leads in that order; phi fixes the leads (b), so it maps that to a
representation of the S-pair of the images whose terms are all below
the lcm in grevlex, and by (b) none equals it.  An lcm representation
for every pair makes a Groebner basis (Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*, Ch. 2 Sec. 9 Thm 6); the relations' leads
v * inv.v are coprime to each other and, by (b), to the images' leads.
``buchberger(..., settled=len(G))`` therefore forms no pair among the
images.  When a check fails (the tests hold an example where skipping
the pairs would drop an element) the same generators get a full run.

``laurent_contains`` reads the inverted variables
from the basis's table and packs its polynomial straight onto the
basis's columns, writing each negative power of an inverted variable on
its inv.* column while packing.  Negative exponents are rejected by
``buchberger``, ``normal_form`` and ``ideal_contains`` alike.

Membership in the ring of Weyl-symmetric polynomials is tested in the full
polynomial ring: for a symmetric polynomial p and symmetric generators,
p = sum a_i g_i implies p = sum avg_W(a_i) g_i with symmetric
coefficients, so full-ring membership is equivalent and nothing is lost.

Budgets cap the number of S-pair reductions and the basis size; exceeding
one raises BudgetError rather than returning a partial answer.
"""

from __future__ import annotations

import bisect
import heapq
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .polycore import (
    ContextError,
    MultiPoly,
    Variable,
    VarTable,
    _check_exp,
    _coeff,
    poly_to_text,
)


class BudgetError(RuntimeError):
    """Computation exceeded its configured budget."""


class Budget(NamedTuple):
    max_pairs: int = 500_000
    max_basis: int = 5_000
    max_steps: int = 20_000_000


class MonomialOrder:
    """Monomial order: kind 'grevlex' or 'lex' over the table's canonical
    variable order, first variable largest."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = "grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind

    def describe(self) -> str:
        return f"{self.kind}(<table>)"


# -- packed monomials -----------------------------------------------------------------


class _Overflow(Exception):
    """A monomial degree does not fit the current field width."""

    def __init__(self, degree: int):
        super().__init__(degree)
        self.degree = degree


def _width_for(degree: int) -> int:
    """Field width with room for degrees up to four times the given one."""
    return max(4 * degree, 15).bit_length()


class _Packer:
    """Packed encoding of exponent tuples for one order, table and width."""

    __slots__ = ("nvars", "width", "vmax", "deg_shift", "guards", "units")

    def __init__(self, order: MonomialOrder, table: VarTable, width: int):
        self.nvars = n = table.nvars
        self.width = width
        self.vmax = (1 << width) - 1
        step = width + 1
        self.deg_shift = n * step
        low_bits = (n + 1) * step
        self.guards = sum(1 << (i * step + width) for i in range(n + 1))
        # the packing of each unit exponent: its order fields, its degree
        # field and its own exponent field
        if order.kind == "grevlex":
            highs = [sum(1 << (width * k) for k in range(i, n)) for i in range(n)]
        else:
            highs = [1 << (width * (n - 1 - i)) for i in range(n)]
        self.units = tuple((h << low_bits) | (1 << self.deg_shift) | (1 << (i * step))
                           for i, h in enumerate(highs))

    def pack(self, e: tuple) -> int:
        if e and min(e) < 0:
            raise ValueError("negative exponent: use laurent_basis and laurent_contains")
        d = sum(e)
        if d > self.vmax:
            raise _Overflow(d)
        return sum(map(mul, e, self.units))

    def unpack(self, m: int) -> tuple:
        step = self.width + 1
        mask = self.vmax
        return tuple((m >> (i * step)) & mask for i in range(self.nvars))

    def degree(self, m: int) -> int:
        return (m >> self.deg_shift) & self.vmax

    def divides(self, lead: int, m: int) -> bool:
        g = self.guards
        return ((m | g) - lead) & g == g

    def row(self, lead: int, tail: list) -> tuple:
        """Reducer row (lead, tail, excess): excess is how far the tail's
        top degree exceeds the lead's, 0 when it does not."""
        top = max((self.degree(m) for m, _ in tail), default=0)
        return lead, tail, max(top - self.degree(lead), 0)


def _reducer_key(row: tuple) -> tuple:
    """Preference among reducers of one term: least excess, then
    shortest tail (the caller breaks ties by basis or lead order)."""
    return row[2], len(row[1])


def _reduce(terms: dict, rows: Sequence, pk: _Packer, steps: list, budget: Budget) -> dict:
    """Full normal form of a packed term dict against monic reducer rows,
    each term reduced by its first divisor in row order (rows come in
    reducer-key order).  Returns the irreducible remainder, largest
    monomial first."""
    out: dict = {}
    if not terms:
        return out
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    get = work.get
    pop = work.pop
    guards = pk.guards
    dshift = pk.deg_shift
    vmax = pk.vmax
    max_steps = budget.max_steps
    while heap:
        # every key of work has exactly one heap entry: a term that
        # cancels keeps its key with coefficient 0 until it is popped
        m = -heappop(heap)
        c = pop(m)
        if not c:
            continue
        mg = m | guards
        for row in rows:
            if (mg - row[0]) & guards == guards:
                break
        else:
            out[m] = c
            continue
        steps[0] += 1
        if steps[0] > max_steps:
            raise BudgetError(f"reduction budget exceeded ({max_steps} steps)")
        lead, tail, excess = row
        if excess and ((m >> dshift) & vmax) + excess > vmax:
            raise _Overflow(((m >> dshift) & vmax) + excess)
        shift = m - lead
        for te, tc in tail:
            ne = te + shift
            old = get(ne)
            if old is None:
                s = -c * tc
                heappush(heap, -ne)
            else:
                s = old - c * tc
            work[ne] = s if type(s) is int else _coeff(s)
    return out


def _monic(terms: dict) -> tuple:
    """(lead, tail list) after dividing by the lead coeff."""
    lead = max(terms)
    lc = terms[lead]
    if lc != 1:
        inv = Fraction(1, lc) if isinstance(lc, int) else 1 / lc
        terms = {m: _coeff(c * inv) for m, c in terms.items()}
    return lead, [(m, c) for m, c in terms.items() if m != lead]


def _rows(elements: Iterable[MultiPoly], pk: _Packer) -> tuple:
    """Reducer rows of monic basis elements at one packing, in reducer-key
    order, ties in element order."""
    rows = (pk.row(*_monic({pk.pack(e): c for e, c in g.terms.items()})) for g in elements)
    return tuple(sorted(rows, key=_reducer_key))


def _standard_count(leads: frozenset, memo: dict) -> int:
    """How many monomials no exponent tuple of leads divides, when each
    variable has a pure power among them.  Slices by the first exponent j:
    the tails of the leads whose first exponent is at most j divide the
    rest, and the slice changes only at those first exponents."""
    if leads not in memo:
        if not leads or () in leads:  # no variable left
            memo[leads] = 0 if leads else 1
        else:
            top = min(e[0] for e in leads if not any(e[1:]))
            cuts = sorted({e[0] for e in leads if e[0] < top} | {0}) + [top]
            memo[leads] = sum(
                (b - a) * _standard_count(frozenset(e[1:] for e in leads if e[0] <= a), memo)
                for a, b in zip(cuts, cuts[1:]))
    return memo[leads]


def _packed_basis(polys: list, pk: _Packer, budget: Budget, settled: int = 0,
                  free_rank: tuple | None = None) -> list:
    """Reduced basis of packed term dicts as (lead, reduced tail dict)
    pairs, sorted by increasing lead.  The first ``settled`` inputs form
    no pairs among themselves; ``free_rank`` is (n, column indices) of the
    rank-certified stop (`buchberger`)."""
    steps = [0]
    rows: list = []       # monic rows (lead, tail, excess), in basis order
    exps: list = []       # leading exponent tuples, for lcms
    masks: list = []      # bit v set when leading exponent v is nonzero
    degs: list = []       # degree of each lead
    sugars: list = []     # sugar degree of each row
    reducers: list = []   # the rows in reducer-key order ...
    keys: list = []       # ... and their keys, with the basis index last
    active: list = []     # rows whose lead no later lead divides
    pairs: list = []      # heap of (sugar, lcm degree, i, j, lcm)

    def add_poly(terms: dict, sugar: int, form_pairs: bool = True) -> None:
        nonlocal pairs, active
        lead, tail = _monic(terms)
        row = pk.row(lead, tail)
        h = len(rows)
        key = _reducer_key(row) + (h,)
        at = bisect.bisect(keys, key)
        keys.insert(at, key)
        reducers.insert(at, row)
        rows.append(row)
        sugars.append(sugar)
        eh = pk.unpack(lead)
        exps.append(eh)
        mh = sum(1 << v for v, x in enumerate(eh) if x)
        masks.append(mh)
        dh = pk.degree(lead)
        degs.append(dh)
        ldeg: dict = {}

        def lcm_degree(i: int) -> int:
            # leads with disjoint supports are coprime: their degrees add
            if i not in ldeg:
                ldeg[i] = sum(map(max, exps[i], eh)) if masks[i] & mh else degs[i] + dh
            return ldeg[i]

        # Gebauer-Moeller update.  lcm(i, h) divides the lcm of any old
        # pair (i, j) that lead(h) divides, so the two are equal exactly
        # when their degrees are.
        pairs = [
            p for p in pairs
            if not pk.divides(lead, p[4]) or lcm_degree(p[2]) == p[1] or lcm_degree(p[3]) == p[1]
        ]
        # new pairs (i, packed lcm, coprime); a coprime lcm is the sum of
        # the packed leads
        new = []
        for i in active if form_pairs else ():
            if masks[i] & mh:
                new.append((i, pk.pack(tuple(map(max, exps[i], eh))), False))
            elif degs[i] + dh > pk.vmax:
                raise _Overflow(degs[i] + dh)
            else:
                new.append((i, rows[i][0] + lead, True))
        kept = []
        for n, x in enumerate(new):
            if x[2] or not any(pk.divides(o[1], x[1])
                               for o in chain(kept, islice(new, n + 1, None))):
                kept.append(x)
        for i, l, coprime in kept:
            if not coprime:
                dl = pk.degree(l)
                s = max(sugars[i] - degs[i], sugar - dh) + dl
                pairs.append((s, dl, i, h, l))
        heapq.heapify(pairs)
        active = [i for i in active if not pk.divides(lead, rows[i][0])] + [h]

    # seed with interreduced input, in input order; a settled input comes
    # before any other, so its only partners would be settled rows
    for n, terms in enumerate(polys):
        r = _reduce(terms, reducers, pk, steps, budget)
        if r:
            add_poly(r, max(pk.degree(m) for m in terms), n >= settled)

    rank, cols = free_rank or (0, ())
    named = sum(1 << c for c in cols)
    memo: dict = {}
    counted = [-1, False]  # the number of rows at the last check, its answer

    def certified() -> bool:
        # the rank-certified stop (module docstring), checked once per row
        if counted[0] != len(rows):
            ms = {masks[i] for i in active}
            counted[:] = len(rows), (
                all(not m & ~named for m in ms)
                and sum(m for m in ms if not m & (m - 1)) == named
                and _standard_count(frozenset(tuple(exps[i][c] for c in cols) for i in active),
                                    memo) == rank)
        return counted[1]

    processed = 0
    while pairs and not (free_rank and certified()):
        sugar, dl, i, j, l = heapq.heappop(pairs)
        processed += 1
        if processed > budget.max_pairs:
            raise BudgetError(f"pair budget exceeded ({budget.max_pairs} pairs)")
        # S-polynomial of monic rows: the leading terms cancel at l
        top = dl + max(rows[i][2], rows[j][2])
        if top > pk.vmax:
            raise _Overflow(top)
        si = l - rows[i][0]
        sj = l - rows[j][0]
        s = {m + si: c for m, c in rows[i][1]}
        for m, c in rows[j][1]:
            ne = m + sj
            v = s.get(ne, 0) - c
            if v:
                s[ne] = v
            else:
                s.pop(ne, None)
        if not s:
            continue
        r = _reduce(s, reducers, pk, steps, budget)
        if not r:
            continue
        add_poly(r, sugar)
        if len(rows) > budget.max_basis:
            raise BudgetError(f"basis budget exceeded ({budget.max_basis} elements)")

    # the active rows form a minimal basis: no lead divides an earlier
    # lead (each row is reduced before it is added) and the update drops
    # every row whose lead a later lead divides.  Inter-reduce the tails.
    leads = {rows[idx][0] for idx in active}
    final = []
    for idx in active:
        lead = rows[idx][0]
        others = [row for row in reducers if row[0] in leads and row[0] != lead]
        final.append((lead, _reduce(dict(rows[idx][1]), others, pk, steps, budget)))
    final.sort(key=lambda t: t[0])
    return final


class GroebnerBasis:
    """A reduced basis as its packer and monic reducer rows (reducer-key
    order), which membership reads; the elements and the fingerprint are
    built on first read and kept."""

    __slots__ = ("table", "order", "packer", "rows", "_elements", "_fingerprint")

    def __init__(self, table: VarTable, order: MonomialOrder, packer: _Packer, rows: tuple):
        self.table = table
        self.order = order
        self.packer = packer
        self.rows = rows
        self._elements = None
        self._fingerprint = None

    @property
    def elements(self) -> tuple:
        """The basis, reduced and monic, sorted by increasing leading monomial."""
        if self._elements is None:
            pk = self.packer
            out = []
            for lead, tail, _ in sorted(self.rows, key=itemgetter(0)):
                terms = {pk.unpack(m): c for m, c in tail}
                terms[pk.unpack(lead)] = 1
                out.append(MultiPoly(self.table, terms))
            self._elements = tuple(out)
        return self._elements

    @property
    def fingerprint(self) -> str:
        """sha256 over the order's description and each element's text
        plus a newline, in lead order."""
        if self._fingerprint is None:
            import hashlib  # only a caller of the fingerprint loads OpenSSL

            fp = hashlib.sha256(self.order.describe().encode())
            for p in self.elements:
                fp.update(poly_to_text(p).encode())
                fp.update(b"\n")
            self._fingerprint = fp.hexdigest()
        return self._fingerprint

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.rows)


def buchberger(
    generators: Iterable[MultiPoly],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
    *,
    settled: int = 0,
    free_rank: tuple | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the given polynomial generators.

    The first ``settled`` nonzero generators must already be a Groebner
    basis under the order: they then form no S-pairs among themselves.
    A wrong claim gives a wrong basis, so only `laurent_image_basis`
    passes it, after proving it.

    ``free_rank=(n, names)`` asserts that the generators lie in an ideal
    I whose quotient is a free module of rank n over the polynomial ring
    in the variables not in names; Buchberger then stops pairing once its
    leads are monomials in names that leave exactly n of them (module
    docstring).  A wrong claim gives a wrong basis, so only `cli._basis`
    passes it, with the rank `presentation.free_rank` proves.  None runs
    every pair."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    table = gens[0].table
    for g in gens:
        if g.table is not table:
            raise ContextError("generators bound to different tables")
    order = order or MonomialOrder()
    budget = budget or Budget()
    degree = max(sum(e) for g in gens for e in g.terms)
    if free_rank is not None:
        free_rank = free_rank[0], [table.index(n) for n in free_rank[1]]
    while True:
        pk = _Packer(order, table, _width_for(degree))
        try:
            polys = [{pk.pack(e): c for e, c in g.terms.items()} for g in gens]
            final = _packed_basis(polys, pk, budget, settled, free_rank)
            break
        except _Overflow as exc:
            degree = exc.degree

    rows = sorted((pk.row(lead, list(tail.items())) for lead, tail in final), key=_reducer_key)
    return GroebnerBasis(table, order, pk, tuple(rows))


def _pack_input(p: MultiPoly, gb: GroebnerBasis, pk: _Packer, inverted: set) -> dict:
    """p's terms packed by pk on the columns of gb.table by variable name,
    each negative power v^-a of an inverted v written inv.v^a, in one
    pass.  The errors are those of `convert`, then of `_Packer.pack`."""
    table = gb.table
    same = p.table is table
    names = p.table.names
    if not same and any(n not in table for n in names):
        p.convert(table)  # raises unless the missing variables never occur
    units = pk.units if same else tuple(pk.units[table.index(n)] if n in table else 0
                                        for n in names)
    # None where a negative power is an error: convert's, when the target
    # variable is not Laurent, else pack's
    inv_units = tuple(pk.units[table.index(_inverse_var(n).name)]
                      if n in inverted and (same or table.var(n).laurent) else None
                      for n in names)
    vmax = pk.vmax
    out: dict = {}
    for e, c in p.terms.items():
        if min(e, default=0) < 0:
            d = m = 0
            for x, u, v in zip(e, units, inv_units):
                if x >= 0:
                    m += x * u
                    d += x
                elif v is None:
                    p.convert(table)
                    raise ValueError("negative exponent: use laurent_basis and laurent_contains")
                else:
                    m -= x * v
                    d -= x
        else:
            d = sum(e)
            m = sum(map(mul, e, units))
        if d > vmax:
            raise _Overflow(d)
        s = out.pop(m, 0) + c
        if s:
            out[m] = s if type(s) is int else _coeff(s)
    return out


def _remainder(p: MultiPoly, gb: GroebnerBasis, budget: Budget | None,
               inverted: set = frozenset()) -> tuple:
    """(packer, packed remainder) of p modulo gb.  A degree past the basis
    width packs the basis and p again at a width that fits, for this call
    only."""
    budget = budget or Budget()
    pk, rows = gb.packer, gb.rows
    while True:
        try:
            return pk, _reduce(_pack_input(p, gb, pk, inverted), rows, pk, [0], budget)
        except _Overflow as exc:
            pk = _Packer(gb.order, gb.table, _width_for(exc.degree))
            rows = _rows(gb.elements, pk)


def normal_form(p: MultiPoly, gb: GroebnerBasis, budget: Budget | None = None) -> MultiPoly:
    """Unique remainder of p modulo the reduced basis.  A degree past the
    basis width repacks for this call only (`_remainder`)."""
    if p.table is not gb.table:
        raise ContextError("polynomial and basis bound to different tables")
    pk, r = _remainder(p, gb, budget)
    return MultiPoly(p.table, {pk.unpack(m): c for m, c in r.items()})


def ideal_contains(gb: GroebnerBasis, p: MultiPoly, budget: Budget | None = None) -> bool:
    return normal_form(p, gb, budget).is_zero()


# -- Laurent extensions ------------------------------------------------------------


def _inverse_var(name: str) -> Variable:
    return Variable.aux(f"inv.{name}")


def laurent_extension(
    table: VarTable,
    laurent_names: Sequence[str],
) -> tuple:
    """(extended table, inverse relations builder) for the listed variables.

    The extended table adds one aux inverse per listed variable; the
    returned relations are v * inv(v) - 1 in the extended table.
    """
    ext = table.extend(_inverse_var(n) for n in laurent_names)
    rels = []
    for n in laurent_names:
        v = MultiPoly.variable(ext, n)
        iv = MultiPoly.variable(ext, f"inv.{n}")
        rels.append(v * iv - 1)
    return ext, rels


def _term_images(p: MultiPoly, ext: VarTable, images: dict) -> list:
    """One (exponent tuple in ext, coefficient) per term of p, in p's term
    order and not summed, in one pass.  A variable named in images becomes
    its image, one signed monomial in variables of ext; every other
    variable is rebound to ext by name.  Each negative power v^-a, of p's
    own variables or of an image's, is written inv.v^a where ext holds
    inv.v for a Laurent v (`laurent_extension`), so modulo the relations
    v * inv.v - 1 the terms sum to p with the images substituted.  Powers
    are placed one by one, never merged first: with Q -> zeta^-1 the term
    zeta * Q becomes zeta * inv.zeta.  The errors are those of `convert`."""

    def place(name: str, x: int) -> tuple:
        # (column, exponent there) of the power name^x
        inv = _inverse_var(name).name
        if x < 0 and inv in ext and ext.var(name).laurent:
            return ext.index(inv), -x
        return ext.index(name), x

    src = p.table
    rebound = []  # (index in p, column of v, column and exponent of v^-1)
    mapped = []   # (index in p, [(column, exponent)] of the image, its sign)
    missing = []  # variables of p that ext lacks
    for i, name in enumerate(src.names):
        if name in images:
            (e, sign), = images[name].terms.items()
            cols = [place(v, y) for v, y in zip(images[name].table.names, e) if y]
            mapped.append((i, cols, sign))
        elif name in ext:
            rebound.append((i, ext.index(name)) + place(name, -1))
        else:
            missing.append(i)
    n = ext.nvars
    out = []
    for e, c in p.terms.items():
        if any(e[i] for i in missing):
            p.convert(ext)  # raises: a variable missing from ext occurs
        ne = [0] * n
        for i, j, nj, a in rebound:
            x = e[i]
            if x > 0:
                ne[j] += x
            elif x:
                ne[nj] -= x * a
        for i, cols, sign in mapped:
            x = e[i]
            if x:
                for j, a in cols:
                    ne[j] += x * a
                c = c * sign ** x
        key = tuple(ne)
        _check_exp(ext, key)
        out.append((key, c))
    return out


def _poly(table: VarTable, terms: list) -> MultiPoly:
    """The polynomial of (exponent tuple, coefficient) pairs, equal
    exponents summed."""
    out: dict = {}
    for e, c in terms:
        s = out.pop(e, 0) + c
        if s:
            out[e] = _coeff(s)
    return MultiPoly(table, out)


def laurent_basis(
    generators: Iterable[MultiPoly],
    laurent_names: Sequence[str],
    budget: Budget | None = None,
) -> GroebnerBasis:
    """Groebner basis of the ideal extended by inverses of the listed
    variables; membership against it decides Laurent-ring membership.

    Each generator enters with its negative powers written as inverses
    (`_term_images`), beside the relations v * inv.v - 1.  The
    generators with their denominators cleared span the same ideal, so
    the reduced basis is the same, but Buchberger would first have to
    rediscover the inverse forms from them."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ext, rels = laurent_extension(gens[0].table, laurent_names)
    conv = [_poly(ext, _term_images(g, ext, {})) for g in gens]
    return buchberger(conv + rels, budget=budget)


def _leads_transfer(gb: GroebnerBasis, terms: list, images: dict, ext: VarTable) -> bool:
    """Checks (a)-(c) of the module docstring for the images of gb's
    elements, terms[i] being the `_term_images` of the i-th, on the order
    `buchberger` uses in ext."""
    src = gb.table
    names = [n for n in images if n in src]
    placed = [e for n in names for e, _ in _term_images(images[n], ext, {})]
    # (a) every image is a nonconstant monomial of the extended ring
    if not all(any(e) and min(e) >= 0 for e in placed):
        return False
    subst = [src.index(n) for n in names]
    # the columns an image or a relation v * inv.v - 1 touches
    touched = {j for e in placed for j, x in enumerate(e) if x}
    for v in ext.names:
        if _inverse_var(v).name in ext:
            touched.update((ext.index(v), ext.index(_inverse_var(v).name)))
    pk = _Packer(MonomialOrder(), ext, _width_for(max(sum(e) for t in terms for e, _ in t)))
    leads = {gb.packer.unpack(row[0]) for row in gb.rows}
    for g, t in zip(gb, terms):
        k, lead = next((k, e) for k, e in enumerate(g.terms) if e in leads)
        image = t[k][0]
        # (b) the lead is fixed by the map and shares no variable with an
        # image or a relation
        if any(lead[i] for i in subst) or any(image[j] for j in touched):
            return False
        # (c) the lead's image is above every other term's
        top = pk.pack(image)
        if any(pk.pack(e) >= top for m, (e, _) in enumerate(t) if m != k):
            return False
    return True


def laurent_image_basis(
    gb: GroebnerBasis,
    images: dict,
    table: VarTable,
    laurent_names: Sequence[str],
    budget: Budget | None = None,
) -> GroebnerBasis:
    """`laurent_basis`, in table, of gb's elements with each variable named
    in images replaced by its image (one signed monomial in table's
    variables): the extended ideal of the image of gb's ideal.

    Each element is mapped by `_term_images`.  When the checks of
    `_leads_transfer` hold, the images are a Groebner basis already (the
    module docstring says why), so `buchberger` forms no S-pairs among
    them; otherwise it runs in full on the same generators."""
    ext, rels = laurent_extension(table, laurent_names)
    terms = [_term_images(g, ext, images) for g in gb]
    mapped = [_poly(ext, t) for t in terms]
    settled = len(mapped) if _leads_transfer(gb, terms, images, ext) else 0
    return buchberger(mapped + rels, budget=budget, settled=settled)


def laurent_contains(gb: GroebnerBasis, p: MultiPoly, budget: Budget | None = None) -> bool:
    """Membership of p in the Laurent extension (gb from laurent_basis):
    p with its negative powers of the variables gb inverts (those with an
    inv.* variable in gb.table) written as inverses reduces to zero.  p
    may live in any table whose variables gb.table holds; it is packed
    straight onto gb's columns."""
    names = {n for n in gb.table.names if _inverse_var(n).name in gb.table}
    return not _remainder(p, gb, budget, names)[1]

