"""Symmetric functions of linear forms and Weyl antisymmetrization.

Elementary and complete homogeneous symmetric functions are evaluated on
explicit lists of linear forms (Chern roots) by generating-function
recurrences, staying exact throughout.  `elementaries` and `completes`
build the whole list e_0..e_n, respectively h_0..h_N, of one root
multiset in one pass; callers build each list once per multiset and
index into it.  `elementary` and `complete` are single-entry views.
`chern_from_roots`, c_t as a product, is the tests' reference route: the
package builds c_t by the division in t of `presentation.chern_division`.

Antisymmetrization is over the product of symmetric groups attached to a
block structure (one block of Chern-root variables per gauge node):

    (1/e) * sum_w sign(w) * w(prefactor * xi^exponents),

where e is the product of the per-block Vandermonde determinants
prod_{a<b} (xi_a - xi_b).  The division is exact whenever the input is a
polynomial times the staircase; a non-exact division is an error, never a
truncation.  Variables outside the blocks are inert.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .polycore import MultiPoly, VarTable, exact_divide, product


class BlockStructure:
    """Ordered blocks of variable names, one block per gauge node."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple):
        seen = set()
        for _, names in blocks:
            for n in names:
                if n in seen:
                    raise ValueError(f"variable {n!r} appears in two blocks")
                seen.add(n)
        self.blocks = blocks  # tuple[(node label, tuple of variable names)]

    def block(self, node: str) -> tuple:
        for n, names in self.blocks:
            if n == node:
                return names
        raise KeyError(node)


def _as_forms(table: VarTable, forms: Sequence) -> list:
    out = []
    for f in forms:
        if isinstance(f, str):
            out.append(MultiPoly.variable(table, f))
        elif isinstance(f, MultiPoly):
            if f.table is not table:
                raise ValueError("form bound to a different table")
            out.append(f)
        else:
            out.append(MultiPoly.const(table, f))
    return out


def elementaries(table: VarTable, forms: Sequence) -> list:
    """[e_0, ..., e_n] of the given n linear forms."""
    # coefficients of prod (1 + z f), built one form at a time
    row = [MultiPoly.const(table, 1)]
    for f in _as_forms(table, forms):
        row.append(f * row[-1])
        for j in range(len(row) - 2, 0, -1):
            row[j] = row[j] + f * row[j - 1]
    return row


def completes(table: VarTable, forms: Sequence, top: int) -> list:
    """[h_0, ..., h_top] of the given linear forms (empty for top < 0)."""
    if top < 0:
        return []
    # prod 1/(1 - z f): adding a form updates h_j = h_j(prev) + f * h_{j-1}(new)
    row = [MultiPoly.const(table, 1)] + [MultiPoly.zero(table)] * top
    for f in _as_forms(table, forms):
        for j in range(1, top + 1):
            row[j] = row[j] + f * row[j - 1]
    return row


def _entry(row: list, i: int, table: VarTable) -> MultiPoly:
    return row[i] if 0 <= i < len(row) else MultiPoly.zero(table)


def elementary(table: VarTable, forms: Sequence, i: int) -> MultiPoly:
    """e_i of the given linear forms; e_0 = 1, e_i = 0 for i < 0 or i > n."""
    return _entry(elementaries(table, forms), i, table)


def complete(table: VarTable, forms: Sequence, i: int) -> MultiPoly:
    """h_i of the given linear forms; h_0 = 1, h_i = 0 for i < 0."""
    return _entry(completes(table, forms, i), i, table)


def chern_from_roots(table: VarTable, roots: Sequence) -> MultiPoly:
    """Total Chern polynomial prod (t + root)."""
    t = MultiPoly.variable(table, "t")
    return product(table, (t + r for r in _as_forms(table, roots)))


def vandermonde(table: VarTable, blocks: BlockStructure) -> MultiPoly:
    """Product over blocks of prod_{a<b} (xi_a - xi_b)."""
    out = MultiPoly.const(table, 1)
    for _, names in blocks.blocks:
        for a in range(len(names)):
            va = MultiPoly.variable(table, names[a])
            for b in range(a + 1, len(names)):
                out = out * (va - MultiPoly.variable(table, names[b]))
    return out


def _block_permutations(blocks: BlockStructure, table: VarTable):
    """All group elements as (sign, index permutation over the full table)."""
    n = table.nvars
    identity = list(range(n))
    per_block = []
    for _, names in blocks.blocks:
        idxs = [table.index(nm) for nm in names]
        elems = []
        for perm in itertools.permutations(range(len(idxs))):
            sign = _perm_sign(perm)
            elems.append((sign, idxs, perm))
        per_block.append(elems)
    for combo in itertools.product(*per_block):
        total_sign = 1
        mapping = identity[:]
        for sign, idxs, perm in combo:
            total_sign *= sign
            for src_pos, dst_pos in enumerate(perm):
                # variable at idxs[src_pos] is renamed to idxs[dst_pos]
                mapping[idxs[src_pos]] = idxs[dst_pos]
        yield total_sign, mapping


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _apply_perm(p: MultiPoly, mapping: Sequence[int]) -> MultiPoly:
    out: dict = {}
    n = len(mapping)
    for e, c in p.terms.items():
        ne = [0] * n
        for i, power in enumerate(e):
            if power:
                ne[mapping[i]] += power
        ne = tuple(ne)
        s = out.get(ne, 0) + c
        if s:
            out[ne] = s
        else:
            out.pop(ne, None)
    return MultiPoly(p.table, out)


def antisymmetrize(
    table: VarTable,
    blocks: BlockStructure,
    exponents: Mapping[str, Sequence[int]],
    prefactor: MultiPoly | None = None,
) -> MultiPoly:
    """Weyl-alternating average against the block Vandermondes.

    exponents maps node label -> exponent vector over that block's
    variables (missing nodes mean all-zero).  Computes

        (1/e) sum_w sign(w) w(prefactor * xi^exponents)

    with e the product of block Vandermondes; exact division required.
    """
    if prefactor is None:
        prefactor = MultiPoly.const(table, 1)
    exps: dict[str, int] = {}
    for node, vec in exponents.items():
        names = blocks.block(node)
        if len(vec) != len(names):
            raise ValueError(f"exponent vector for node {node!r} has wrong length")
        for name, e in zip(names, vec):
            if e:
                exps[name] = e
    base = prefactor * MultiPoly.monomial(table, exps) if exps else prefactor
    total = MultiPoly.zero(table)
    for sign, mapping in _block_permutations(blocks, table):
        img = _apply_perm(base, mapping)
        total = total + (img if sign > 0 else -img)
    if total.is_zero():
        return total
    return exact_divide(total, vandermonde(table, blocks))


def insertion_exponents(v: int, p: int) -> tuple:
    """Staircase insertion exponents (p, v-2, v-3, ..., 0) for one block.

    The first slot carries the inserted power p, the remaining v-1 slots
    the shortened staircase; for v = 1 this is just (p,).
    """
    if v < 1:
        raise ValueError("block size must be >= 1")
    if v == 1:
        return (p,)
    return (p,) + tuple(range(v - 2, -1, -1))


def positive_root_pairing(blocks: BlockStructure, d: Mapping[str, Sequence[int]]) -> int:
    """Pairing of the cocharacter d with the sum of all positive roots.

    Positive roots per block are xi_a - xi_b for a < b; the pairing with d
    is sum over blocks, a < b of (d_a - d_b).
    """
    out = 0
    for node, names in blocks.blocks:
        vec = d.get(node)
        if vec is None:
            continue
        if len(vec) != len(names):
            raise ValueError(f"cocharacter for node {node!r} has wrong length")
        v = len(vec)
        for a in range(v):
            for b in range(a + 1, v):
                out += vec[a] - vec[b]
    return out
