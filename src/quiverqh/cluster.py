"""Cluster-algebra engine over tropical coefficients of geometric type.

A labeled seed holds an exchange matrix extended by coefficient rows, a
cluster of Laurent expressions in the initial variables, and one tropical
monomial per mutable direction.  Mutation applies the three standard rules
(matrix, coefficient, exchange relation); the new cluster variable is
produced by exact division, so a failed division is a hard error rather
than a silent rational function.

Coefficients live in the tropical semifield on the frozen generators:
multiplication adds exponent vectors and the auxiliary addition takes the
componentwise minimum.  For geometric-type seeds the coefficient of
direction k always equals the frozen-row part of column k of the extended
matrix; both are updated by their own rule and the agreement is asserted
after every mutation.

Cluster expressions are plain Laurent polynomials: mutable variables may
carry negative exponents, frozen generators may not, and all coefficients
must be integers (strong Laurent phenomenon).  Equality of variables is
equality of these normal forms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .polycore import (
    DivisibilityError,
    MultiPoly,
    Variable,
    VarTable,
    exact_divide,
    poly_to_text,
    product,
)
from .groebner import BudgetError
from .quiver import Quiver, exchange_matrices, require_gauge_nodes


class LaurentPhenomenonError(ArithmeticError):
    """Exchange-relation division failed; the seed data is inconsistent."""


class SeedError(ValueError):
    """Seed data violates a structural invariant."""


# -- tropical semifield -----------------------------------------------------------


class TropMonomial:
    """Element of the tropical semifield on a fixed tuple of generators."""

    __slots__ = ("gens", "exps")

    def __init__(self, gens: tuple[str, ...], exps: tuple[int, ...]):
        if len(gens) != len(exps):
            raise SeedError("tropical exponent length mismatch")
        self.gens = gens
        self.exps = exps

    @staticmethod
    def one(gens: Sequence[str]) -> "TropMonomial":
        return TropMonomial(tuple(gens), (0,) * len(gens))

    def _same_gens(self, other: "TropMonomial") -> None:
        if self.gens != other.gens:
            raise SeedError("tropical monomials over different generators")

    def __mul__(self, other: "TropMonomial") -> "TropMonomial":
        self._same_gens(other)
        return TropMonomial(
            self.gens, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def oplus(self, other: "TropMonomial") -> "TropMonomial":
        self._same_gens(other)
        return TropMonomial(
            self.gens, tuple(min(a, b) for a, b in zip(self.exps, other.exps))
        )

    def power(self, n: int) -> "TropMonomial":
        return TropMonomial(self.gens, tuple(n * a for a in self.exps))

    def inverse(self) -> "TropMonomial":
        return self.power(-1)

    @property
    def is_one(self) -> bool:
        return all(a == 0 for a in self.exps)

    def positive_part(self) -> "TropMonomial":
        return TropMonomial(self.gens, tuple(max(a, 0) for a in self.exps))

    def to_poly(self, table: VarTable) -> MultiPoly:
        return MultiPoly.monomial(table, dict(zip(self.gens, self.exps)))

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = [
            f"{g}^{e}" if e != 1 else g
            for g, e in zip(self.gens, self.exps)
            if e != 0
        ]
        return "*".join(parts)


# -- seeds ------------------------------------------------------------------------


def parse_path(text: str) -> tuple[int, ...]:
    """The 1-based mutation directions of a comma-separated path."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(
            f"mutation path must be comma-separated integers, got {text!r}"
        ) from None


class Seed:
    """Labeled seed: cluster expressions, tropical coefficients, matrix.

    Rows of btilde follow xnames then cnames; columns follow xnames.
    """

    __slots__ = ("table", "xnames", "cnames", "cluster", "coeffs", "btilde")

    def __init__(self, table: VarTable, xnames: tuple[str, ...], cnames: tuple[str, ...],
                 cluster: tuple[MultiPoly, ...], coeffs: tuple[TropMonomial, ...],
                 btilde: tuple[tuple[int, ...], ...]):
        n, m = len(xnames), len(cnames)
        if len(cluster) != n or len(coeffs) != n:
            raise SeedError("cluster/coefficient length must equal the rank")
        if len(btilde) != n + m or any(len(r) != n for r in btilde):
            raise SeedError("extended matrix must be (rank+frozen) x rank")
        for i in range(n):
            for j in range(n):
                if btilde[i][j] != -btilde[j][i]:
                    raise SeedError("principal part must be skew-symmetric")
        for k, y in enumerate(coeffs):
            if y.gens != cnames:
                raise SeedError("coefficient generators must match cnames")
            col = tuple(btilde[n + j][k] for j in range(m))
            if y.exps != col:
                raise SeedError(
                    "coefficient %d disagrees with frozen rows of column %d"
                    % (k + 1, k + 1)
                )
        for p in cluster:
            _check_strong_laurent(p)
        self.table = table
        self.xnames = xnames
        self.cnames = cnames
        self.cluster = cluster
        self.coeffs = coeffs
        self.btilde = btilde

    @property
    def n(self) -> int:
        return len(self.xnames)

    @property
    def m(self) -> int:
        return len(self.cnames)

    def position(self, k: int) -> MultiPoly:
        """Cluster variable at position k (1-based)."""
        if not 1 <= k <= self.n:
            raise SeedError("cluster position %d out of range 1..%d" % (k, self.n))
        return self.cluster[k - 1]

    def variable_texts(self) -> tuple[str, ...]:
        return tuple(poly_to_text(p) for p in self.cluster)

    def unlabeled_key(self) -> tuple:
        """Canonical key invariant under simultaneous relabeling.

        Positions are sorted by the canonical text of their cluster entry
        (entries within one seed are pairwise distinct); the matrix rows,
        columns and coefficients are permuted accordingly.
        """
        texts = self.variable_texts()
        perm = sorted(range(self.n), key=lambda i: texts[i])
        rows = list(perm) + list(range(self.n, self.n + self.m))
        mat = tuple(
            tuple(self.btilde[i][j] for j in perm) for i in rows
        )
        return (
            tuple(texts[i] for i in perm),
            tuple(self.coeffs[i].exps for i in perm),
            mat,
        )


def _check_strong_laurent(p: MultiPoly) -> None:
    """Numerator coefficients must be integers; frozen exponents are kept
    nonnegative by the variable table itself."""
    for c in p.terms.values():
        if not isinstance(c, int):
            raise LaurentPhenomenonError(
                "cluster variable has non-integer coefficient %r" % (c,)
            )


def _seed_table(n: int, m: int, coeff_class: str = "x") -> VarTable:
    gens: list[Variable] = [Variable.x(i + 1, laurent=True) for i in range(n)]
    if coeff_class == "x":
        gens += [Variable.x(n + j + 1, laurent=False) for j in range(m)]
    else:
        gens += [Variable.y(j + 1) for j in range(m)]
    return VarTable(gens)


def seed_from_matrix(
    btilde: Sequence[Sequence[int]], n: int, coeff_class: str = "x"
) -> Seed:
    """Initial seed for an extended matrix with the top n rows principal.

    Mutable variables are x[1..n]; coefficient generators are x[n+1..]
    (frozen variables) or y[1..] when coeff_class is "y".
    """
    rows = [tuple(r) for r in btilde]
    m = len(rows) - n
    if m < 0:
        raise SeedError("extended matrix has fewer rows than the rank")
    table = _seed_table(n, m, coeff_class)
    names = table.of_class("x") + table.of_class("y")
    xnames, cnames = names[:n], names[n : n + m]
    cluster = tuple(MultiPoly.variable(table, nm) for nm in xnames)
    coeffs = tuple(
        TropMonomial(cnames, tuple(rows[n + j][k] for j in range(m)))
        for k in range(n)
    )
    return Seed(table, tuple(xnames), tuple(cnames), cluster, coeffs, tuple(rows))


def coefficient_free_seed(b: Sequence[Sequence[int]]) -> Seed:
    return seed_from_matrix([list(r) for r in b], len(b))


def principal_seed(b: Sequence[Sequence[int]]) -> Seed:
    """Seed with principal coefficients: identity rows under the matrix,
    coefficient generators y[1..n]."""
    n = len(b)
    rows = [list(r) for r in b]
    rows += [[1 if j == k else 0 for k in range(n)] for j in range(n)]
    return seed_from_matrix(rows, n, coeff_class="y")


def seed_from_quiver(q: Quiver) -> tuple[Seed, tuple[str, ...]]:
    """Initial seed of a quiver plus the node id behind each variable slot.

    Gauge nodes become the mutable variables x[1..n] in sorted order and
    frozen nodes the generators x[n+1..n+m]; the returned tuple of node
    ids follows that numbering.
    """
    n = len(require_gauge_nodes(q))
    _, btilde, rows = exchange_matrices(q)
    return seed_from_matrix(btilde, n), tuple(rows)


def is_principal(seed: Seed) -> bool:
    if seed.m != seed.n:
        return False
    for j in range(seed.n):
        row = seed.btilde[seed.n + j]
        if any(row[k] != (1 if k == j else 0) for k in range(seed.n)):
            return False
    return True


# -- mutation ---------------------------------------------------------------------


def mutate(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k (1-based)."""
    n = seed.n
    if not 1 <= k <= n:
        raise SeedError("mutation direction %d out of range 1..%d" % (k, n))
    kk = k - 1

    rows = []
    for i in range(n + seed.m):
        row = []
        for j in range(n):
            bij = seed.btilde[i][j]
            bik, bkj = seed.btilde[i][kk], seed.btilde[kk][j]
            if i == kk or j == kk:
                row.append(-bij)
            elif bik > 0 and bkj > 0:
                row.append(bij + bik * bkj)
            elif bik < 0 and bkj < 0:
                row.append(bij - bik * bkj)
            else:
                row.append(bij)
        rows.append(tuple(row))

    yk = seed.coeffs[kk]
    one = TropMonomial.one(seed.cnames)
    coeffs = []
    for j in range(n):
        if j == kk:
            coeffs.append(yk.inverse())
            continue
        bkj = seed.btilde[kk][j]
        if bkj > 0:
            coeffs.append(seed.coeffs[j] * one.oplus(yk.inverse()).power(-bkj))
        elif bkj < 0:
            coeffs.append(seed.coeffs[j] * yk.oplus(one).power(-bkj))
        else:
            coeffs.append(seed.coeffs[j])

    # exchange relation: x_k x'_k = (y_k/(y_k+1)) prod_{b_ik>0} x_i^{b_ik}
    #                              + (1/(y_k+1)) prod_{b_ik<0} x_i^{-b_ik}
    # with the two tropical prefactors reducing to the positive parts of
    # the frozen exponent vector of y_k and of its inverse.
    tplus = yk.positive_part().to_poly(seed.table)
    tminus = yk.inverse().positive_part().to_poly(seed.table)
    pos = product(
        seed.table,
        (seed.cluster[i] ** seed.btilde[i][kk] for i in range(n) if seed.btilde[i][kk] > 0),
    )
    neg = product(
        seed.table,
        (seed.cluster[i] ** -seed.btilde[i][kk] for i in range(n) if seed.btilde[i][kk] < 0),
    )
    numerator = tplus * pos + tminus * neg
    try:
        new_var = exact_divide(numerator, seed.cluster[kk])
    except DivisibilityError as err:
        raise LaurentPhenomenonError(
            "exchange relation for direction %d is not exactly divisible" % k
        ) from err
    cluster = tuple(
        new_var if i == kk else seed.cluster[i] for i in range(n)
    )
    return Seed(seed.table, seed.xnames, seed.cnames, cluster, tuple(coeffs), tuple(rows))


def mutate_path(seed: Seed, path: Iterable[int]) -> Seed:
    for k in path:
        seed = mutate(seed, k)
    return seed


def seed_layers(
    s0: Seed, max_depth: int, *, max_seeds: int = 20000
) -> Iterator[list[Seed]]:
    """The seeds first reached at 0, 1, ..., max_depth mutations from s0,
    one list per depth, deduplicated up to simultaneous relabeling.

    The first depth that adds no seed is yielded as an empty list, and the
    walk stops there.  A negative depth is a ValueError; more than
    max_seeds seeds in all is a BudgetError.
    """
    if max_depth < 0:
        raise ValueError(f"mutation depth must be >= 0, got {max_depth}")
    seen = {s0.unlabeled_key()}
    layer = [s0]
    yield layer
    for _ in range(max_depth):
        if not layer:
            return
        nxt = []
        for s in layer:
            for k in range(1, s.n + 1):
                s2 = mutate(s, k)
                key = s2.unlabeled_key()
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_seeds:
                    raise BudgetError(
                        "seed budget exceeded (%d); mutation graph too large"
                        % max_seeds
                    )
                nxt.append(s2)
        layer = nxt
        yield layer


def cluster_variables(
    s0: Seed, max_depth: int, *, max_seeds: int = 20000
) -> list[MultiPoly]:
    """Distinct cluster variables of the seeds within max_depth mutations
    (`seed_layers`, with its errors), sorted by canonical text."""
    found: dict[str, MultiPoly] = {}
    for layer in seed_layers(s0, max_depth, max_seeds=max_seeds):
        for s in layer:
            for p, txt in zip(s.cluster, s.variable_texts()):
                found.setdefault(txt, p)
    return [found[t] for t in sorted(found)]


# -- F-polynomials, g-vectors, separation ------------------------------------------


def _multidegree(seed: Seed, b0: Sequence[Sequence[int]], p: MultiPoly) -> tuple[int, ...]:
    """Multidegree under deg x_k = e_k and deg y_k = minus column k of the
    initial matrix; raises on inhomogeneity."""
    n = seed.n
    xi = [seed.table.index(nm) for nm in seed.xnames]
    ci = [seed.table.index(nm) for nm in seed.cnames]
    deg = None
    for exp in p.terms:
        a = [exp[i] for i in xi]
        bvec = [exp[i] for i in ci]
        d = tuple(
            a[i] - sum(b0[i][j] * bvec[j] for j in range(n)) for i in range(n)
        )
        if deg is None:
            deg = d
        elif deg != d:
            raise ArithmeticError(
                "cluster variable is not homogeneous: %s vs %s" % (deg, d)
            )
    if deg is None:
        raise ArithmeticError("zero cluster variable has no multidegree")
    return deg


def f_polynomial_and_g_vector(
    s0: Seed, path: Iterable[int], k: int
) -> tuple[MultiPoly, tuple[int, ...]]:
    """F-polynomial and g-vector of position k after mutating along path.

    Requires principal coefficients.  F is the variable with every
    mutable x set to 1; its constant term must be 1.  The g-vector is the
    multidegree, asserted homogeneous.
    """
    if not is_principal(s0):
        raise SeedError("F-polynomials need principal coefficients")
    b0 = [row[: s0.n] for row in s0.btilde[: s0.n]]
    s = mutate_path(s0, path)
    x = s.position(k)
    g = _multidegree(s0, b0, x)
    ones = {nm: MultiPoly.const(s0.table, 1) for nm in s0.xnames}
    f = x.substitute(ones)
    if f.coeff_of({}) != 1:
        raise ArithmeticError(
            "F-polynomial constant term is %r, not 1" % (f.coeff_of({}),)
        )
    return f, g


def tropical_evaluation(seed: Seed, f: MultiPoly) -> TropMonomial:
    """Evaluate a polynomial in the coefficient generators tropically."""
    ci = [seed.table.index(nm) for nm in seed.cnames]
    best = None
    for exp in f.terms:
        vec = tuple(exp[i] for i in ci)
        best = vec if best is None else tuple(map(min, best, vec))
    if best is None:
        raise ArithmeticError("tropical evaluation of zero")
    return TropMonomial(seed.cnames, best)


def separation_check(s0: Seed, path: Iterable[int], k: int) -> bool:
    """Coefficient/monomial separation identity at principal coefficients:

        x_{k;s} * F|_trop(y) = F(yhat) * prod_i x_i^{g_i},

    with yhat_j = y_j prod_i x_i^{b_ij} over the initial matrix.
    """
    if not is_principal(s0):
        raise SeedError("separation check needs principal coefficients")
    path = tuple(path)
    s = mutate_path(s0, path)
    x = s.position(k)
    f, g = f_polynomial_and_g_vector(s0, path, k)

    n = s0.n
    yhat = {}
    for j, cn in enumerate(s0.cnames):
        mono = {s0.xnames[i]: s0.btilde[i][j] for i in range(n)}
        mono[cn] = 1
        yhat[cn] = MultiPoly.monomial(s0.table, mono)
    lhs = x * tropical_evaluation(s0, f).to_poly(s0.table)
    xg = MultiPoly.monomial(s0.table, dict(zip(s0.xnames, g)))
    rhs = f.substitute(yhat) * xg
    return lhs == rhs
