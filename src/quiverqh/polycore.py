"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
rational coefficients.  Coefficients are Python ints where possible and
`fractions.Fraction` otherwise, so every computation in this package is
exact; nothing here ever rounds.

Every polynomial is bound to a :class:`VarTable`, a fixed ordered list of
variables.  Variables carry a class tag (``xi``, ``u``, ``t``, ``h``, ``Q``,
``Qt``, ``zeta``, ``x``, ``y``, ``aux``) and the table orders them by class
rank, then node label, then inner index.  That order is the canonical
display order and the default variable order for monomial orders.

Some variables are Laurent: they may carry negative exponents (``zeta``
and cluster ``x`` variables).  Negative exponents on a non-Laurent variable
are rejected at every entry point that could introduce them.

Two polynomials interoperate only if they share the same table object;
:meth:`MultiPoly.convert` moves a polynomial between tables by variable
name.

Products use packed exponents: each operand's exponent tuples are packed
once into ints with one byte field per variable (wider fields when the
exponents need them), Laurent exponents first shifted to start at 0, so
that adding two packed ints multiplies two monomials; each distinct
product is unpacked once.  A one-term factor only shifts exponents.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, lshift, sub
from typing import Iterable, Mapping, NamedTuple, Union

Coeff = Union[int, Fraction]

CLASS_ORDER = ("xi", "u", "t", "h", "Q", "Qt", "zeta", "x", "y", "aux")
_CLASS_RANK = {c: r for r, c in enumerate(CLASS_ORDER)}

NEG_INF = float("-inf")


class ContextError(ValueError):
    """Operands bound to different variable tables."""


class DivisibilityError(ArithmeticError):
    """Exact division requested but the quotient is not polynomial."""


class LaurentViolationError(ValueError):
    """A negative exponent appeared on a non-Laurent variable."""


def _coeff(c: Coeff) -> Coeff:
    """Normalize a rational: integral Fractions collapse to int."""
    if type(c) is int:  # skips the slower isinstance check against Fraction's ABC
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


def _label_key(label: str) -> tuple:
    # length-first string order sorts numeric labels numerically
    return (len(label), label)


class Variable(NamedTuple):
    """A named variable: class tag, sort key, Laurent permission, display name."""

    cls: str
    key: tuple
    laurent: bool
    name: str

    def sort_key(self) -> tuple:
        return (_CLASS_RANK[self.cls], self.key)

    # -- constructors for each class ------------------------------------

    @staticmethod
    def xi(node: str, j: int) -> "Variable":
        return Variable("xi", (_label_key(node), j), False, f"xi[{node}][{j}]")

    @staticmethod
    def u(node: str, j: int) -> "Variable":
        return Variable("u", (_label_key(node), j), False, f"u[{node}][{j}]")

    @staticmethod
    def t() -> "Variable":
        return Variable("t", (), False, "t")

    @staticmethod
    def h() -> "Variable":
        return Variable("h", (), False, "h")

    @staticmethod
    def q(node: str) -> "Variable":
        return Variable("Q", (_label_key(node),), False, f"Q[{node}]")

    @staticmethod
    def qt(node: str, j: int) -> "Variable":
        return Variable("Qt", (_label_key(node), j), False, f"Qt[{node}][{j}]")

    @staticmethod
    def zeta(node: str) -> "Variable":
        return Variable("zeta", (_label_key(node),), True, f"zeta[{node}]")

    @staticmethod
    def x(i: int, laurent: bool = True) -> "Variable":
        return Variable("x", (i,), laurent, f"x[{i}]")

    @staticmethod
    def y(i: int) -> "Variable":
        return Variable("y", (i,), False, f"y[{i}]")

    @staticmethod
    def aux(tag: str) -> "Variable":
        return Variable("aux", (tag,), False, tag)


class VarTable:
    """Immutable ordered list of variables defining a polynomial context."""

    __slots__ = ("vars", "names", "_index", "laurent_mask", "nvars")

    def __init__(self, variables: Iterable[Variable]):
        vs = sorted(variables, key=Variable.sort_key)
        names = tuple(v.name for v in vs)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate variables in table: {dupes}")
        self.vars: tuple[Variable, ...] = tuple(vs)
        self.names: tuple[str, ...] = names
        self._index = {n: i for i, n in enumerate(names)}
        self.laurent_mask: tuple[bool, ...] = tuple(v.laurent for v in vs)
        self.nvars = len(vs)

    def __len__(self) -> int:
        return self.nvars

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"variable {name!r} not in table") from None

    def var(self, name: str) -> Variable:
        return self.vars[self.index(name)]

    def of_class(self, cls: str) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars if v.cls == cls)

    def extend(self, extra: Iterable[Variable]) -> "VarTable":
        return VarTable(list(self.vars) + list(extra))

    def drop(self, names: Iterable[str]) -> "VarTable":
        gone = set(names)
        return VarTable(v for v in self.vars if v.name not in gone)

    def zero_exp(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self.names)})"


def grevlex_key(exp: tuple[int, ...]) -> tuple:
    """Total order key: graded reverse lexicographic, first variable largest."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _check_exp(table: VarTable, exp: tuple[int, ...]) -> None:
    if min(exp, default=0) >= 0:
        return
    mask = table.laurent_mask
    for i, e in enumerate(exp):
        if e < 0 and not mask[i]:
            raise LaurentViolationError(
                f"negative exponent on non-Laurent variable {table.names[i]}"
            )


def _exponent_fields(n: int, top: int) -> tuple:
    """(pack, unpack) between tuples of n exponents in 0..top and ints of
    n fields, first exponent lowest, each as many bytes wide as top needs:
    packed tuples whose sums stay within top add without a carry."""
    width = (top.bit_length() + 7) >> 3
    if width == 1:
        return (lambda e: int.from_bytes(bytes(e), "little"),
                lambda m: tuple(m.to_bytes(n, "little")))
    bits = 8 * width
    offsets = range(0, bits * n, bits)
    mask = (1 << bits) - 1
    return (lambda e: sum(map(lshift, e, offsets)),
            lambda m: tuple((m >> k) & mask for k in offsets))


class MultiPoly:
    """Sparse exact polynomial (Laurent on permitted variables)."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: dict):
        # internal constructor: terms must already be normalized (no zeros)
        self.table = table
        self.terms = terms

    # -- factories -------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "MultiPoly":
        return cls(table, {})

    @classmethod
    def const(cls, table: VarTable, c: Coeff) -> "MultiPoly":
        c = _coeff(c)
        return cls(table, {} if c == 0 else {table.zero_exp(): c})

    @classmethod
    def variable(cls, table: VarTable, name: str, power: int = 1) -> "MultiPoly":
        exp = [0] * table.nvars
        exp[table.index(name)] = power
        e = tuple(exp)
        _check_exp(table, e)
        return cls(table, {e: 1})

    @classmethod
    def monomial(cls, table: VarTable, exps: Mapping[str, int], c: Coeff = 1) -> "MultiPoly":
        c = _coeff(c)
        if c == 0:
            return cls.zero(table)
        exp = [0] * table.nvars
        for name, e in exps.items():
            exp[table.index(name)] += e
        e = tuple(exp)
        _check_exp(table, e)
        return cls(table, {e: c})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        z = self.table.zero_exp()
        return len(self.terms) == 1 and z in self.terms

    def constant_coeff(self) -> Coeff:
        return self.terms.get(self.table.zero_exp(), 0)

    def degree(self, name: str):
        """Top exponent of one variable; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        i = self.table.index(name)
        return max(e[i] for e in self.terms)

    def coeff_of(self, exps: Mapping[str, int]) -> Coeff:
        exp = [0] * self.table.nvars
        for name, e in exps.items():
            exp[self.table.index(name)] = e
        return self.terms.get(tuple(exp), 0)

    # -- arithmetic -------------------------------------------------------

    def _same_context(self, other: "MultiPoly") -> None:
        if self.table is not other.table:
            raise ContextError("operands bound to different variable tables")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        self._same_context(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _coeff(s) if isinstance(s, Fraction) else s
            else:
                out.pop(e, None)
        return MultiPoly(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "MultiPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 0:
                return MultiPoly.zero(self.table)
            if c == 1:
                return self
            return MultiPoly(
                self.table,
                {e: _coeff(k * c) if isinstance(k * c, Fraction) else k * c
                 for e, k in self.terms.items()},
            )
        self._same_context(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) <= 1:  # a one-term factor shifts the other's exponents
            if not a:
                return MultiPoly(self.table, {})
            (ea, ca), = a.items()
            if not any(ea):
                return MultiPoly(self.table, {e: _coeff(ca * c) for e, c in b.items()})
            return MultiPoly(self.table, {tuple(map(add, ea, e)): _coeff(ca * c)
                                          for e, c in b.items()})
        # pack each operand's exponents once, shifted to start at 0 where a
        # Laurent one is negative, so that adding packed ints multiplies
        ka, kb = list(a), list(b)
        shift = None
        if min(map(min, ka)) < 0 or min(map(min, kb)) < 0:
            la, lb = tuple(map(min, *ka)), tuple(map(min, *kb))
            ka = [tuple(map(sub, e, la)) for e in ka]
            kb = [tuple(map(sub, e, lb)) for e in kb]
            shift = tuple(map(add, la, lb))
        pack, unpack = _exponent_fields(self.table.nvars, max(map(max, ka)) + max(map(max, kb)))
        pb = list(zip(map(pack, kb), b.values()))
        out: dict = {}
        get = out.get
        for ma, ca in zip(map(pack, ka), a.values()):
            for mb, cb in pb:
                m = ma + mb
                s = get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        exps = map(unpack, out)
        if shift is not None:
            exps = (tuple(map(add, e, shift)) for e in exps)
        return MultiPoly(self.table, dict(zip(exps, map(_coeff, out.values()))))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            inv = self.invert_monomial()
            return inv ** (-n)
        result = MultiPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def invert_monomial(self) -> "MultiPoly":
        """Invert a single-term polynomial (Laurent variables only)."""
        if len(self.terms) != 1:
            raise DivisibilityError("only monomials are invertible")
        (e, c), = self.terms.items()
        inv_e = tuple(-x for x in e)
        _check_exp(self.table, inv_e)
        return MultiPoly(self.table, {inv_e: _coeff(Fraction(1) / c)})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms.items())))

    # -- structure --------------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in descending grevlex."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the grevlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def coefficients_in(self, name: str) -> list:
        """Slice by one variable: [(power, coefficient poly)], power descending.

        The coefficient polynomials live in the same table with that
        variable's exponent zeroed; summing coeff * var**power rebuilds the
        polynomial exactly.
        """
        i = self.table.index(name)
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            p = e[i]
            rest = e[:i] + (0,) + e[i + 1:]
            b = buckets.setdefault(p, {})
            s = b.get(rest, 0) + c
            if s:
                b[rest] = s
            else:
                b.pop(rest, None)
        return [
            (p, MultiPoly(self.table, buckets[p]))
            for p in sorted(buckets, reverse=True)
            if buckets[p]
        ]

    def substitute(self, bindings: Mapping[str, "MultiPoly | Coeff"]) -> "MultiPoly":
        """Simultaneously replace variables by polynomials.

        A variable with a negative exponent can only be bound to an
        invertible monomial; anything else raises DivisibilityError.
        Results are validated against the Laurent permissions.
        """
        table = self.table
        idx_bind: dict[int, MultiPoly] = {}
        for name, v in bindings.items():
            if isinstance(v, (int, Fraction)):
                v = MultiPoly.const(table, v)
            elif v.table is not table:
                raise ContextError("binding value bound to a different table")
            idx_bind[table.index(name)] = v
        if not idx_bind:
            return self
        out = MultiPoly.zero(table)
        pow_cache: dict[tuple[int, int], MultiPoly] = {}
        for e, c in self.terms.items():
            rest = list(e)
            factors = []
            for i, b in idx_bind.items():
                p = rest[i]
                if p == 0:
                    continue
                rest[i] = 0
                key = (i, p)
                f = pow_cache.get(key)
                if f is None:
                    f = b ** p
                    pow_cache[key] = f
                factors.append(f)
            rest_t = tuple(rest)
            _check_exp(table, rest_t)
            term = MultiPoly(table, {rest_t: c})
            for f in factors:
                term = term * f
            out = out + term
        return out

    def convert(self, new_table: VarTable) -> "MultiPoly":
        """Re-bind to another table by variable name (names must all exist)."""
        if new_table is self.table:
            return self
        remap = []
        for i, name in enumerate(self.table.names):
            remap.append(new_table._index.get(name, -1))
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * new_table.nvars
            for i, p in enumerate(e):
                if p:
                    j = remap[i]
                    if j < 0:
                        raise ContextError(
                            f"variable {self.table.names[i]!r} missing from target table"
                        )
                    ne[j] = p
            net = tuple(ne)
            _check_exp(new_table, net)
            out[net] = c
        return MultiPoly(new_table, out)

    # -- Laurent helpers ---------------------------------------------------

    def laurent_split(self) -> tuple:
        """Factor out min exponents of Laurent variables.

        Returns (shift exponent tuple, polynomial part); the polynomial
        part has min exponent 0 in every Laurent variable and
        self == x^shift * part.
        """
        if not self.terms:
            return self.table.zero_exp(), self
        mask = self.table.laurent_mask
        n = self.table.nvars
        shift = [0] * n
        for i in range(n):
            if mask[i]:
                shift[i] = min(e[i] for e in self.terms)
        if not any(shift):
            return tuple(shift), self
        out = {tuple(p - s for p, s in zip(e, shift)): c for e, c in self.terms.items()}
        return tuple(shift), MultiPoly(self.table, out)

    def shift(self, exp: tuple[int, ...]) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            ne = tuple(map(int.__add__, e, exp))
            _check_exp(self.table, ne)
            out[ne] = c
        return MultiPoly(self.table, out)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_to_text(self)})"


def exact_divide(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b; raises DivisibilityError when not exact.

    Laurent content of both operands is factored off first, so the
    division works for Laurent polynomials whenever the quotient obeys
    the table's Laurent permissions.
    """
    if a.table is not b.table:
        raise ContextError("operands bound to different variable tables")
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    table = a.table
    if a.is_zero():
        return a
    sa, pa = a.laurent_split()
    sb, pb = b.laurent_split()
    q = _poly_exact_divide(pa, pb)
    shift = tuple(x - y for x, y in zip(sa, sb))
    return q.shift(shift)


def _poly_exact_divide(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    table = a.table
    rem = dict(a.terms)
    eb, cb = b.leading()
    bt = b.terms
    out: dict = {}
    while rem:
        er = max(rem, key=grevlex_key)
        cr = rem[er]
        qe = tuple(map(int.__sub__, er, eb))
        if any(x < 0 for x in qe):
            raise DivisibilityError("leading term not divisible")
        qc = Fraction(cr, cb) if (isinstance(cr, int) and isinstance(cb, int)) else Fraction(cr) / cb
        qc = _coeff(qc)
        out[qe] = qc
        for e, c in bt.items():
            k = tuple(map(int.__add__, e, qe))
            s = rem.get(k, 0) - qc * c
            if s:
                rem[k] = _coeff(s) if isinstance(s, Fraction) else s
            else:
                rem.pop(k, None)
    q = MultiPoly(table, out)
    for e in out:
        _check_exp(table, e)
    return q


# -- rational functions ------------------------------------------------------


class RationalFunction:
    """Quotient of polynomials; compared exactly by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.table is not den.table:
            raise ContextError("numerator and denominator in different tables")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


# -- canonical text format -----------------------------------------------------


def _coeff_text(c: Coeff) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def poly_to_text(p: MultiPoly) -> str:
    """Canonical text: terms in descending grevlex, `*` between factors."""
    if not p.terms:
        return "0"
    names = p.table.names
    chunks: list[str] = []
    for e, c in p.sorted_terms():
        factors = []
        for i, power in enumerate(e):
            if power == 0:
                continue
            factors.append(names[i] if power == 1 else f"{names[i]}^{power}")
        neg = c < 0
        mag = -c if neg else c
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([_coeff_text(mag)] + factors)
        else:
            body = _coeff_text(mag)
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


def product(table: VarTable, factors: Iterable[MultiPoly]) -> MultiPoly:
    out = MultiPoly.const(table, 1)
    for f in factors:
        out = out * f
    return out
