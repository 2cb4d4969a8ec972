import os

import pytest

from quiverqh.embed import zeta_substitution
from quiverqh.groebner import buchberger, laurent_extension
from quiverqh.polycore import MultiPoly, _coeff
from quiverqh.presentation import build_ideal
from quiverqh.quiver import build_table, load_quiver

QUIVER_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "quivers")


def quiver_path(name: str) -> str:
    return os.path.join(QUIVER_DIR, f"{name}.json")


@pytest.fixture(scope="session")
def quivers():
    """Lazy loader for the bundled quiver fixtures."""
    cache = {}

    def load(name: str):
        if name not in cache:
            cache[name] = load_quiver(quiver_path(name))
        return cache[name]

    load.path = quiver_path
    return load


def key_fn(order):
    """Tuple key of the order's monomial comparison, for the independent
    tuple-keyed checks of the packed engine: grevlex compares the total
    degree, then the negated exponents from the last variable."""
    if order.kind == "grevlex":
        return lambda e: (sum(e),) + tuple(-x for x in reversed(e))
    return tuple


def typed(terms):
    """Terms with each coefficient paired with its type: 1 == Fraction(1),
    so exact comparisons check the types as well as the values."""
    return {e: (c, type(c)) for e, c in terms.items()}


def clear_laurent(p, names):
    """Reference route to the inverse rewriting of `groebner.laurent_basis`
    and `laurent_contains`: multiply by the smallest monomial in the listed
    variables making every listed exponent nonnegative, a unit in the
    Laurent ring.  Both routes must give the same bases and memberships."""
    shift = [0] * p.table.nvars
    for n in names:
        i = p.table.index(n)
        shift[i] = max([0] + [-e[i] for e in p.terms])
    return p.shift(tuple(shift)) if any(shift) else p


def with_inverses(p, ext):
    """Reference route to `groebner._term_images`, as it stood before that
    helper: rebind p to ext with `convert`, then move each negative power
    v^-a of a variable that ext inverts onto inv.v^a.  A substitution
    comes first, by `MultiPoly.substitute`.  Both routes give the same
    polynomial when no term meets two powers of one variable."""
    idx = [(ext.index(n), ext.index(f"inv.{n}")) for n in ext.names if f"inv.{n}" in ext]
    out = {}
    for e, c in p.convert(ext).terms.items():
        ne = list(e)
        for i, j in idx:
            if ne[i] < 0:
                ne[j] -= ne[i]
                ne[i] = 0
        key = tuple(ne)
        s = out.pop(key, 0) + c
        if s:
            out[key] = _coeff(s)
    return MultiPoly(ext, out)


def cleared_laurent_basis(generators, laurent_names):
    """Reference route to `groebner.laurent_basis`: clear each generator's
    denominators, adjoin the inverse relations and run Buchberger.  The
    reduced basis of an ideal is unique, so both routes must agree."""
    ext, rels = laurent_extension(generators[0].table, laurent_names)
    cleared = [clear_laurent(g, laurent_names).convert(ext) for g in generators]
    return buchberger(cleared + rels)


def zeta_side_generators(q, p_max, equivariant):
    """(generators, zeta names): the raw generators of build_ideal with
    each Q[k] replaced by its signed zeta monomial, in the t/zeta table."""
    kw = dict(equivariant=equivariant, with_t=True, with_zeta=True)
    t_qz = build_table(q, with_q=True, **kw)
    t_z = build_table(q, **kw)
    sub = zeta_substitution(q, t_qz)
    gens = [g.substitute(sub).convert(t_z) for g in build_ideal(q, p_max, table=t_qz).generators]
    return gens, t_z.of_class("zeta")
