"""Properties of the presentation on random framed acyclic quivers
(`conftest.framed_quivers`): shapes the bundled fixtures lack, such as
double arrows, several frames, theta < 0 and nodes of inflow excess below
1, where a claim proved only on the fixtures could fail unseen."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.groebner import MonomialOrder, buchberger
from quiverqh.presentation import free_rank, spanning_ideal
from quiverqh.quiver import build_table

from conftest import framed_quivers, key_fn


@given(framed_quivers(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_free_rank_is_the_rank_exactly_where_every_excess_is_positive(q, equivariant):
    # free_rank proves a rank exactly when every gauge node has inflow
    # excess >= 1; the full basis then leaves that many xi-monomials (counted
    # here by enumerating the box of its pure-power leads), and the certified
    # run stops at the same basis
    table = build_table(q, equivariant=equivariant, with_q=True)
    rank = free_rank(q, table)
    assert (rank is None) == any(q.vminus(n.id) - q.vplus(n.id) <= 0 for n in q.gauge_nodes)
    # a full basis of rank a few thousand can take tens of seconds in
    # Fraction arithmetic, so the bases are compared up to fl245's size
    if rank is None or rank > 1440:
        return
    gens = spanning_ideal(q, table).generators
    full = buchberger(gens)
    xi = [table.index(n) for n in table.of_class("xi")]
    leads = [max(g.terms, key=key_fn(MonomialOrder())) for g in full]
    xi_leads = [tuple(e[i] for i in xi) for e in leads if sum(e[i] for i in xi) == sum(e)]
    tops = [min((e[c] for e in xi_leads if 0 < e[c] == sum(e)), default=None)
            for c in range(len(xi))]
    assert None not in tops
    standard = sum(1 for m in product(*map(range, tops))
                   if not any(all(map(int.__ge__, m, e)) for e in xi_leads))
    assert standard == rank
    cert = buchberger(gens, free_rank=(rank, table.of_class("xi")))
    assert cert.fingerprint == full.fingerprint
