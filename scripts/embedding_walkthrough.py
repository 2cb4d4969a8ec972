#!/usr/bin/env python3
"""End-to-end walkthrough for one quiver: presentation, elimination, images.

Prints the ideal generators, the Kaehler-to-zeta substitution, the initial
and adjacent images, the exchange-relation verification at every node with
positive stability, and (for type-A chains) the closed-form image table.

Usage:
    python3 scripts/embedding_walkthrough.py [quivers/fl234.json] [--equivariant]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quiverqh.polycore import poly_to_text
from quiverqh.quiver import build_table, load_quiver, resolve_pmax, validate
from quiverqh.presentation import build_ideal
from quiverqh.groebner import buchberger
from quiverqh.embed import (
    psi_adjacent,
    psi_initial,
    transformation_link_check,
    verify_exchange_image,
    verify_type_a,
    zeta_substitution,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("quiver", nargs="?", default="quivers/fl234.json")
    ap.add_argument("--pmax", type=int, default=None)
    ap.add_argument("--equivariant", action="store_true")
    args = ap.parse_args()

    q = load_quiver(args.quiver)
    rep = validate(q)
    pmax = resolve_pmax(q, args.pmax)
    eq = args.equivariant

    print(f"== {args.quiver} (p_max={pmax}, equivariant={eq}) ==")
    print(f"flags: acyclic={rep.acyclic} feasible={rep.feasible} "
          f"quiver_flag={rep.quiver_flag} type_a={rep.type_a}")

    ideal = build_ideal(q, pmax, build_table(q, equivariant=eq, with_t=True, with_q=True))
    print(f"\n-- ideal generators ({len(ideal.generators)}) --")
    for g in ideal.generators:
        print("  ", poly_to_text(g))
    gb = buchberger(list(ideal.generators))  # the run's one basis, for every check
    print(f"groebner basis: {len(gb.elements)} elements, "
          f"fingerprint {gb.fingerprint}")

    table = build_table(q, equivariant=eq, with_t=True, with_zeta=True,
                        with_q=True)
    print("\n-- Kaehler elimination --")
    for name, img in sorted(zeta_substitution(q, table).items()):
        print(f"  {name} -> {poly_to_text(img)}")

    print("\n-- images of initial and adjacent variables --")
    for n in q.nodes:
        img = psi_initial(q, n.id, table)
        print(f"  psi(x_{n.id})  = {poly_to_text(img.num)}")
    for n in q.gauge_nodes:
        if q.theta(n.id) <= 0:
            continue
        adj = psi_adjacent(q, n.id, table)
        print(f"  psi(x'_{n.id}) = ({poly_to_text(adj.num)})"
              f" / node image at {n.id}")

    print("\n-- exchange relations modulo the ideal --")
    failures = 0
    nodes = [n.id for n in q.gauge_nodes if q.theta(n.id) > 0]
    for k, (ok, witness) in zip(nodes, verify_exchange_image(q, gb, nodes)):
        link = transformation_link_check(q, k, table)
        print(f"  node {k}: membership={'ok' if ok else 'FAIL'} "
              f"link={'ok' if link else 'FAIL'}"
              + (f"  [{witness}]" if witness else ""))
        failures += (not ok) + (not link)

    if rep.type_a:
        print("\n-- type-A closed forms --")
        ta = verify_type_a(q, gb)
        for row in ta.rows:
            mark = "ok" if row["ok"] else "FAIL"
            print(f"  {row['kind']:<17} k={row['k']} l={row['l']}: {mark}")
        failures += len(ta.failures())

    print(f"\nresult: {'all checks passed' if not failures else f'{failures} failures'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
