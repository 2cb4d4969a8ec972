#!/usr/bin/env python3
"""Sweep the degree-shift difference equation over a box of degrees.

For every degree d with coordinates up to the box bound and every
coordinate shift d', checks the exact rational-function identity relating
the quasimap coefficients c_d and c_{d-d'}, and prints a per-pair table
plus a summary.

Usage:
    python3 scripts/qde_explorer.py [quivers/gr24.json] [--box 3] [--equivariant]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quiverqh.quiver import build_table, load_quiver, weights
from quiverqh.ifunction import qde_box_sweep


def fmt(d: dict) -> str:
    return ",".join(f"{nid}:{list(vec)}" for nid, vec in sorted(d.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("quiver", nargs="?", default="quivers/gr24.json")
    ap.add_argument("--box", type=int, default=3)
    ap.add_argument("--equivariant", action="store_true")
    args = ap.parse_args()

    q = load_quiver(args.quiver)
    w = weights(q, build_table(q, equivariant=args.equivariant, with_h=True))
    rows = qde_box_sweep(w, args.box)

    checked = skipped = failed = 0
    print(f"== {args.quiver}: box {args.box}, "
          f"{'equivariant' if args.equivariant else 'non-equivariant'} ==")
    for r in rows:
        if r["skipped"]:
            skipped += 1
            status = f"skip ({r['notice']})"
        elif r["ok"]:
            checked += 1
            status = "ok"
        else:
            failed += 1
            status = f"FAIL ({r['witness']})"
        print(f"  d={fmt(r['d']):<24} d'={fmt(r['dprime']):<20} {status}")

    print(f"\nsummary: {checked} verified, {skipped} skipped "
          f"(outside the effective cone), {failed} failed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
