#!/usr/bin/env python3
"""Census of the mutation graph of a quiver's cluster seed.

Reports how many distinct seeds (up to relabeling) and distinct cluster
variables appear within each breadth-first depth (the walk of
`cluster.seed_layers`, bounded by its seed budget), then — with --principal —
the F-polynomial/g-vector table of the principal-coefficient seed along
every short mutation path.

Usage:
    python3 scripts/cluster_census.py [quivers/a3_frozen.json] [--max-depth 6]
    python3 scripts/cluster_census.py quivers/a2.json --principal --max-depth 4
"""

import argparse
import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quiverqh.polycore import poly_to_text
from quiverqh.quiver import exchange_matrices, load_quiver
from quiverqh.cluster import (
    f_polynomial_and_g_vector,
    principal_seed,
    seed_from_quiver,
    seed_layers,
    separation_check,
)


def census(seed0, max_depth: int) -> None:
    seeds = 0
    texts = set()
    for depth, layer in enumerate(seed_layers(seed0, max_depth)):
        seeds += len(layer)
        for s in layer:
            texts.update(s.variable_texts())
        print(f"depth {depth}: seeds {seeds}, variables {len(texts)}"
              + ("  (stable)" if not layer else ""))
    print("\ndistinct cluster variables:")
    for t in sorted(texts):
        print("  ", t)


def principal_table(b, max_depth: int) -> None:
    s0 = principal_seed(b)
    n = s0.n
    print("path".ljust(14), "k", "g-vector".ljust(12), "separated", "F-polynomial")
    for length in range(0, max_depth + 1):
        for path in itertools.product(range(1, n + 1), repeat=length):
            if any(path[i] == path[i + 1] for i in range(len(path) - 1)):
                continue  # immediate backtracking repeats the previous seed
            for k in range(1, n + 1):
                f, g = f_polynomial_and_g_vector(s0, path, k)
                sep = separation_check(s0, path, k)
                print(str(list(path)).ljust(14), k,
                      str(list(g)).ljust(12),
                      ("yes" if sep else "NO").ljust(9),
                      poly_to_text(f))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("quiver", nargs="?", default="quivers/a3_frozen.json")
    ap.add_argument("--max-depth", type=int, default=6)
    ap.add_argument("--principal", action="store_true",
                    help="tabulate F-polynomials of the principal seed")
    args = ap.parse_args()
    if args.max_depth < 0:
        ap.error(f"--max-depth must be >= 0, got {args.max_depth}")

    q = load_quiver(args.quiver)
    if args.principal:
        b, _, _ = exchange_matrices(q)
        principal_table(b, args.max_depth)
    else:
        seed0, node_order = seed_from_quiver(q)
        print(f"== {args.quiver}: variable slots follow nodes {node_order} ==")
        census(seed0, args.max_depth)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
