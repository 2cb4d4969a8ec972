"""Command-line entry point with deterministic text and JSON reports.

Every subcommand reads a quiver description from a JSON file, runs an
exact computation or verification, and prints a report.  Reports are
byte-identical across runs for identical inputs and flags: no timestamps,
no wall-clock times, no unseeded randomness (none of the operations here
use randomness at all).  JSON reports carry a schema version so CI
consumers can pin the layout; text reports are for humans.

Exit codes: 0 all requested checks pass, 1 verification failure, 2 input
error (bad file, malformed JSON, bad flags), 3 resource budget exceeded.

`verify qde --jobs N` distributes the QDE pairs over N worker processes,
N clamped to the number of pairs and to the CPU count; N below 1 is an
input error.  Workers receive
picklable arguments and rebuild their own state, results are collected in
submission order, so reports do not depend on scheduling.  `verify
exchange` and `embed` check every gauge node against one Groebner basis
in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .polycore import LaurentViolationError, poly_to_text
from .quiver import (
    QuiverFormatError,
    build_table,
    load_quiver,
    quiver_to_dict,
    resolve_pmax,
    validate,
    weights,
)
from .presentation import build_ideal, spanning_ideal
from .groebner import (
    Budget,
    BudgetError,
    MonomialOrder,
    buchberger,
    ideal_equal_laurent,
)
from .ifunction import qde_box_pairs, qde_rows
from .cluster import (
    LaurentPhenomenonError,
    MutationPath,
    cluster_variables,
    f_polynomial_and_g_vector,
    mutate_path,
    principal_seed,
    seed_from_quiver,
    separation_check,
)
from .embed import (
    injectivity_witness,
    psi_adjacent,
    psi_initial,
    psi_of_cluster_variable,
    transformation_link_check,
    verify_exchange_image,
    verify_type_a,
    zeta_substitution,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved flags for one invocation; echoed verbatim into the report."""

    command: str
    quiver: tuple[str, ...]
    pmax: int | None = None
    max_depth: int | None = None
    qorder: int | None = None
    order: str | None = None
    equivariant: bool = False
    classical: bool = False
    node: tuple[str, ...] = ()
    path: str | None = None
    at: int | None = None
    type_a: bool = False
    json_out: bool = False
    jobs: int = 1
    budget_steps: int | None = None

    def as_dict(self) -> dict:
        out: dict = {"command": self.command, "quiver": list(self.quiver)}
        for key in (
            "pmax", "max_depth", "qorder", "order", "equivariant", "classical",
            "path", "at", "type_a", "jobs", "budget_steps",
        ):
            val = getattr(self, key)
            if val is not None and val is not False:
                out[key] = val
        if self.node:
            out["node"] = list(self.node)
        return out

    def budget(self) -> Budget:
        if self.budget_steps is None:
            return Budget()
        return Budget(max_steps=self.budget_steps)


# -- report emission ----------------------------------------------------------------


def _emit(cfg: RunConfig, report: dict, text_lines: list) -> None:
    if cfg.json_out:
        report = {"schema": SCHEMA, "config": cfg.as_dict(), **report}
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _flag(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# -- worker functions (module level, picklable) --------------------------------------


def _qde_chunk(args):
    q, equivariant, pairs = args
    w = weights(q, build_table(q, equivariant=equivariant, with_h=True),
                equivariant=equivariant)
    return qde_rows(w, pairs)


def clamp_jobs(requested: int, items: int) -> int:
    """Worker count for `items` independent work items: at most one per
    item and one per CPU, at least one.  A request below one is an input
    error."""
    if requested < 1:
        raise ValueError(f"worker count must be >= 1, got {requested}")
    return max(1, min(requested, items, os.cpu_count() or 1))


def _map(fn, items: list, jobs: int) -> list:
    """fn over items in order: in this process for one job, else over
    freshly spawned worker processes."""
    if jobs <= 1:
        return [fn(x) for x in items]
    # imported here, so runs without workers never load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        return list(pool.map(fn, items))


# -- subcommands ---------------------------------------------------------------------


def _cmd_validate(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    rep = validate(q)
    ok = rep.acyclic and rep.feasible
    report = {
        "ok": ok,
        "flags": rep.as_dict(),
        "notes": list(rep.notes),
        "quiver": quiver_to_dict(q),
    }
    lines = [
        f"validate {cfg.quiver[0]}",
        f"  acyclic:      {_flag(rep.acyclic)}",
        f"  feasible:     {_flag(rep.feasible)}",
        f"  quiver-flag:  {'yes' if rep.quiver_flag else 'no'}",
        f"  type-A chain: {'yes' if rep.type_a else 'no'}",
    ]
    lines += [f"  note: {n}" for n in rep.notes]
    lines.append(f"result: {_flag(ok)}")
    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_present(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    pmax = resolve_pmax(q, cfg.pmax)
    ideal = build_ideal(q, pmax, equivariant=cfg.equivariant)
    gens = [poly_to_text(g) for g in ideal.generators]
    report = {
        "ok": True,
        "p_max": pmax,
        "equivariant": cfg.equivariant,
        "generators": gens,
        "degree_choices": [[nid, s] for nid, s in ideal.degrees],
    }
    lines = [f"presentation of {cfg.quiver[0]} (p_max={pmax}, "
             f"{'equivariant' if cfg.equivariant else 'non-equivariant'})"]
    lines += [f"  degree choice at node {nid}: {s:+d} * first coordinate"
              for nid, s in ideal.degrees]
    lines += [f"  {g}" for g in gens]
    lines.append(f"{len(gens)} generators")
    _emit(cfg, report, lines)
    return EXIT_OK


def _cmd_groebner(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    pmax = resolve_pmax(q, cfg.pmax)
    ideal = spanning_ideal(q, pmax, equivariant=cfg.equivariant)
    order = MonomialOrder(cfg.order or "grevlex")
    gb = buchberger(ideal.generators, order, cfg.budget())
    elems = [poly_to_text(g) for g in gb.elements]
    report = {
        "ok": True,
        "p_max": pmax,
        "order": order.kind,
        "basis": elems,
        "fingerprint": gb.fingerprint,
    }
    lines = [f"reduced basis of {cfg.quiver[0]} (p_max={pmax}, order={order.kind})"]
    lines += [f"  {g}" for g in elems]
    lines.append(f"{len(elems)} elements, fingerprint {gb.fingerprint}")
    _emit(cfg, report, lines)
    return EXIT_OK


def _cmd_verify_exchange(cfg: RunConfig) -> int:
    path = cfg.quiver[0]
    q = load_quiver(path)
    pmax = resolve_pmax(q, cfg.pmax)
    nodes = list(cfg.node) or [n.id for n in q.gauge_nodes if n.theta > 0]
    ideal = spanning_ideal(q, pmax, equivariant=cfg.equivariant)
    results = verify_exchange_image(
        q, ideal, nodes, budget=cfg.budget(), classical_slice=cfg.classical
    )
    rows = [
        {"node": k, "ok": ok, "witness": wit}
        for k, (ok, wit) in zip(nodes, results)
    ]
    ok = all(r["ok"] for r in rows)
    report = {"ok": ok, "p_max": pmax, "rows": rows}
    lines = [f"exchange relation in the presentation ideal: {path} (p_max={pmax})"]
    for r in rows:
        lines.append(f"  node {r['node']}: {_flag(r['ok'])}"
                     + (f"  [{r['witness']}]" if r["witness"] else ""))
    lines.append(f"result: {_flag(ok)}")
    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify_type_a(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    rep = verify_type_a(
        q, equivariant=cfg.equivariant, p_max=cfg.pmax, budget=cfg.budget()
    )
    report = {"ok": rep.ok, "rows": rep.rows}
    lines = [f"type-A closed forms and quotient identities: {cfg.quiver[0]}"]
    for r in rep.rows:
        lines.append(f"  {r['kind']} k={r['k']} l={r['l']}: {_flag(r['ok'])}"
                     + (f"  [{r['witness']}]" if r["witness"] else ""))
    lines.append(f"result: {_flag(rep.ok)}")
    _emit(cfg, report, lines)
    return EXIT_OK if rep.ok else EXIT_FAIL


def _cmd_verify_vgit(cfg: RunConfig) -> int:
    qa = load_quiver(cfg.quiver[0])
    qb = load_quiver(cfg.quiver[1])
    pmax = max(resolve_pmax(qa, cfg.pmax), resolve_pmax(qb, cfg.pmax))
    ia = build_ideal(qa, pmax, equivariant=cfg.equivariant)
    ib = build_ideal(qb, pmax, equivariant=cfg.equivariant)
    gens_b = [g.convert(ia.table) for g in ib.generators]
    qnames = ia.table.of_class("Q")
    cmp = ideal_equal_laurent(
        list(ia.generators), gens_b, qnames, budget=cfg.budget()
    )
    report = {
        "ok": cmp.equal,
        "p_max": pmax,
        "inverted": list(qnames),
        "missing_from_first": list(cmp.missing_from_first),
        "missing_from_second": list(cmp.missing_from_second),
    }
    lines = [f"ideal comparison over inverted Kaehler variables "
             f"(p_max={pmax}): {cfg.quiver[0]} vs {cfg.quiver[1]}"]
    for g in cmp.missing_from_first:
        lines.append(f"  only in second: {g}")
    for g in cmp.missing_from_second:
        lines.append(f"  only in first: {g}")
    lines.append(f"result: {_flag(cmp.equal)}")
    _emit(cfg, report, lines)
    return EXIT_OK if cmp.equal else EXIT_FAIL


def _qde_box_rows(q, equivariant: bool, box: int, jobs: int) -> list:
    """Report rows of the degree box in pair order, computed in one
    contiguous chunk of pairs per job.  The pairs are freed on return,
    before the report is serialised (about 2 MB for fl234 at box 3)."""
    pairs = qde_box_pairs(q, box)
    jobs = clamp_jobs(jobs, len(pairs))
    size = -(-len(pairs) // jobs)
    chunks = [(q, equivariant, pairs[i:i + size]) for i in range(0, len(pairs), size)]
    return [r for out in _map(_qde_chunk, chunks, jobs) for r in out]


def _cmd_verify_qde(cfg: RunConfig) -> int:
    path = cfg.quiver[0]
    q = load_quiver(path)
    box = cfg.qorder if cfg.qorder is not None else 2
    rows = _qde_box_rows(q, cfg.equivariant, box, cfg.jobs)
    ok = all(r["ok"] for r in rows)
    checked = sum(1 for r in rows if not r["skipped"])
    report = {"ok": ok, "box": box, "checked": checked, "rows": rows}
    lines = []
    if not cfg.json_out:  # one line per pair, which a JSON report would drop
        lines.append(f"degree-shift difference equations: {path} (box={box})")
        for r in rows:
            tag = "skip" if r["skipped"] else _flag(r["ok"])
            lines.append(f"  d={r['d']} d'={r['dprime']}: {tag}"
                         + (f"  [{r['notice']}]" if r["notice"] else "")
                         + (f"  [{r['witness']}]" if r["witness"] else ""))
        lines.append(f"result: {_flag(ok)} ({checked} checked, "
                     f"{len(rows) - checked} outside the cone)")
    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify_separation(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    from .quiver import exchange_matrices

    b, _, _ = exchange_matrices(q)
    s0 = principal_seed(b)
    path = MutationPath.parse(cfg.path or "").steps
    if not path and cfg.at is None:
        print("verify separation: --path is required", file=sys.stderr)
        return EXIT_INPUT
    k = cfg.at if cfg.at is not None else path[-1]
    f, g = f_polynomial_and_g_vector(s0, path, k)
    sep = separation_check(s0, path, k)
    const_one = f.coeff_of({}) == 1
    ok = sep and const_one
    report = {
        "ok": ok,
        "path": list(path),
        "position": k,
        "f_polynomial": poly_to_text(f),
        "g_vector": list(g),
        "constant_term_one": const_one,
        "separation": sep,
    }
    lines = [
        f"principal-coefficient separation: {cfg.quiver[0]} path={list(path)} k={k}",
        f"  F = {poly_to_text(f)}",
        f"  g = {list(g)}",
        f"  constant term 1: {_flag(const_one)}",
        f"  separation identity: {_flag(sep)}",
        f"result: {_flag(ok)}",
    ]
    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_cluster_mutate(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    seed, node_order = seed_from_quiver(q)
    path = MutationPath.parse(cfg.path or "").steps
    s = mutate_path(seed, path)
    report = {
        "ok": True,
        "path": list(path),
        "node_order": list(node_order),
        "cluster": list(s.variable_texts()),
        "coefficients": [str(y) for y in s.coeffs],
        "btilde": [list(r) for r in s.btilde],
    }
    lines = [f"seed of {cfg.quiver[0]} after path {list(path)}"]
    for nm, txt in zip(s.xnames, s.variable_texts()):
        lines.append(f"  {nm} = {txt}")
    for nm, y in zip(s.xnames, s.coeffs):
        lines.append(f"  coeff at {nm}: {y}")
    lines.append("  btilde rows: " + "; ".join(str(list(r)) for r in s.btilde))
    _emit(cfg, report, lines)
    return EXIT_OK


def _cmd_cluster_enumerate(cfg: RunConfig) -> int:
    q = load_quiver(cfg.quiver[0])
    seed, _ = seed_from_quiver(q)
    depth = cfg.max_depth if cfg.max_depth is not None else 6
    xs = cluster_variables(seed, depth)
    texts = [poly_to_text(x) for x in xs]
    report = {"ok": True, "max_depth": depth, "count": len(texts), "variables": texts}
    lines = [f"cluster variables of {cfg.quiver[0]} within depth {depth}"]
    lines += [f"  {t}" for t in texts]
    lines.append(f"{len(texts)} variables")
    _emit(cfg, report, lines)
    return EXIT_OK


def _cmd_embed(cfg: RunConfig) -> int:
    path = cfg.quiver[0]
    q = load_quiver(path)
    pmax = resolve_pmax(q, cfg.pmax)
    eq = cfg.equivariant
    lines = [f"cluster-to-cohomology embedding data: {path} (p_max={pmax})"]

    tz = build_table(q, equivariant=eq, with_t=True, with_zeta=True)
    tqz = build_table(q, equivariant=eq, with_t=True, with_q=True, with_zeta=True)
    subst = {k: poly_to_text(v) for k, v in sorted(zeta_substitution(q, tqz).items())}
    lines.append("  Kaehler elimination:")
    lines += [f"    {k} -> {v}" for k, v in subst.items()]

    images = {}
    for n in q.nodes:
        img = psi_initial(q, n.id, tz, equivariant=eq)
        images[f"x[{n.id}]"] = poly_to_text(img.num)
    for n in q.gauge_nodes:
        if n.theta > 0:
            adj = psi_adjacent(q, n.id, tz, equivariant=eq)
            images[f"x'[{n.id}]"] = (
                "(" + poly_to_text(adj.num) + ") / "
                + " * ".join(f"(zeta[{i}]*c_t(V_{i}))^{m}" for i, m in adj.den)
            )
    lines.append("  images:")
    lines += [f"    {k} = {v}" for k, v in sorted(images.items())]

    ideal = spanning_ideal(q, pmax, equivariant=eq)
    nodes = [n.id for n in q.gauge_nodes if n.theta > 0]
    checks = []
    results = verify_exchange_image(q, ideal, nodes, budget=cfg.budget())
    for k, (ok, wit) in zip(nodes, results):
        checks.append({"check": "exchange-image", "node": k, "ok": ok, "witness": wit})
        linked = transformation_link_check(q, k, equivariant=eq)
        checks.append({"check": "transformation-link", "node": k, "ok": linked,
                       "witness": None})
    witness = [
        {"node": nid, "zeta": z, "t_degree": m}
        for nid, z, m in injectivity_witness(q)
    ]
    checks.append({"check": "injectivity-witness", "node": None, "ok": True,
                   "witness": None})

    extra: dict = {}
    if cfg.path:
        steps = MutationPath.parse(cfg.path).steps
        at = cfg.at if cfg.at is not None else steps[-1]
        img = psi_of_cluster_variable(q, steps, at, tz, equivariant=eq)
        extra["cluster_image"] = {
            "path": list(steps),
            "position": at,
            "num": poly_to_text(img.num),
            "den": [[i, m] for i, m in img.den],
        }
        lines.append(f"  image of position {at} after path {list(steps)}:")
        lines.append(f"    num = {poly_to_text(img.num)}")
        lines.append(f"    den = {extra['cluster_image']['den']}")
    if cfg.type_a:
        rep = verify_type_a(q, equivariant=eq, p_max=cfg.pmax, budget=cfg.budget())
        for r in rep.rows:
            checks.append({"check": f"type-a-{r['kind']}", "node": f"{r['k']},{r['l']}",
                           "ok": r["ok"], "witness": r["witness"]})

    ok = all(c["ok"] for c in checks)
    lines.append("  checks:")
    for c in checks:
        where = f" {c['node']}" if c["node"] else ""
        lines.append(f"    {c['check']}{where}: {_flag(c['ok'])}"
                     + (f"  [{c['witness']}]" if c["witness"] else ""))
    lines.append(f"result: {_flag(ok)}")
    report = {
        "ok": ok,
        "p_max": pmax,
        "substitution": subst,
        "images": images,
        "injectivity": witness,
        "checks": checks,
        **extra,
    }
    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, pmax=False, equivariant=False,
                budget=False) -> None:
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="machine-readable JSON report (schema %d)" % SCHEMA)
    if pmax:
        p.add_argument("--pmax", type=int, default=None,
                       help="power-sum cutoff (default: max gauge dim + 2)")
    if equivariant:
        p.add_argument("--equivariant", action="store_true",
                       help="keep frozen-node equivariant parameters")
    if budget:
        p.add_argument("--budget-steps", type=int, default=None,
                       help="reduction-step budget for basis computations")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverqh",
        description="Exact presentations, cluster mutation and embedding "
                    "checks for quiver varieties.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks on a quiver file")
    p.add_argument("quiver")
    _add_common(p)

    p = sub.add_parser("present", help="ideal generators of the presentation")
    p.add_argument("quiver")
    _add_common(p, pmax=True, equivariant=True)

    p = sub.add_parser("groebner", help="reduced basis of the presentation ideal")
    p.add_argument("quiver")
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    _add_common(p, pmax=True, equivariant=True, budget=True)

    v = sub.add_parser("verify", help="exact verification suites")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("exchange", help="exchange relation holds in the ideal")
    p.add_argument("quiver")
    p.add_argument("--node", action="append", default=[],
                   help="gauge node id (repeatable; default: all with theta>0)")
    p.add_argument("--classical", action="store_true",
                   help="check the Kaehler-free slice instead")
    _add_common(p, pmax=True, equivariant=True, budget=True)

    p = vsub.add_parser("type-a", help="chain closed forms and quotient identities")
    p.add_argument("quiver")
    _add_common(p, pmax=True, equivariant=True, budget=True)

    p = vsub.add_parser("vgit", help="two stability choices give one Laurent ideal")
    p.add_argument("quiver", nargs=2, metavar=("PLUS", "MINUS"))
    _add_common(p, pmax=True, equivariant=True, budget=True)

    p = vsub.add_parser("qde", help="degree-shift difference equations in a box")
    p.add_argument("quiver")
    p.add_argument("--qorder", type=int, default=2,
                   help="degree-box coordinate bound (default 2)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the QDE pairs (default 1)")
    _add_common(p, equivariant=True)

    p = vsub.add_parser("separation",
                        help="principal-coefficient separation identity")
    p.add_argument("quiver")
    p.add_argument("--path", required=True, help="mutation path, e.g. 1,2,1")
    p.add_argument("--at", type=int, default=None,
                   help="cluster position (default: last path step)")
    _add_common(p)

    c = sub.add_parser("cluster", help="seed mutation and enumeration")
    csub = c.add_subparsers(dest="cluster_command", required=True)

    p = csub.add_parser("mutate", help="seed after a mutation path")
    p.add_argument("quiver")
    p.add_argument("--path", default="", help="mutation path, e.g. 1,2,1")
    _add_common(p)

    p = csub.add_parser("enumerate", help="cluster variables within a depth")
    p.add_argument("quiver")
    p.add_argument("--max-depth", type=int, default=6)
    _add_common(p)

    p = sub.add_parser("embed", help="embedding images and exactness checks")
    p.add_argument("quiver")
    p.add_argument("--path", default=None, help="also map this mutation path")
    p.add_argument("--at", type=int, default=None,
                   help="cluster position for --path (default: last step)")
    p.add_argument("--type-a", action="store_true", dest="type_a",
                   help="include the chain closed-form suite")
    _add_common(p, pmax=True, equivariant=True, budget=True)

    return ap


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    command = ns.command
    if command == "verify":
        command = f"verify {ns.verify_command}"
    elif command == "cluster":
        command = f"cluster {ns.cluster_command}"
    quiver = ns.quiver if isinstance(ns.quiver, list) else [ns.quiver]
    return RunConfig(
        command=command,
        quiver=tuple(quiver),
        pmax=getattr(ns, "pmax", None),
        max_depth=getattr(ns, "max_depth", None),
        qorder=getattr(ns, "qorder", None),
        order=getattr(ns, "order", None),
        equivariant=getattr(ns, "equivariant", False),
        classical=getattr(ns, "classical", False),
        node=tuple(getattr(ns, "node", []) or []),
        path=getattr(ns, "path", None),
        at=getattr(ns, "at", None),
        type_a=getattr(ns, "type_a", False),
        json_out=ns.json_out,
        jobs=getattr(ns, "jobs", 1),
        budget_steps=getattr(ns, "budget_steps", None),
    )


_DISPATCH = {
    "validate": _cmd_validate,
    "present": _cmd_present,
    "groebner": _cmd_groebner,
    "verify exchange": _cmd_verify_exchange,
    "verify type-a": _cmd_verify_type_a,
    "verify vgit": _cmd_verify_vgit,
    "verify qde": _cmd_verify_qde,
    "verify separation": _cmd_verify_separation,
    "cluster mutate": _cmd_cluster_mutate,
    "cluster enumerate": _cmd_cluster_enumerate,
    "embed": _cmd_embed,
}


def main(argv: list | None = None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    cfg = _config_from_args(ns)
    try:
        return _DISPATCH[cfg.command](cfg)
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QuiverFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LaurentPhenomenonError, LaurentViolationError, ArithmeticError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
