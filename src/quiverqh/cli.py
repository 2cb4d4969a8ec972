"""Command-line entry point with deterministic text and JSON reports.

Every subcommand reads a quiver description from a JSON file, runs an
exact computation or verification, and prints a report.  Reports are
byte-identical across runs for identical inputs and flags: no timestamps,
no wall-clock times, no unseeded randomness (none of the operations here
use randomness at all).  JSON reports carry a schema version so CI
consumers can pin the layout; text reports are for humans.

Each subcommand reads its flags from the parsed `argparse.Namespace`
and passes them on in one step; the modes among them (`--equivariant`,
`--classical`) become a variable table (`quiver.build_table`), which is
what the library reads them from.  The `config` object of a JSON report
echoes the flags by one rule (`_config`).

Exit codes: 0 all requested checks pass, 1 verification failure (a
failed check, or a `LaurentPhenomenonError` from a mutation), 2 input
error (`quiver.InputError`: a missing or unreadable file, malformed JSON,
bad flags, an unknown node, two quivers for `verify vgit` that differ in
more than theta, a `verify vgit` side that `validate` rejects, nothing to
check), 3 resource budget exceeded, 4 internal error (any other
exception: a polynomial in the wrong variable table or with a negative
power where none is allowed, any other ValueError, a ZeroDivisionError, a
DivisibilityError from an inexact polynomial division, a KeyError,
TypeError or IndexError: a bug, not bad input).

`verify qde --jobs N` distributes the QDE pairs over N worker processes,
N clamped to the number of pairs and to the CPU count; N below 1 is an
input error.  Workers receive
picklable arguments and rebuild their own state (each regenerates its own
contiguous slice of the box's pairs), results are collected in
submission order, so reports do not depend on scheduling.  `groebner`,
`verify type-a` and `embed --type-a` build one Groebner basis of the
presentation ideal per run, in this process (`_basis`), and hand that
object to every check that reads one; the type-A suite adds only its
zeta-side basis.  `_basis` passes Buchberger the rank that
`presentation.free_rank` proves for the quotient, when it proves one, so
pairing stops once the leads leave exactly that many xi-monomials; the
basis is the same.  Only `present` takes --pmax.  `verify exchange` builds
no basis: it proves each node's exchange relation by its closed-form
cofactors in the node's spanning relations
(`presentation.exchange_cofactor_sum`), as `embed` does for its
exchange rows.  `verify vgit` builds none either: it compares the
spanning relations of its two quivers node by node
(`presentation.compare_chambers`).  Neither takes --budget-steps.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii

from .polycore import DivisibilityError, poly_to_text
from .quiver import (
    InputError,
    build_table,
    load_quiver,
    quiver_to_dict,
    require_gauge_nodes,
    resolve_pmax,
    validate,
    weights,
)
from .presentation import build_ideal, compare_chambers, free_rank, spanning_ideal
from .groebner import (
    Budget,
    BudgetError,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
)
from .ifunction import qde_box_pairs, qde_box_size, qde_rows
from .cluster import (
    cluster_variables,
    f_polynomial_and_g_vector,
    mutate_path,
    parse_path,
    principal_seed,
    seed_from_quiver,
    separation_check,
)
from .embed import (
    injectivity_witness,
    node_images,
    psi_adjacent,
    psi_of_cluster_variable,
    require_exchange_node,
    transformation_link_check,
    type_a_chain,
    verify_exchange_image,
    verify_type_a,
    zeta_substitution,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# -- flags and report emission ------------------------------------------------------


def _budget(ns: argparse.Namespace) -> Budget:
    """The reduction-step budget of --budget-steps, the default one without
    it; a negative step count is an input error."""
    if ns.budget_steps is None:
        return Budget()
    if ns.budget_steps < 0:
        raise InputError(f"budget steps must be >= 0, got {ns.budget_steps}")
    return Budget(max_steps=ns.budget_steps)


def _basis(ns: argparse.Namespace, q, table) -> GroebnerBasis:
    """The run's one reduced basis: the presentation ideal of q in table,
    in the --order of `groebner` (grevlex elsewhere), under --budget-steps.
    Every check of the run that reads a basis is handed this object.  When
    `presentation.free_rank` proves the quotient free over the non-xi
    variables, Buchberger stops pairing once its leads leave exactly that
    many xi-monomials (`groebner.buchberger`'s ``free_rank``)."""
    order = MonomialOrder(vars(ns).get("order", "grevlex"))
    rank = free_rank(q, table)
    return buchberger(spanning_ideal(q, table).generators, order, _budget(ns),
                      free_rank=None if rank is None else (rank, table.of_class("xi")))


def _config(ns: argparse.Namespace) -> dict:
    """The `config` object of a JSON report: every parsed flag but --json
    whose value is not None, False or [] (0 and "" are echoed), the quiver
    path(s) as a list, and jobs 1 on a command without --jobs."""
    out = {"jobs": 1}
    for key, val in vars(ns).items():
        if key != "json_out" and val is not None and val is not False and val != []:
            out[key] = val
    if isinstance(ns.quiver, str):
        out["quiver"] = [ns.quiver]
    return out


_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def to_json(obj, indent: str = "\n", memo: dict | None = None) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), the same string, in one
    pass; the standard encoder runs its pure-Python path under indent.
    Leaves are str, int, bool and None, containers dict (str keys), list
    and tuple; any other type, a subclass of one or a key that is not a
    str raises TypeError.  Leaves are encoded in the container's loop,
    not by a call per leaf.

    A report may hold one object in many places (the QDE rows of a degree
    share its d).  While a list is encoded, every container held as a
    dict value anywhere inside its elements is encoded once per depth and
    its text kept in `memo`, keyed by (id, indent); the memo is dropped
    with the list, so it never outlives the report that keeps those ids
    alive, nor holds the text of the list itself.  A container edited
    between two calls is encoded from its new contents."""
    inner = indent + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj):
            v = obj[k]
            leaf = _LEAVES.get(type(v))
            if leaf:
                text = leaf(v)
            elif memo is None:
                text = to_json(v, inner)
            else:
                text = memo.get((id(v), inner))
                if text is None:
                    text = memo[id(v), inner] = to_json(v, inner, memo)
            parts.append(encode_basestring_ascii(k) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        if memo is None:
            memo = {}
        parts = []
        for v in obj:
            leaf = _LEAVES.get(type(v))
            parts.append(leaf(v) if leaf else to_json(v, inner, memo))
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if type(obj) in _LEAVES:
        return _LEAVES[type(obj)](obj)
    raise TypeError(f"not a JSON report value: {type(obj).__name__}")


def _emit(ns: argparse.Namespace, report: dict, text_lines: list) -> None:
    if ns.json_out:
        report = {"schema": SCHEMA, "config": _config(ns), **report}
        print(to_json(report))
    else:
        for line in text_lines:
            print(line)


def _flag(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# -- worker functions (module level, picklable) --------------------------------------


def _qde_chunk(args):
    q, equivariant, box, start, stop = args
    w = weights(q, build_table(q, equivariant=equivariant, with_h=True))
    return qde_rows(w, islice(qde_box_pairs(q, box), start, stop))


def clamp_jobs(requested: int, items: int) -> int:
    """Worker count for `items` independent work items: at most one per
    item and one per CPU, at least one.  A request below one is an input
    error."""
    if requested < 1:
        raise InputError(f"worker count must be >= 1, got {requested}")
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


def _cmd_validate(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    require_gauge_nodes(q)
    rep = validate(q)
    ok = rep.acyclic and rep.feasible
    report = {
        "ok": ok,
        "flags": rep._asdict(),
        "notes": list(rep.notes),
        "quiver": quiver_to_dict(q),
    }
    lines = [
        f"validate {ns.quiver}",
        f"  acyclic:      {_flag(rep.acyclic)}",
        f"  feasible:     {_flag(rep.feasible)}",
        f"  quiver-flag:  {'yes' if rep.quiver_flag else 'no'}",
        f"  type-A chain: {'yes' if rep.type_a else 'no'}",
    ]
    lines += [f"  note: {n}" for n in rep.notes]
    lines.append(f"result: {_flag(ok)}")
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_present(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    pmax = resolve_pmax(q, ns.pmax)
    ideal = build_ideal(q, pmax, build_table(q, equivariant=ns.equivariant, with_q=True))
    gens = [poly_to_text(g) for g in ideal.generators]
    report = {
        "ok": True,
        "p_max": pmax,
        "equivariant": ns.equivariant,
        "generators": gens,
        "degree_choices": [[nid, s] for nid, s in ideal.degrees],
    }
    lines = [f"presentation of {ns.quiver} (p_max={pmax}, "
             f"{'equivariant' if ns.equivariant else 'non-equivariant'})"]
    lines += [f"  degree choice at node {nid}: {s:+d} * first coordinate"
              for nid, s in ideal.degrees]
    lines += [f"  {g}" for g in gens]
    lines.append(f"{len(gens)} generators")
    _emit(ns, report, lines)
    return EXIT_OK


def _cmd_groebner(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    require_gauge_nodes(q)
    gb = _basis(ns, q, build_table(q, equivariant=ns.equivariant, with_q=True))
    elems = [poly_to_text(g) for g in gb.elements]
    report = {
        "ok": True,
        "order": gb.order.kind,
        "basis": elems,
        "fingerprint": gb.fingerprint,
    }
    lines = [f"reduced basis of {ns.quiver} (order={gb.order.kind})"]
    lines += [f"  {g}" for g in elems]
    lines.append(f"{len(elems)} elements, fingerprint {gb.fingerprint}")
    _emit(ns, report, lines)
    return EXIT_OK


def _cmd_verify_exchange(ns: argparse.Namespace) -> int:
    path = ns.quiver
    q = load_quiver(path)
    require_gauge_nodes(q)
    ids = {n.id for n in q.nodes}
    for k in ns.node:  # a bad node fails before any relation is built
        if k not in ids:
            raise InputError(f"unknown node {k!r}")
        require_exchange_node(q, k)
    nodes = ns.node or [n.id for n in q.gauge_nodes if n.theta > 0]
    if not nodes:  # a run that checks nothing must not report a pass
        raise InputError("no gauge node with theta > 0 to check")
    # the classical slice Q -> 0 is the ideal in a table without Q
    table = build_table(
        q, equivariant=ns.equivariant, with_t=True, with_q=not ns.classical
    )
    results = verify_exchange_image(q, table, nodes)
    rows = [
        {"node": k, "ok": ok, "witness": wit}
        for k, (ok, wit) in zip(nodes, results)
    ]
    ok = all(r["ok"] for r in rows)
    report = {"ok": ok, "rows": rows}
    lines = [f"exchange relation in the presentation ideal: {path}"]
    for r in rows:
        lines.append(f"  node {r['node']}: {_flag(r['ok'])}"
                     + (f"  [{r['witness']}]" if r["witness"] else ""))
    lines.append(f"result: {_flag(ok)}")
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify_type_a(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    type_a_chain(q)  # a quiver that is not a chain fails before any basis work
    require_gauge_nodes(q)
    table = build_table(q, equivariant=ns.equivariant, with_t=True, with_q=True)
    gb = _basis(ns, q, table)
    rows = verify_type_a(q, gb, budget=_budget(ns))
    ok = all(r["ok"] for r in rows)
    report = {"ok": ok, "rows": rows}
    lines = [f"type-A closed forms and quotient identities: {ns.quiver}"]
    for r in rows:
        lines.append(f"  {r['kind']} k={r['k']} l={r['l']}: {_flag(r['ok'])}"
                     + (f"  [{r['witness']}]" if r["witness"] else ""))
    lines.append(f"result: {_flag(ok)}")
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _shape(q) -> tuple:
    """The nodes and edges of q with the stability weights left out."""
    return ({(n.id, n.kind, n.dim) for n in q.nodes},
            {(e.src, e.dst, e.count) for e in q.edges})


def _cmd_verify_vgit(ns: argparse.Namespace) -> int:
    first, second = ns.quiver
    qa = load_quiver(first)
    qb = load_quiver(second)
    if _shape(qa) != _shape(qb):
        raise InputError(f"{first} and {second} are not one quiver: "
                         "only the stability weights theta may differ")
    for path, q in ((first, qa), (second, qb)):
        rep = validate(q)
        if not (rep.acyclic and rep.feasible):
            raise InputError(f"{path} fails validate: {'; '.join(rep.notes)}")
    # _shape gave both quivers the same nodes and dims, so one table holds both
    rows = compare_chambers(qa, qb, build_table(qa, equivariant=ns.equivariant, with_q=True))
    ok = all(r["ok"] for r in rows)
    report = {"ok": ok, "rows": rows}
    lines = [f"node relations in two stability chambers: {first} vs {second}"]
    for r in rows:
        lines.append(f"  node {r['node']} theta {r['theta']} epsilon {r['epsilon']:+d}: "
                     f"{_flag(r['ok'])}" + (f"  [{r['witness']}]" if r["witness"] else ""))
    lines.append(f"result: {_flag(ok)}")
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _qde_box_rows(q, equivariant: bool, box: int, jobs: int) -> list:
    """Report rows of the degree box in pair order, computed in one
    contiguous slice of pairs per job.  Each job regenerates its slice
    from the box, so no pair list is built or sent to a worker."""
    count = qde_box_size(q, box)
    jobs = clamp_jobs(jobs, count)
    size = -(-count // jobs)
    chunks = [(q, equivariant, box, i, i + size) for i in range(0, count, size)]
    return [r for out in _map(_qde_chunk, chunks, jobs) for r in out]


def _cmd_verify_qde(ns: argparse.Namespace) -> int:
    path = ns.quiver
    q = load_quiver(path)
    box = ns.qorder
    rows = _qde_box_rows(q, ns.equivariant, box, ns.jobs)
    ok = all(r["ok"] for r in rows)
    checked = sum(1 for r in rows if not r["skipped"])
    report = {"ok": ok, "box": box, "checked": checked, "rows": rows}
    lines = []
    if not ns.json_out:  # one line per pair, which a JSON report would drop
        lines.append(f"degree-shift difference equations: {path} (box={box})")
        for r in rows:
            tag = "skip" if r["skipped"] else _flag(r["ok"])
            lines.append(f"  d={r['d']} d'={r['dprime']}: {tag}"
                         + (f"  [{r['notice']}]" if r["notice"] else "")
                         + (f"  [{r['witness']}]" if r["witness"] else ""))
        lines.append(f"result: {_flag(ok)} ({checked} checked, "
                     f"{len(rows) - checked} outside the cone)")
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify_separation(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    from .quiver import exchange_matrices

    b, _, _ = exchange_matrices(q)
    s0 = principal_seed(b)
    path = parse_path(ns.path)
    if not path and ns.at is None:
        raise InputError("--path is required")
    k = ns.at if ns.at is not None else path[-1]
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
        f"principal-coefficient separation: {ns.quiver} path={list(path)} k={k}",
        f"  F = {poly_to_text(f)}",
        f"  g = {list(g)}",
        f"  constant term 1: {_flag(const_one)}",
        f"  separation identity: {_flag(sep)}",
        f"result: {_flag(ok)}",
    ]
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_cluster_mutate(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    seed, node_order = seed_from_quiver(q)
    path = parse_path(ns.path)
    s = mutate_path(seed, path)
    report = {
        "ok": True,
        "path": list(path),
        "node_order": list(node_order),
        "cluster": list(s.variable_texts()),
        "coefficients": [str(y) for y in s.coeffs],
        "btilde": [list(r) for r in s.btilde],
    }
    lines = [f"seed of {ns.quiver} after path {list(path)}"]
    for nm, txt in zip(s.xnames, s.variable_texts()):
        lines.append(f"  {nm} = {txt}")
    for nm, y in zip(s.xnames, s.coeffs):
        lines.append(f"  coeff at {nm}: {y}")
    lines.append("  btilde rows: " + "; ".join(str(list(r)) for r in s.btilde))
    _emit(ns, report, lines)
    return EXIT_OK


def _cmd_cluster_enumerate(ns: argparse.Namespace) -> int:
    q = load_quiver(ns.quiver)
    seed, _ = seed_from_quiver(q)
    depth = ns.max_depth
    xs = cluster_variables(seed, depth)
    texts = [poly_to_text(x) for x in xs]
    report = {"ok": True, "max_depth": depth, "count": len(texts), "variables": texts}
    lines = [f"cluster variables of {ns.quiver} within depth {depth}"]
    lines += [f"  {t}" for t in texts]
    lines.append(f"{len(texts)} variables")
    _emit(ns, report, lines)
    return EXIT_OK


def _cmd_embed(ns: argparse.Namespace) -> int:
    path = ns.quiver
    q = load_quiver(path)
    require_gauge_nodes(q)
    if ns.at is not None and not ns.path:
        raise InputError("--at needs --path")
    eq = ns.equivariant
    lines = [f"cluster-to-cohomology embedding data: {path}"]

    tq = build_table(q, equivariant=eq, with_t=True, with_q=True)
    tqz = build_table(q, equivariant=eq, with_t=True, with_q=True, with_zeta=True)
    subst = {k: poly_to_text(v) for k, v in sorted(zeta_substitution(q, tqz).items())}
    lines.append("  Kaehler elimination:")
    lines += [f"    {k} -> {v}" for k, v in subst.items()]

    initial = node_images(q, tqz)
    images = {f"x[{nid}]": poly_to_text(img) for nid, img in initial.items()}
    for n in q.gauge_nodes:
        if n.theta > 0:
            adj = psi_adjacent(q, n.id, tqz)
            images[f"x'[{n.id}]"] = (
                "(" + poly_to_text(adj.num) + ") / "
                + " * ".join(f"(zeta[{i}]*c_t(V_{i}))^{m}" for i, m in adj.den)
            )
    lines.append("  images:")
    lines += [f"    {k} = {v}" for k, v in sorted(images.items())]

    # a bad --path or --at fails before any basis work
    extra: dict = {}
    if ns.path:
        steps = parse_path(ns.path)
        at = ns.at if ns.at is not None else steps[-1]
        img = psi_of_cluster_variable(q, steps, at, initial)
        extra["cluster_image"] = {
            "path": list(steps),
            "position": at,
            "num": poly_to_text(img.num),
            "den": [[i, m] for i, m in img.den],
        }
        lines.append(f"  image of position {at} after path {list(steps)}:")
        lines.append(f"    num = {poly_to_text(img.num)}")
        lines.append(f"    den = {extra['cluster_image']['den']}")

    nodes = [n.id for n in q.gauge_nodes if n.theta > 0]
    budget = _budget(ns)
    if ns.type_a:  # a quiver that is not a chain fails before any basis work
        type_a_chain(q)
    checks = []
    results = verify_exchange_image(q, tq, nodes)
    for k, (ok, wit) in zip(nodes, results):
        checks.append({"check": "exchange-image", "node": k, "ok": ok, "witness": wit})
        linked = transformation_link_check(q, k, tqz)
        checks.append({"check": "transformation-link", "node": k, "ok": linked,
                       "witness": None})
    witness = [
        {"node": nid, "zeta": z, "t_degree": m}
        for nid, z, m in injectivity_witness(q, tqz)
    ]
    checks.append({"check": "injectivity-witness", "node": None, "ok": True,
                   "witness": None})

    if ns.type_a:  # the one check that reads a basis
        for r in verify_type_a(q, _basis(ns, q, tq), budget=budget):
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
        "substitution": subst,
        "images": images,
        "injectivity": witness,
        "checks": checks,
        **extra,
    }
    _emit(ns, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, equivariant=False, budget=False) -> None:
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="machine-readable JSON report (schema %d)" % SCHEMA)
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
    p.add_argument("--pmax", type=int, default=None,
                   help="power-sum cutoff (default: max gauge dim + 2)")
    _add_common(p, equivariant=True)

    p = sub.add_parser("groebner", help="reduced basis of the presentation ideal")
    p.add_argument("quiver")
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    _add_common(p, equivariant=True, budget=True)

    v = sub.add_parser("verify", help="exact verification suites")
    vsub = v.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("exchange", help="exchange relation holds in the ideal")
    p.add_argument("quiver")
    p.add_argument("--node", action="append", default=[],
                   help="gauge node id (repeatable; default: all with theta>0)")
    p.add_argument("--classical", action="store_true",
                   help="check the Kaehler-free slice instead")
    _add_common(p, equivariant=True)

    p = vsub.add_parser("type-a", help="chain closed forms and quotient identities")
    p.add_argument("quiver")
    _add_common(p, equivariant=True, budget=True)

    p = vsub.add_parser("vgit", help="two stability choices give one ideal")
    # argparse cannot print a tuple metavar of a positional in --help
    p.add_argument("quiver", nargs=2, metavar="QUIVER",
                   help="two quiver files that differ in theta only")
    _add_common(p, equivariant=True)

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
    _add_common(p, equivariant=True)
    p.add_argument("--budget-steps", type=int, default=None,
                   help="reduction-step budget for the bases of the --type-a suite only")

    return ap


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
    ns = build_parser().parse_args(argv)
    # "verify" and "exchange" make "verify exchange", echoed and dispatched on
    sub = vars(ns).pop(f"{ns.command}_command", None)
    if sub:
        ns.command = f"{ns.command} {sub}"
    try:
        return _DISPATCH[ns.command](ns)
    # only quiver.InputError is bad input; a ValueError of any other kind
    # (a ContextError, a LaurentViolationError, a slip inside the engine) is
    # a bug.  A ZeroDivisionError or DivisibilityError is an ArithmeticError,
    # but no check raises one (cluster.mutate re-raises a DivisibilityError
    # as LaurentPhenomenonError)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ZeroDivisionError, DivisibilityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
