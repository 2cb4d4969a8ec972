"""Benchmark of the quiverqh command line on fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload typea-fl245-eq --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60 --trace 1

``BENCHMARK.json`` declares two of the four workloads below, typea-fl245-eq
and qde-fl234: between them they reach every layer, and with only two the
time limit on all runs leaves each run time for three or four invocations of
the type-a solve, which alone takes more than ten seconds.  exchange-fl12345
(one basis rebuilt per gauge node) and enumerate-a7 (cluster mutation at
volume) stay runnable by name, with the same checks.

Every measured invocation is one fresh single-threaded interpreter
(``perfbench/child.py``) running ``quiverqh.cli.main(argv)`` once: a
closed loop with one client, one process at a time.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (the fastest wall
time of ``main`` among the run's invocations), ``setup_s`` (the fastest time
from process start until ``quiverqh.cli`` is imported, among the run's
interpreters: ``SETUPS_PER_SOLVE`` set-up-only ones before each solve and
after the last, and the solves' own) and ``peak_rss_mb`` (median peak
resident set of an invocation).  ``--trace 1`` runs the workload twice
untraced and twice under ``tracer.Tracer`` and reports the per-layer metrics
named in ``BENCHMARK.json``.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the error rate.

Every run is checked: exit code 0, ``"ok": true``, the label-invariant
facts of the report and, at seed 0, the sha256 of the report and the
Groebner basis fingerprints recorded in ``expected.json``.  A run that
fails any check, or times out, counts as failed.

Seed 0 hands the CLI the committed fixture byte for byte.  Any other seed
writes a generated copy under ``perfbench/.work/``: node ids relabelled by a
seeded bijection and the node and edge lists shuffled.  The bijection keeps
the label order (new ids are sorted random integers), so the variable order,
and with it the Groebner computation, is the same for every seed.

Why the times are minima: on a small shared machine, other tenants slow
every core by up to 1.7x, in phases from seconds to minutes long, and they
only ever add time.  The fastest sample of a run filters out the short
phases; a long one moves every sample of a run together, so the spread over
seeds narrows only as a run's samples cover more time.  Each run therefore
makes at least ``MIN_INVOCATIONS`` invocations, even of a workload whose
single invocation outlasts ``--seconds``.  The medians are printed alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

try:
    from quiverqh.polycore import _label_key  # the order node labels sort in
except ImportError as exc:
    sys.exit(f"perfbench: not a quiverqh checkout: {exc}")

WORK = HERE / ".work"

SETUPS_PER_SOLVE = 4  # set-up-only interpreters before each solve and after
                      # the last, so that set-up samples spread over the run
MIN_INVOCATIONS = 2   # solves per measured run, however long one takes
TRACE_PAIRS = 2       # untraced and traced solves per traced run, each
TIME_LIMIT_S = 170.0  # per workload, children included

WORKLOADS = {
    "exchange-fl12345": {
        "fixture": "perfbench/fixtures/fl12345.json",
        "argv": ["verify", "exchange", "{quiver}", "--jobs", "1", "--json"],
    },
    "typea-fl245-eq": {
        "fixture": "quivers/fl245.json",
        "argv": ["verify", "type-a", "{quiver}", "--equivariant", "--json"],  # no --jobs: one process
    },
    "qde-fl234": {
        "fixture": "quivers/fl234.json",
        "argv": ["verify", "qde", "{quiver}", "--qorder", "3", "--jobs", "1", "--json"],
    },
    "enumerate-a7": {
        "fixture": "perfbench/fixtures/fl1234567.json",
        "argv": ["cluster", "enumerate", "{quiver}", "--max-depth", "8", "--json"],
    },
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


# -- inputs ---------------------------------------------------------------------------


def relabelled(data: dict, seed: int) -> dict:
    """Copy of a quiver dict with seeded, order-preserving node ids and
    shuffled node and edge lists."""
    rng = random.Random(seed)
    old = sorted((str(n["id"]) for n in data["nodes"]), key=_label_key)
    new = sorted(rng.sample(range(1, 1000), len(old)))
    ids = {o: str(n) for o, n in zip(old, new)}
    nodes = [dict(n, id=ids[str(n["id"])]) for n in data["nodes"]]
    edges = [dict(e, src=ids[str(e["src"])], dst=ids[str(e["dst"])]) for e in data["edges"]]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {"nodes": nodes, "edges": edges}


def quiver_input(name: str, seed: int) -> str:
    """Path, relative to the checkout root, of the quiver file the CLI gets."""
    fixture = WORKLOADS[name]["fixture"]
    if seed == 0:
        return fixture
    with open(ROOT / fixture) as fh:
        data = relabelled(json.load(fh), seed)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-seed{seed}.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path.relative_to(ROOT))


# -- correctness ----------------------------------------------------------------------


def report_facts(report: dict) -> dict:
    """Facts of a report that do not depend on node labels or file order."""
    command = report["config"]["command"]
    rows = report.get("rows", [])
    if command == "verify qde":
        return {"checked": report["checked"], "skipped": len(rows) - report["checked"]}
    if command == "cluster enumerate":
        return {"count": report["count"]}
    return {"rows": len(rows), "rows_ok": all(r["ok"] for r in rows)}


def check_report(expected: dict, seed: int, exit_code, text: str) -> list:
    """Problems with one run's report; empty when the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("ok") is not True:
        problems.append('report has no "ok": true')
    try:
        facts = report_facts(report)
    except (KeyError, TypeError) as exc:
        facts = {"unreadable": repr(exc)}
    if facts != expected["facts"]:
        problems.append(f"facts {facts} != {expected['facts']}")
    if seed == 0:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != expected["sha256"]:
            problems.append(f"report sha256 {digest} != {expected['sha256']}")
    return problems


def check_trace(expected: dict, seed: int, observations: dict) -> list:
    """Problems with the Groebner bases a traced run built."""
    bases = observations["groebner.buchberger"]
    sizes = [n for _, n, _ in bases]
    problems = []
    if sizes != expected["basis_sizes"]:
        problems.append(f"basis sizes {sizes} != {expected['basis_sizes']}")
    if seed == 0:
        prints = [fp for fp, _, _ in bases]
        if prints != expected["fingerprints"]:
            problems.append(f"fingerprints {prints} != {expected['fingerprints']}")
    return problems


# -- child processes ------------------------------------------------------------------


def _child_env() -> dict:
    # the package under test comes from this checkout's src/, whatever the
    # caller's PYTHONPATH or other interpreter settings say
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(job: dict, deadline: float) -> dict:
    """Run perfbench/child.py once; returns setup_s plus whatever the child
    wrote (exit, solve_s, peak_rss_mb) or an "error"."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - start
            _, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timeout"}
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.communicate()
            raise
    if line != "ready\n":
        return {"error": "no ready line: " + (err.strip().splitlines() or ["?"])[-1]}
    out = {"setup_s": setup_s, "exit": proc.returncode}
    if job.get("argv"):
        try:
            with open(job["result"]) as fh:
                out.update(json.load(fh))
        except FileNotFoundError:
            out["error"] = f"exit {proc.returncode}: " + (err.strip().splitlines() or ["?"])[-1]
    return out


def _job(name: str, quiver: str, tag: str, trace: bool) -> dict:
    argv = [a.format(quiver=quiver) for a in WORKLOADS[name]["argv"]]
    base = WORK / f"{os.getpid()}-{tag}"
    return {
        "argv": argv,
        "report": str(base) + ".report",
        "result": str(base) + ".result",
        "trace": str(base) + ".trace" if trace else None,
        "run_id": f"{name}/{tag}",
    }


def solve(name: str, quiver: str, seed: int, expected: dict, tag: str,
          deadline: float, trace: bool = False) -> dict:
    """One checked invocation of the workload; adds "problems" and
    "report_bytes" (and "trace" when traced) to the spawn result."""
    job = _job(name, quiver, tag, trace)
    try:
        res = spawn(job, deadline)
        if "error" in res:
            res["problems"] = [res["error"]]
            return res
        with open(job["report"], "rb") as fh:
            raw = fh.read()
        res["report_bytes"] = len(raw)
        res["problems"] = check_report(expected, seed, res["exit"], raw.decode("utf-8"))
        if trace:
            res["trace"] = tracer.load(job["trace"])
            res["problems"] += check_trace(expected, seed, res["trace"]["observations"])
        return res
    finally:
        for key in ("report", "result", "trace"):
            if job[key]:
                Path(job[key]).unlink(missing_ok=True)


# -- metrics --------------------------------------------------------------------------


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, report_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from one traced run: calls and self time of every
    traced function, plus the derived counts and ratios.  BENCHMARK.json
    names the ones reported."""
    totals = tracer.layer_totals(trace["spans"])
    obs = trace["observations"]
    m: dict = {}
    for name in tracer.TARGETS.values():
        agg = totals.get(name, {"calls": 0, "self_ns": 0})
        m[f"{name}.calls"] = agg["calls"]
        m[f"{name}.self_s"] = agg["self_ns"] / 1e9
    ideals = obs["presentation.build_ideal"]
    m["presentation.generators"] = sum(g for g, _ in ideals)
    m["presentation.generator_terms"] = sum(t for _, t in ideals)
    bases = obs["groebner.buchberger"]
    m["groebner.buchberger.distinct"] = len({fp for fp, _, _ in bases})
    m["groebner.basis_reuse"] = _ratio(m["groebner.buchberger.distinct"], len(bases))
    m["groebner.basis_elements"] = sum(n for _, n, _ in bases)
    m["groebner.input_terms"] = sum(t for _, _, t in bases)
    zeros = obs["groebner.normal_form"]
    m["groebner.normal_form.zero_ratio"] = _ratio(sum(zeros), len(zeros))
    m["cluster.variables_found"] = sum(obs["cluster.cluster_variables"])
    keys = obs["cluster.unlabeled_key"]
    m["cluster.new_seed_ratio"] = _ratio(len(set(keys)), len(keys))
    skipped = obs["ifunction.qde_check"]
    m["ifunction.qde_check.skipped_ratio"] = _ratio(sum(skipped), len(skipped))
    m["cli.report_bytes"] = report_bytes
    m["trace.overhead_s"] = overhead_s
    return m


# -- runs -----------------------------------------------------------------------------


def _note_failures(name: str, runs: list) -> None:
    for i, r in enumerate(runs):
        for p in r["problems"]:
            print(f"{name}: run {i} failed: {p}", file=sys.stderr)


def set_ups(n: int, deadline: float) -> list:
    """setup_s of ``n`` fresh interpreters that import quiverqh.cli and exit."""
    out = []
    for _ in range(n):
        res = spawn({}, deadline)
        if "error" in res:
            raise SetupError(res["error"])
        out.append(res["setup_s"])
    return out


def measured_run(name: str, seed: int, seconds: float, expected: dict,
                 deadline: float) -> tuple:
    """Untraced invocations for about ``seconds``, and at least
    MIN_INVOCATIONS of them; (metrics, attempted, failed)."""
    quiver = quiver_input(name, seed)
    setups = []
    # closed loop: the next invocation starts when the last one has ended,
    # as long as one more of median length still fits in ``seconds``
    runs, took = [], []
    start = time.monotonic()
    while (len(runs) < MIN_INVOCATIONS
           or time.monotonic() - start + statistics.median(took) <= seconds):
        began = time.monotonic()
        if runs and began + 2 * max(took) > deadline:
            break
        setups += set_ups(SETUPS_PER_SOLVE, deadline)
        runs.append(solve(name, quiver, seed, expected, f"s{len(runs)}", deadline))
        took.append(time.monotonic() - began)
    setups += set_ups(SETUPS_PER_SOLVE, deadline)
    _note_failures(name, runs)
    failed = sum(1 for r in runs if r["problems"])
    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    # time the correct runs; when none is correct, whatever ran to the end
    timed = [r for r in runs if not r["problems"]] or [r for r in runs if "solve_s" in r]
    if not timed:
        raise SetupError(f"{name}: no run finished")
    metrics = {
        "solve_s": min(r["solve_s"] for r in timed),
        "setup_s": min(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    print(f"{name} seed {seed}: {len(runs)} runs, {len(setups)} set-ups")
    median = statistics.median(r["solve_s"] for r in timed)
    print(f"  solve_s      {metrics['solve_s']:.4f} s   (fastest of {len(timed)}; median {median:.4f} s)")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   (fastest of {len(setups)}; "
          f"median {statistics.median(setups):.4f} s)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  (median of {len(timed)})")
    print(f"  error_rate   {_ratio(failed, len(runs)):.3f} ratio  ({failed} of {len(runs)} runs failed)")
    return metrics, len(runs), failed


def traced_run(name: str, seed: int, expected: dict, deadline: float) -> tuple:
    """Two untraced and two traced runs, alternating; (metrics, attempted, failed).

    The layer metrics come from the faster traced run.  ``trace.overhead_s``
    is the faster traced solve_s minus the faster untraced one: minima, for
    the reason the measured runs use them, yet still only two samples a side,
    so on a loaded machine it can stray by a second or more either way.
    """
    quiver = quiver_input(name, seed)
    set_ups(1, deadline)  # warm start, as in a measured run
    runs = []
    for i in range(TRACE_PAIRS):
        runs.append(solve(name, quiver, seed, expected, f"plain{i}", deadline))
        runs.append(solve(name, quiver, seed, expected, f"traced{i}", deadline, trace=True))
    _note_failures(name, runs)
    failed = sum(1 for r in runs if r["problems"])
    plain = [r for r in runs[0::2] if "solve_s" in r]
    traced = [r for r in runs[1::2] if "trace" in r]
    if not plain or not traced:
        raise SetupError(f"{name}: the traced run did not finish")
    best = min(traced, key=lambda r: r["solve_s"])
    overhead = best["solve_s"] - min(r["solve_s"] for r in plain)
    metrics = layer_metrics(best["trace"], best["report_bytes"], overhead)
    print(f"{name} seed {seed}: traced runs, {failed} of {len(runs)} runs failed")
    for key, val in metrics.items():
        print(f"  {key:42s} {val:.6g}")
    return metrics, len(runs), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
        with open(HERE / "expected.json") as fh:
            expected = json.load(fh)
        missing = [w["fixture"] for w in WORKLOADS.values() if not (ROOT / w["fixture"]).is_file()]
        if missing or not (ROOT / "src" / "quiverqh" / "cli.py").is_file():
            raise SetupError(f"not a quiverqh checkout: missing {missing or 'src/quiverqh'}")
        WORK.mkdir(exist_ok=True)
        spawn({}, time.monotonic() + TIME_LIMIT_S)  # writes the bytecode caches; not measured
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in declared[kind]}
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            if args.trace:
                got, n, bad = traced_run(name, args.seed, expected[name], deadline)
            else:
                got, n, bad = measured_run(name, args.seed, args.seconds, expected[name], deadline)
            attempted += n
            failed += bad
            if not set(units) <= set(got):
                raise SetupError(f"no value for {sorted(set(units) - set(got))}")
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": got[k], "unit": u} for k, u in units.items()})
    except (SetupError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
