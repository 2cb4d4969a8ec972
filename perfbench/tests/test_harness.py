"""Tests of the benchmark harness itself (not of quiverqh).

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

import quiverqh.cli  # noqa: E402


# -- self time ------------------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    #   main [0, 100]
    #     build [10, 40]
    #       mul [15, 20]
    #       mul [25, 35]
    #     solve [50, 90]
    #       mul [60, 61]
    spans = [
        ("main", 0, 100, -1),
        ("build", 10, 40, 0),
        ("mul", 15, 20, 1),
        ("mul", 25, 35, 1),
        ("solve", 50, 90, 0),
        ("mul", 60, 61, 4),
    ]
    assert tracer.self_times(spans) == [30, 15, 5, 10, 39, 1]
    totals = tracer.layer_totals(spans)
    assert totals["mul"] == {"calls": 3, "self_ns": 16}
    assert totals["main"] == {"calls": 1, "self_ns": 30}
    assert sum(t["self_ns"] for t in totals.values()) == 100


# -- install and restore --------------------------------------------------------------


def _function_attributes():
    """(owner name, attribute) -> object, for every function-valued attribute
    of every quiverqh module and of every class defined in one."""
    out = {}
    for mname, mod in tracer.package_modules().items():
        owners = [(mname, mod)] + [
            (f"{mname}.{c.__name__}", c) for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mname
        ]
        for oname, owner in owners:
            for attr, val in vars(owner).items():
                if callable(val):
                    out[(oname, attr)] = val
    return out


def test_install_and_restore_leave_functions_identical(capsys):
    before = _function_attributes()
    t = tracer.Tracer("test")
    t.install()
    try:
        during = _function_attributes()
        import quiverqh.embed
        import quiverqh.groebner
        import quiverqh.polycore

        # the defining module and the `from .groebner import buchberger` copy
        assert quiverqh.groebner.buchberger is not before[("quiverqh.groebner", "buchberger")]
        assert quiverqh.embed.buchberger is quiverqh.groebner.buchberger
        mp = quiverqh.polycore.MultiPoly
        assert mp.__mul__ is not before[("quiverqh.polycore.MultiPoly", "__mul__")]
        assert {k for k in before if during[k] is not before[k]}
        code = quiverqh.cli.main(["groebner", str(ROOT / "quivers" / "gr24.json"), "--json"])
    finally:
        t.restore()
    assert code == 0
    after = _function_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [sp[0] for sp in t.spans]
    assert names.count("cli.main") == 1 and "groebner.buchberger" in names
    root = names.index("cli.main")
    assert t.spans[root][3] == -1
    assert all(sp[3] >= 0 for i, sp in enumerate(t.spans) if i != root)
    assert len(t.observations["groebner.buchberger"]) == names.count("groebner.buchberger")

    traced = capsys.readouterr().out
    quiverqh.cli.main(["groebner", str(ROOT / "quivers" / "gr24.json"), "--json"])
    assert capsys.readouterr().out == traced


def test_dump_and_load_round_trip(tmp_path):
    t = tracer.Tracer("rid")
    t.spans.extend([("a", 0, 10, -1), ("b", 2, 3, 0)])
    path = tmp_path / "spans.json"
    t.dump(str(path))
    data = tracer.load(str(path))
    assert data["run_id"] == "rid"
    assert data["spans"] == [("a", 0, 10, -1), ("b", 2, 3, 0)]


# -- correctness gate -----------------------------------------------------------------

REPORT = json.dumps({
    "config": {"command": "cluster enumerate", "quiver": ["q.json"]},
    "count": 2, "ok": True, "variables": ["x[1]", "x[2]"],
}, sort_keys=True, indent=2) + "\n"
EXPECTED = {
    "sha256": hashlib.sha256(REPORT.encode()).hexdigest(),
    "facts": {"count": 2},
    "fingerprints": [],
    "basis_sizes": [],
}


def test_untouched_report_passes():
    assert run.check_report(EXPECTED, 0, 0, REPORT) == []


@pytest.mark.parametrize("seed", [0, 5])
def test_tampered_report_fails(seed):
    wrong_count = REPORT.replace('"count": 2', '"count": 3')
    not_ok = REPORT.replace('"ok": true', '"ok": false')
    assert run.check_report(EXPECTED, seed, 0, wrong_count)
    assert run.check_report(EXPECTED, seed, 0, not_ok)
    assert run.check_report(EXPECTED, seed, 0, "{truncated")
    assert run.check_report(EXPECTED, seed, 1, REPORT)


def test_digest_is_checked_at_seed_zero_only():
    # same facts, different bytes: caught by the digest at seed 0 only
    reordered = REPORT.replace('"x[1]",\n    "x[2]"', '"x[2]",\n    "x[1]"')
    assert run.check_report(EXPECTED, 0, 0, reordered)
    assert run.check_report(EXPECTED, 7, 0, reordered) == []


def test_fingerprint_mismatch_fails():
    expected = dict(EXPECTED, fingerprints=["aa"], basis_sizes=[3])
    assert run.check_trace(expected, 0, {"groebner.buchberger": [["aa", 3, 9]]}) == []
    assert run.check_trace(expected, 0, {"groebner.buchberger": [["ab", 3, 9]]})
    assert run.check_trace(expected, 0, {"groebner.buchberger": [["aa", 3, 9]] * 2})


def _fake_spawn(report_text):
    """A stand-in for run.spawn that 'runs' the CLI by writing report_text."""
    def spawn(job, deadline):
        if job.get("argv"):
            Path(job["report"]).write_text(report_text)
            return {"setup_s": 0.1, "exit": 0, "solve_s": 1.0, "peak_rss_mb": 30.0}
        return {"setup_s": 0.1, "exit": 0}
    return spawn


@pytest.mark.parametrize("text, failed", [
    (REPORT, 0),
    (REPORT.replace('"x[2]"', '"x[3]"'), run.MIN_INVOCATIONS),
])
def test_tampered_report_counts_as_failed_run(monkeypatch, tmp_path, text, failed):
    monkeypatch.setattr(run, "spawn", _fake_spawn(text))
    monkeypatch.setattr(run, "WORK", tmp_path)
    metrics, attempted, bad = run.measured_run("qde-fl234", 0, 0, EXPECTED, 1e12)
    assert (attempted, bad) == (run.MIN_INVOCATIONS, failed)
    assert metrics["solve_s"] == 1.0


def test_trace_overhead_uses_the_faster_run_of_each_kind(monkeypatch):
    times = {"plain0": 5.0, "traced0": 7.5, "plain1": 4.0, "traced1": 6.0}

    def solve(name, quiver, seed, expected, tag, deadline, trace=False):
        res = {"solve_s": times[tag], "problems": [], "report_bytes": 10}
        if trace:
            spans = [("cli.main", 0, int(times[tag] * 1e9), -1)]
            res["trace"] = {"spans": spans, "observations": {k: [] for k in tracer.OBSERVERS}}
        return res

    monkeypatch.setattr(run, "spawn", lambda job, deadline: {"setup_s": 0.1, "exit": 0})
    monkeypatch.setattr(run, "solve", solve)
    metrics, attempted, failed = run.traced_run("qde-fl234", 0, EXPECTED, 1e12)
    assert (attempted, failed) == (2 * run.TRACE_PAIRS, 0)
    assert metrics["trace.overhead_s"] == 2.0
    assert metrics["cli.main.self_s"] == 6.0


# -- seeded inputs --------------------------------------------------------------------


def test_relabelling_is_seeded_and_order_preserving():
    with open(BENCH / "fixtures" / "fl12345.json") as fh:
        data = json.load(fh)
    a, b = run.relabelled(data, 3), run.relabelled(data, 3)
    assert a == b
    assert a != run.relabelled(data, 4)
    old = sorted((n["id"] for n in data["nodes"]), key=run._label_key)
    new = sorted((n["id"] for n in a["nodes"]), key=run._label_key)
    mapping = dict(zip(old, new))
    assert len(set(new)) == len(new)
    # the same quiver under the mapping, whatever the list order
    as_set = lambda d: (
        {(n["id"], n["kind"], n["dim"], n.get("theta")) for n in d["nodes"]},
        {(e["src"], e["dst"], e["count"]) for e in d["edges"]},
    )
    moved = {
        "nodes": [dict(n, id=mapping[n["id"]]) for n in data["nodes"]],
        "edges": [dict(e, src=mapping[e["src"]], dst=mapping[e["dst"]]) for e in data["edges"]],
    }
    assert as_set(a) == as_set(moved)


def test_fixtures_validate():
    for name in ("fl12345", "fl1234567"):
        path = str(BENCH / "fixtures" / f"{name}.json")
        assert quiverqh.cli.main(["validate", path]) == 0
