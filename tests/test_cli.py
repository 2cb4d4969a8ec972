"""Command-line interface: exit codes, report determinism, subcommands.

Everything runs in-process through main(argv); stdout is captured with
capsys so byte-level determinism of --json reports can be asserted.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverqh.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    clamp_jobs,
    main,
    to_json,
)
from quiverqh.polycore import ContextError, DivisibilityError, LaurentViolationError
from quiverqh.presentation import build_ideal
from quiverqh.quiver import build_table, default_pmax

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def jrun(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out), out


# -- exit codes ---------------------------------------------------------------------


def test_validate_ok(capsys, quivers):
    code, out, _ = run(capsys, "validate", quivers.path("gr24"))
    assert code == EXIT_OK
    assert "acyclic" in out and "yes" in out


def test_validate_infeasible_fails(capsys, quivers):
    code, _, _ = run(capsys, "validate", quivers.path("a2"))
    assert code == EXIT_FAIL


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "no/such/quiver.json")
    assert code == EXIT_INPUT
    assert "input error" in err


def test_directory_as_quiver_is_one_line_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: cannot read quiver file {str(tmp_path)!r}: Is a directory\n"


def test_quiver_file_not_utf8_is_one_line_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: cannot read quiver file {str(bad)!r}: not UTF-8 at byte 0\n"


def _long_quiver(tmp_path, n, cycle):
    # nodes 0 -> 1 -> ... -> n-1 of dim 1, gauge with theta 1 but for a
    # frozen node 0 in the chain; the cycle closes back to node 0
    nodes = [{"id": str(i), "kind": "gauge", "dim": 1, "theta": 1} for i in range(n)]
    if not cycle:
        nodes[0] = {"id": "0", "kind": "frozen", "dim": 1}
    edges = [{"src": str(i), "dst": str(i + 1)} for i in range(n - 1)]
    if cycle:
        edges.append({"src": str(n - 1), "dst": "0"})
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    return str(path)


@pytest.mark.parametrize("cycle, code, acyclic",
                         [(False, EXIT_OK, "pass"), (True, EXIT_FAIL, "FAIL")],
                         ids=["chain", "cycle"])
def test_validate_a_quiver_longer_than_the_recursion_limit(capsys, tmp_path, cycle, code, acyclic):
    n = 1500
    assert n > sys.getrecursionlimit()
    got, out, err = run(capsys, "validate", _long_quiver(tmp_path, n, cycle))
    assert (got, err) == (code, "")
    assert f"  acyclic:      {acyclic}\n" in out


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [,]}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == EXIT_INPUT
    assert "line" in err


@pytest.mark.parametrize("data", [
    {"nodes": [5], "edges": []},
    {"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1}], "edges": None},
    {"nodes": [{"id": "a", "kind": "gauge", "dim": True, "theta": 1}], "edges": []},
    {"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": True}], "edges": []},
    {"nodes": [{"id": "a", "kind": "gauge", "dim": 1, "theta": 1},
               {"id": "b", "kind": "frozen", "dim": 2}],
     "edges": [{"src": "b", "dst": "a", "count": True}]},
], ids=["node-not-object", "edges-null", "dim-bool", "theta-bool", "count-bool"])
@pytest.mark.parametrize("command", ["validate", "groebner"])
def test_malformed_quiver_is_one_line_input_error(capsys, tmp_path, data, command):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, command, str(path))
    assert code == EXIT_INPUT
    assert err.startswith("input error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["groebner"], ["embed"], ["verify", "exchange"], ["verify", "qde"],
    ["cluster", "enumerate"], ["cluster", "mutate"], ["verify", "type-a"], ["validate"],
])
def test_no_gauge_node_is_one_line_input_error(capsys, tmp_path, command):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"nodes": [{"id": "a", "kind": "frozen", "dim": 1}]}))
    code, _, err = run(capsys, *command, str(path))
    assert code == EXIT_INPUT
    assert err == "input error: quiver has no gauge node\n"


@pytest.mark.parametrize("argv, message", [
    (["vgit312_minus"], "no gauge node with theta > 0 to check"),
    (["fl234", "--node", "9"], "unknown node '9'"),
], ids=["no-theta-positive-node", "unknown-node"])
def test_exchange_node_selection_is_one_line_input_error(capsys, quivers, argv, message):
    # an empty default selection would check nothing and report a pass
    name, *flags = argv
    code, out, err = run(capsys, "verify", "exchange", quivers.path(name), *flags)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("first, second", [
    ("vgit312_plus", "gr24"),  # the basis work fails on a variable of one table only
    ("gr24", "p2"),  # the basis work compares two unrelated ideals
], ids=["different-nodes", "unrelated-quivers"])
def test_vgit_on_two_different_quivers_is_one_line_input_error(capsys, quivers, first, second):
    a, b = quivers.path(first), quivers.path(second)
    code, out, err = run(capsys, "verify", "vgit", a, b)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (f"input error: {a} and {b} are not one quiver: "
                   "only the stability weights theta may differ\n")


def test_vgit_side_that_validate_rejects_is_one_line_input_error(capsys, quivers, tmp_path):
    # gr24 at theta = -1 has no outflow, so validate rejects it
    with open(quivers.path("gr24")) as fh:
        data = json.load(fh)
    data["nodes"][1]["theta"] = -1
    minus = tmp_path / "gr24_minus.json"
    minus.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "vgit", quivers.path("gr24"), str(minus))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (f"input error: {minus} fails validate: "
                   "node 1: negative stability needs outflow >= dim\n")


def test_negative_qde_box_is_input_error(capsys, quivers):
    code, out, err = run(capsys, "verify", "qde", quivers.path("p2"), "--qorder", "-1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "input error: degree box bound must be >= 0, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "qde", "p2", "--jobs", "0"], "worker count must be >= 1, got 0"),
    (["verify", "qde", "p2", "--jobs", "-3"], "worker count must be >= 1, got -3"),
    (["cluster", "enumerate", "a2", "--max-depth", "-1"],
     "mutation depth must be >= 0, got -1"),
    (["groebner", "fl234", "--budget-steps", "-5"], "budget steps must be >= 0, got -5"),
], ids=["jobs-0", "jobs-minus-3", "max-depth-minus-1", "budget-steps-minus-5"])
def test_out_of_range_count_is_one_line_input_error(capsys, quivers, argv, message):
    *command, name, flag, value = argv
    code, out, err = run(capsys, *command, quivers.path(name), flag, value)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: {message}\n"


def test_zero_budget_steps_is_a_budget(capsys, quivers):
    code, out, err = run(capsys, "groebner", quivers.path("fl234"), "--budget-steps", "0")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("budget exceeded: ")


@pytest.mark.parametrize("command, name, flags, message", [
    (["cluster", "mutate"], "a2", ["--path", "1,,2"],
     "mutation path must be comma-separated integers, got '1,,2'"),
    (["verify", "separation"], "a2", ["--path", "1,x"],
     "mutation path must be comma-separated integers, got '1,x'"),
    (["embed"], "gr24", ["--path", "1,,2"],
     "mutation path must be comma-separated integers, got '1,,2'"),
    (["verify", "separation"], "a2", ["--path", ""], "--path is required"),
    (["embed"], "gr24", ["--at", "1"], "--at needs --path"),
], ids=["mutate-empty-step", "separation-not-an-integer", "embed-empty-step",
        "separation-empty-path", "embed-at-without-path"])
def test_bad_mutation_path_is_one_line_input_error(capsys, quivers, command, name, flags,
                                                   message):
    code, out, err = run(capsys, *command, quivers.path(name), *flags)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: {message}\n"


def test_qde_box_over_the_pair_budget_exits_before_building(capsys, quivers):
    # a3_frozen has 22 coordinates: 3^22 * 22 pairs at the default box 2
    import time

    start = time.monotonic()
    code, out, err = run(capsys, "verify", "qde", quivers.path("a3_frozen"))
    assert time.monotonic() - start < 5
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == ("budget exceeded: degree box 2 has 690383311398 pairs, "
                   "over the pair budget (500000 pairs)\n")


@pytest.mark.parametrize("command", [["groebner"], ["verify", "exchange"], ["embed"]],
                         ids=["groebner", "verify-exchange", "embed"])
def test_budget_exhaustion_exit(capsys, quivers, command):
    code, _, err = run(
        capsys, *command, quivers.path("fl234"), "--pmax", "5",
        "--budget-steps", "10",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


@pytest.mark.parametrize("command,names", [
    (["present"], ["gr24"]),
    (["groebner"], ["gr24"]),
    (["verify", "exchange"], ["gr24"]),
    (["verify", "type-a"], ["gr24"]),
    (["verify", "vgit"], ["vgit312_plus", "vgit312_minus"]),
    (["embed"], ["gr24"]),
], ids=["present", "groebner", "verify-exchange", "verify-type-a", "verify-vgit", "embed"])
def test_negative_pmax_is_input_error(capsys, quivers, command, names):
    code, out, err = run(
        capsys, *command, *map(quivers.path, names), "--pmax", "-1"
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "input error: p_max must be >= 0, got -1\n"


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_type_a_on_bad_chain_is_input_error(capsys, quivers):
    code, _, err = run(capsys, "verify", "type-a", quivers.path("fl123"))
    assert code == EXIT_INPUT
    assert err == ("input error: quiver is not a type-A chain for this suite: "
                   "chain inequality fails at position 1\n")


def test_type_a_on_a_non_chain_names_the_shape(capsys, quivers):
    # two frozen nodes, so validate leaves no note to name
    code, _, err = run(capsys, "verify", "type-a", quivers.path("vgit312_plus"))
    assert code == EXIT_INPUT
    assert err == ("input error: quiver is not a type-A chain for this suite: "
                   "not a single oriented chain from its one frozen node\n")


@pytest.mark.parametrize("name, why", [
    ("a2", "not a single oriented chain from its one frozen node"),
    ("principal_rank1", "dims do not fall at position 0"),
], ids=["a2", "principal_rank1"])
def test_type_a_names_the_failing_condition(capsys, quivers, name, why):
    # validate's notes about stability and inflow say nothing of the chain
    code, out, err = run(capsys, "verify", "type-a", quivers.path(name))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: quiver is not a type-A chain for this suite: {why}\n"


@pytest.mark.parametrize("error", [ContextError, LaurentViolationError, ValueError,
                                   ZeroDivisionError, TypeError, IndexError,
                                   DivisibilityError])
def test_internal_error_exit(capsys, monkeypatch, quivers, error):
    # each is a bug, not bad input: only quiver.InputError exits 2, so the
    # first three, ValueErrors all, do not; a ZeroDivisionError or
    # DivisibilityError is an ArithmeticError, not a failed check, and an
    # exception no exit code names exits 4 with one line, not 1 with a
    # traceback
    import quiverqh.cli

    def broken(q, table):
        raise error("table mismatch")

    monkeypatch.setattr(quiverqh.cli, "zeta_substitution", broken)
    code, out, err = run(capsys, "embed", quivers.path("gr24"))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: table mismatch\n"


def test_key_error_is_an_internal_error(capsys, monkeypatch, quivers):
    # input lookups raise quiver.InputError, so a KeyError is a bug, not bad input
    import quiverqh.cli

    def broken(ns):
        raise KeyError("xi[9][1]")

    monkeypatch.setitem(quiverqh.cli._DISPATCH, "validate", broken)
    code, out, err = run(capsys, "validate", quivers.path("gr24"))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: 'xi[9][1]'\n"


# -- determinism --------------------------------------------------------------------


_json_strings = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\x00\x1f\x7f\n\t", "\u00e9\u2028\U0001f600", ""]
)
_json_trees = st.recursive(
    _json_strings | st.integers() | st.integers(-2**80, 2**80) | st.booleans() | st.none(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_json_strings, kids, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_to_json_matches_json_dumps(obj):
    assert to_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


@st.composite
def _shared_trees(draw):
    """A tree that holds a few containers in several places, at one depth
    and at different depths, as dict values and as list elements."""
    shared = draw(st.lists(_json_trees.filter(lambda t: isinstance(t, (dict, list, tuple))),
                           min_size=1, max_size=3))
    node = st.sampled_from(shared) | _json_trees
    rows = st.dictionaries(_json_strings, node, max_size=4)
    nested = st.recursive(rows, lambda kids: st.lists(kids, max_size=3)
                          | st.dictionaries(_json_strings, kids, max_size=3), max_leaves=12)
    return draw(st.lists(nested | node, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_shared_trees())
def test_to_json_matches_json_dumps_on_shared_objects(obj):
    assert to_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_to_json_encodes_shared_objects_by_depth_and_by_contents():
    d = {"1": [0, 1]}
    rows = [{"d": d, "k": 0}, {"d": d, "k": 1}, [{"deeper": d}], {"d": d}]
    assert to_json(rows) == json.dumps(rows, sort_keys=True, indent=2)
    d["1"].append(2)  # a container edited between calls is encoded anew
    d["2"] = []
    assert to_json(rows) == json.dumps(rows, sort_keys=True, indent=2)
    assert to_json({"rows": rows}) == json.dumps({"rows": rows}, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    1.5, [0.0], {"a": Fraction(1, 2)}, OrderedDict(a=1), {1: "x"}, {"a": {2: None}},
    [type("Count", (int,), {})(3)],
], ids=["float", "float-in-list", "fraction", "ordered-dict", "int-key", "nested-int-key",
        "int-subclass"])
def test_to_json_refuses_other_types(obj):
    with pytest.raises(TypeError):
        to_json(obj)


def test_groebner_report_is_byte_identical(capsys, quivers):
    _, first = jrun(capsys, "groebner", quivers.path("gr24"), "--pmax", "3")[1:]
    _, second = jrun(capsys, "groebner", quivers.path("gr24"), "--pmax", "3")[1:]
    assert first == second


def test_qde_rows_independent_of_jobs(capsys, monkeypatch, quivers):
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # two workers on any machine
    code1, rep1, _ = jrun(capsys, "verify", "qde", quivers.path("gr24"), "--qorder", "3")
    code2, rep2, _ = jrun(
        capsys, "verify", "qde", quivers.path("gr24"), "--qorder", "3", "--jobs", "2"
    )
    assert code1 == code2 == EXIT_OK
    assert (rep1["config"].pop("jobs"), rep2["config"].pop("jobs")) == (1, 2)
    assert rep1 == rep2


def test_qde_slices_split_a_degree_across_workers(capsys, monkeypatch, quivers):
    # gr24 at box 3 has 4^2 degrees with 2 shifts each: 32 pairs in slices
    # of 11, so pairs 10 and 11, which share a degree, go to two workers
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    code1, rep1, _ = jrun(capsys, "verify", "qde", quivers.path("gr24"), "--qorder", "3")
    code3, rep3, _ = jrun(
        capsys, "verify", "qde", quivers.path("gr24"), "--qorder", "3", "--jobs", "3"
    )
    assert code1 == code3 == EXIT_OK
    assert (rep1["config"].pop("jobs"), rep3["config"].pop("jobs")) == (1, 3)
    assert len(rep1["rows"]) == 32
    assert rep1["rows"][10]["d"] == rep1["rows"][11]["d"]
    assert rep1 == rep3


@pytest.mark.parametrize("requested,items,cpus,expected", [
    (1, 10, 4, 1),
    (3, 10, 4, 3),
    (8, 10, 4, 4),
    (8, 2, 4, 2),
    (8, 0, 4, 1),
    (5, 5, None, 1),
])
def test_clamp_jobs(monkeypatch, requested, items, cpus, expected):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert clamp_jobs(requested, items) == expected


@pytest.mark.parametrize("command", [
    ["present"], ["groebner"], ["verify", "exchange"], ["embed"],
], ids=["present", "groebner", "verify-exchange", "embed"])
def test_pmax_zero_is_used_and_echoed(capsys, quivers, command):
    code, rep, _ = jrun(capsys, *command, quivers.path("gr24"), "--pmax", "0")
    assert code in (EXIT_OK, EXIT_FAIL)
    assert rep["p_max"] == 0
    assert rep["config"]["pmax"] == 0


def test_qorder_zero_is_echoed(capsys, quivers):
    code, rep, _ = jrun(capsys, "verify", "qde", quivers.path("gr24"), "--qorder", "0")
    assert code == EXIT_OK
    assert rep["box"] == 0
    assert rep["config"]["qorder"] == 0


@pytest.mark.parametrize("command, name, flags, bases", [
    (["verify", "exchange"], "fl234", [], 1),
    (["verify", "exchange"], "fl234", ["--classical"], 1),
    (["embed"], "fl234", [], 1),
    # the type-A suite reads the exchange basis and adds only its zeta side
    (["embed"], "fl245", ["--type-a", "--equivariant"], 2),
    # no gauge node with theta > 0 and no type-A suite: no check reads a basis
    (["embed"], "vgit312_minus", [], 0),
], ids=["verify-exchange", "verify-exchange-classical", "embed", "embed-type-a",
        "embed-no-exchange-node"])
def test_one_basis_per_exchange_run(capsys, monkeypatch, quivers, command, name, flags, bases):
    # every gauge node with theta > 0 is checked against one shared basis
    import quiverqh.groebner

    calls = count_calls(monkeypatch, quiverqh.groebner.buchberger)
    code, rep, _ = jrun(capsys, *command, quivers.path(name), *flags)
    assert code == EXIT_OK
    rows = rep["rows"] if "rows" in rep else [
        c for c in rep["checks"] if c["check"] == "exchange-image"
    ]
    assert [r["node"] for r in rows] == (["1", "2"] if bases else [])
    assert len(calls) == bases


@pytest.mark.parametrize("command, flags", [(["verify", "type-a"], []), (["embed"], ["--type-a"])],
                         ids=["verify-type-a", "embed-type-a"])
def test_type_a_on_a_non_chain_fails_before_any_basis(capsys, monkeypatch, quivers, command,
                                                     flags):
    # fl123 fails the chain inequality; a one-step budget would trip on
    # the first basis, so exit 2 shows that none was started
    import quiverqh.groebner

    calls = count_calls(monkeypatch, quiverqh.groebner.buchberger)
    code, out, err = run(capsys, *command, quivers.path("fl123"), *flags, "--budget-steps", "1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: quiver is not a type-A chain for this suite: ")
    assert err.count("\n") == 1
    assert len(calls) == 0


@pytest.mark.parametrize("flags, message", [
    (["--type-a", "--equivariant", "--path", "1,7"], "mutation direction 7 out of range 1..2"),
    (["--path", "1", "--at", "5"], "cluster position 5 out of range 1..2"),
], ids=["direction", "position"])
def test_embed_bad_path_fails_before_any_basis(capsys, monkeypatch, quivers, flags, message):
    import quiverqh.groebner

    calls = count_calls(monkeypatch, quiverqh.groebner.buchberger)
    code, out, err = run(capsys, "embed", quivers.path("fl245"), *flags)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: {message}\n"
    assert len(calls) == 0


def count_calls(monkeypatch, func):
    """Replace every quiverqh module attribute bound to func by a counter;
    the list it returns holds each call's positional arguments."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("quiverqh"):
            for attr, val in list(vars(mod).items()):
                if val is func:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_one_kaehler_ideal_per_type_a_run(capsys, monkeypatch, quivers):
    # the zeta-side basis starts from the Kaehler basis: one spanning_ideal
    # and no full build_ideal, one buchberger for the Kaehler side and one
    # inside laurent_basis
    import quiverqh.groebner
    import quiverqh.presentation

    full = count_calls(monkeypatch, quiverqh.presentation.build_ideal)
    ideals = count_calls(monkeypatch, quiverqh.presentation.spanning_ideal)
    bases = count_calls(monkeypatch, quiverqh.groebner.buchberger)
    code, rep, _ = jrun(
        capsys, "verify", "type-a", quivers.path("fl245"), "--equivariant"
    )
    assert code == EXIT_OK and rep["ok"]
    assert (len(full), len(ideals), len(bases)) == (0, 1, 2)


def test_type_a_builds_each_delta_once(capsys, monkeypatch, quivers):
    # every delta_t(V_a, V_b) of the suite is built once per table; the
    # psi images build their own c_t through presentation.chern_poly, so
    # only the calls made from embed are counted
    import quiverqh.presentation

    func = quiverqh.presentation.node_chern_quotient
    calls = count_calls(monkeypatch, func)
    monkeypatch.setattr(quiverqh.presentation, "node_chern_quotient", func)
    code, _, _ = run(capsys, "verify", "type-a", quivers.path("fl245"), "--equivariant")
    assert code == EXIT_OK
    distinct = {(num, den, id(table)) for _, num, den, table in calls}
    assert len(calls) == len(distinct) == 15


def test_type_a_psi_images_build_each_chern_polynomial_once(capsys, monkeypatch, quivers):
    # the whole run, psi images included: the 15 deltas above and one
    # c_t(V_i) per node of the chain in the zeta table, shared by the three
    # psi images and their denominators
    import quiverqh.presentation

    calls = count_calls(monkeypatch, quiverqh.presentation.node_chern_quotient)
    code, _, _ = run(capsys, "verify", "type-a", quivers.path("fl245"), "--equivariant")
    assert code == EXIT_OK
    distinct = {(num, den, id(table)) for _, num, den, table in calls}
    assert len(calls) == len(distinct) == 18


def test_embed_eliminates_each_kaehler_variable_per_node(capsys, monkeypatch, tmp_path):
    # each check reads the column of its own node only, so the columns
    # read by one embed run grow linearly along a chain, not quadratically
    import quiverqh.embed

    n = 40
    calls = count_calls(monkeypatch, quiverqh.embed.btilde_column)
    code, rep, _ = jrun(capsys, "embed", _long_quiver(tmp_path, n, cycle=False))
    assert code == EXIT_OK and rep["ok"]
    assert len(calls) < 8 * n


def test_build_ideal_builds_no_weights(monkeypatch, quivers):
    # node relations read inflow and outflow roots from the quiver, not
    # from a full set of torus weights per (node, p)
    import quiverqh.quiver

    q = quivers("fl245")
    calls = count_calls(monkeypatch, quiverqh.quiver.weights)
    build_ideal(q, default_pmax(q), build_table(q, equivariant=True, with_q=True))
    assert len(calls) == 0


@pytest.mark.parametrize("argv, exit_code, sha", [
    pytest.param(
        ("verify", "type-a", "quivers/fl245.json", "--equivariant"), EXIT_OK,
        "e0d2b4acaa130d6830fff3cfeec6ec7a29a70b4e615ae1c35c46149562ac0c2b",
        id="type-a-fl245-eq",
    ),
    pytest.param(
        ("embed", "quivers/fl245.json", "--type-a", "--equivariant"), EXIT_OK,
        "3e2f98739e1ad3f66b7a4dda1713a0eecfebb619a0d452e1c827e6759b48987e",
        id="embed-type-a-fl245-eq",
    ),
    pytest.param(
        ("verify", "exchange", "quivers/fl245.json", "--pmax", "2", "--equivariant"),
        EXIT_FAIL,
        "3a8d52a7a26e34dcca72da97d4bcbfa7b19637431acf7063a10566f03acf534c",
        id="exchange-fl245-p2-eq",
    ),
    pytest.param(
        ("verify", "exchange", "quivers/fl245.json", "--classical", "--pmax", "1"),
        EXIT_FAIL,
        "72e59429c48e79c32066a15935a44ccf93fb0ba75811f680ab48ff4bc9414054",
        id="exchange-fl245-p1-classical",
    ),
    pytest.param(
        ("verify", "type-a", "quivers/fl234.json", "--pmax", "0", "--equivariant"),
        EXIT_FAIL,
        "536ec32232f026755609a808b93a8f68ae74dac82077ce917b863201214320c8",
        id="type-a-fl234-p0-eq",
    ),
    pytest.param(
        ("verify", "qde", "quivers/fl234.json", "--qorder", "3"), EXIT_OK,
        "d0ebd5bdae51a9cf05d3cf3174ae0571ded868ade741616b389fcc448e846ab2",
        id="qde-fl234-q3",
    ),
    pytest.param(
        ("verify", "qde", "quivers/fl234.json", "--qorder", "2", "--equivariant"),
        EXIT_OK,
        "d6729e10ae354403c4a46f32d53f824a7dd3d54f377e1c810444fc8033ba6d00",
        id="qde-fl234-q2-eq",
    ),
    pytest.param(
        ("verify", "vgit", "quivers/vgit312_plus.json", "quivers/vgit312_minus.json"),
        EXIT_OK,
        "f91eb81ba64db3926ef0cf8db0d5ea1ab8079c7ba08c69b86717096411836028",
        id="vgit312",
    ),
    pytest.param(
        ("verify", "vgit", "quivers/vgit312_plus.json", "quivers/vgit312_minus.json",
         "--equivariant"),
        EXIT_OK,
        "1b3d521830148fafad5033856472ff8fabf06d47bce697320fb659ad5116ee30",
        id="vgit312-eq",
    ),
])
def test_type_a_report_golden(capsys, monkeypatch, argv, exit_code, sha):
    monkeypatch.chdir(REPO_ROOT)
    code, _, raw = jrun(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(raw.encode()).hexdigest() == sha


def test_qde_text_report_golden(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run(capsys, "verify", "qde", "quivers/gr24.json", "--qorder", "3")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0d51eeba0ebcf8d559a42c194f6f4fc3f9a6b7280a3a4e4d382e1a099ed50211"
    )


@pytest.mark.parametrize("argv, sha", [
    pytest.param(
        ("embed", "quivers/fl234.json", "--type-a"),
        "521741b6893f21a3f4617b13b558eb1b85fbe08323f7fdfd0afa03663d0ee1f4",
        id="embed-type-a-fl234",
    ),
    pytest.param(
        ("embed", "quivers/fl234.json", "--path", "1,2", "--equivariant"),
        "ab2b076ab7bbb195f179d2cd4f9b81e581ff804afd473ad7ae3dd05632b64a7b",
        id="embed-path-fl234-eq",
    ),
    pytest.param(
        ("embed", "quivers/gr24.json", "--path", "1", "--json"),
        "4d75514aecd4c9133d9042eb80558af3f5e51d1e3cd3aa41c04c4338c30dca54",
        id="embed-path-gr24-json",
    ),
    pytest.param(
        ("cluster", "enumerate", "quivers/a3_frozen.json", "--max-depth", "8", "--json"),
        "ca9b3ee6c26b00fa8f2f42bfaa55ccc9d77812179a910c624f7ff26c8233e615",
        id="enumerate-a3-frozen-json",
    ),
    pytest.param(
        ("validate", "quivers/fl234.json", "--json"),
        "69739fcb29dfc1a1f4266ab67646051933fbb48e9bbfdb48f0734175a065fc81",
        id="validate-fl234-json",
    ),
    pytest.param(
        ("cluster", "mutate", "quivers/a3_frozen.json", "--path", "1,3,2", "--json"),
        "dbd2ecba886203ea3778e8e63297d6f9af3bed422405558993f2c61d366164c5",
        id="mutate-a3-frozen-json",
    ),
    pytest.param(
        ("verify", "separation", "quivers/a2.json", "--path", "1,2", "--json"),
        "955c1f8633a292d3bbdaf7d9afb44de0a87dfd7ba726d09bf72f2b274419e3b7",
        id="separation-a2-json",
    ),
    pytest.param(
        ("groebner", "quivers/fl234.json", "--order", "lex", "--json"),
        "d4ebc4afa513e291df0cdb8fce7dcb418adfbf9bd12bfdbcb1b7683aedff58c4",
        id="groebner-fl234-lex-json",
    ),
    pytest.param(
        ("groebner", "quivers/fl234.json", "--equivariant", "--json"),
        "221763a09a01a6541137abcd361bd5c05f2437fdc12901cdb1b61e52b7ec1566",
        id="groebner-fl234-eq-json",
    ),
    pytest.param(
        ("groebner", "perfbench/fixtures/fl12345.json", "--json"),
        "6cece4298ab7bfdd28896d0fb77136aacf0ff95fa05ee430e3fb366124eae792",
        id="groebner-fl12345-json",
    ),
    pytest.param(
        ("verify", "exchange", "perfbench/fixtures/fl12345.json", "--json"),
        "84884088414a090ab63031095d3c249eb2112341b5a5c51a44e435950220bd3a",
        id="exchange-fl12345-json",
    ),
    pytest.param(
        ("present", "quivers/fl234.json", "--equivariant", "--json"),
        "0d5437c193ea2cdc2330206a28f17ed3a028f37e7478fc630d0724b4821b182a",
        id="present-fl234-eq-json",
    ),
])
def test_embed_and_enumerate_report_golden(capsys, monkeypatch, argv, sha):
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("args, sha", [
    pytest.param(
        ("quivers/a2.json",),
        "030c3d97c75cc40016ecdf21050978992789be5249ef3dbc30119d85c9d8c15a",
        id="a2",
    ),
    pytest.param(
        ("quivers/a2.json", "--principal"),
        "3b1b1766e7d4c58fa9e64989618f05d1e93dfbe88ce252fd4dd238242db2115d",
        id="a2-principal",
    ),
    pytest.param(
        ("quivers/a3_frozen.json", "--max-depth", "8"),
        "ccaa0c26152a44bcb4d92d77042c3d93363a483c2563f9dacb2e09d1decda42a",
        id="a3-frozen",
    ),
])
def test_cluster_census_script_golden(args, sha):
    out = subprocess.run(
        [sys.executable, os.path.join("scripts", "cluster_census.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
    )
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == sha


def cli_import_loads(module: str) -> bool:
    """Whether `import quiverqh.cli` in a fresh interpreter loads module."""
    probe = f"import sys, quiverqh.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_process_pool_unloaded():
    # only `verify qde --jobs N` with N > 1 needs multiprocessing
    assert not cli_import_loads("multiprocessing")


def test_cli_import_leaves_dataclasses_unloaded():
    # records are NamedTuples or slotted classes: importing dataclasses
    # (and the inspect, ast and dis it loads) would cost every run
    assert not cli_import_loads("dataclasses")


def test_json_schema_and_config_echo(capsys, quivers):
    code, rep, raw = jrun(capsys, "present", quivers.path("gr24"), "--pmax", "3")
    assert code == EXIT_OK
    assert rep["schema"] == 1
    assert rep["config"]["command"] == "present"
    assert rep["config"]["pmax"] == 3
    # canonical serialization: keys sorted, two-space indent
    assert raw == json.dumps(rep, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv, config", [
    (["validate", "gr24"], {"command": "validate", "jobs": 1}),
    (["present", "gr24", "--pmax", "0"], {"command": "present", "pmax": 0, "jobs": 1}),
    (["present", "gr24", "--equivariant"],
     {"command": "present", "equivariant": True, "jobs": 1}),
    (["groebner", "gr24"], {"command": "groebner", "order": "grevlex", "jobs": 1}),
    (["groebner", "gr24", "--order", "lex", "--pmax", "2", "--budget-steps", "100000"],
     {"command": "groebner", "order": "lex", "pmax": 2, "budget_steps": 100000,
      "jobs": 1}),
    (["verify", "exchange", "gr24"], {"command": "verify exchange", "jobs": 1}),
    (["verify", "exchange", "fl234", "--node", "2", "--node", "1", "--node", "2",
      "--classical", "--equivariant"],
     {"command": "verify exchange", "node": ["2", "1", "2"], "classical": True,
      "equivariant": True, "jobs": 1}),
    (["verify", "type-a", "gr24", "--pmax", "3"],
     {"command": "verify type-a", "pmax": 3, "jobs": 1}),
    (["verify", "vgit", "vgit312_plus", "vgit312_minus"],
     {"command": "verify vgit", "jobs": 1}),
    (["verify", "qde", "gr24"], {"command": "verify qde", "qorder": 2, "jobs": 1}),
    (["verify", "qde", "gr24", "--qorder", "0", "--jobs", "2"],
     {"command": "verify qde", "qorder": 0, "jobs": 2}),
    (["verify", "separation", "a2", "--path", "1,2", "--at", "1"],
     {"command": "verify separation", "path": "1,2", "at": 1, "jobs": 1}),
    (["cluster", "mutate", "a2"], {"command": "cluster mutate", "path": "", "jobs": 1}),
    (["cluster", "enumerate", "a2"],
     {"command": "cluster enumerate", "max_depth": 6, "jobs": 1}),
    (["embed", "gr24"], {"command": "embed", "jobs": 1}),
    (["embed", "gr24", "--type-a", "--path", "1"],
     {"command": "embed", "type_a": True, "path": "1", "jobs": 1}),
], ids=lambda v: "-".join(v) if isinstance(v, list) else "")
def test_config_echo(capsys, monkeypatch, quivers, argv, config):
    # every flag with a value other than None, False or [] is echoed, 0 and
    # "" included; quiver paths as a list; jobs 1 without a --jobs flag
    monkeypatch.setattr("os.cpu_count", lambda: 1)  # never start workers
    names = [a for a in argv if os.path.exists(quivers.path(a))]
    argv = [quivers.path(a) if a in names else a for a in argv]
    code, rep, _ = jrun(capsys, *argv)
    assert code in (EXIT_OK, EXIT_FAIL)
    assert rep["config"] == {**config, "quiver": [quivers.path(n) for n in names]}


# -- subcommand smoke ---------------------------------------------------------------


def test_present_lists_generators(capsys, quivers):
    code, out, _ = run(capsys, "present", quivers.path("p2"), "--pmax", "4")
    assert code == EXIT_OK
    assert "xi[1][1]^3 - Q[1]" in out


def test_groebner_prints_fingerprint(capsys, quivers):
    code, rep, _ = jrun(capsys, "groebner", quivers.path("gr24"), "--pmax", "3")
    assert code == EXIT_OK
    assert rep["fingerprint"]
    assert rep["basis"]


def test_verify_exchange(capsys, quivers):
    code, rep, _ = jrun(capsys, "verify", "exchange", quivers.path("gr24"), "--pmax", "3")
    assert code == EXIT_OK
    assert all(r["ok"] for r in rep["rows"])


def test_verify_exchange_classical(capsys, quivers):
    code, _, _ = run(
        capsys, "verify", "exchange", quivers.path("gr24"), "--pmax", "3", "--classical"
    )
    assert code == EXIT_OK


def test_verify_type_a(capsys, quivers):
    code, rep, _ = jrun(capsys, "verify", "type-a", quivers.path("fl234"))
    assert code == EXIT_OK
    assert len(rep["rows"]) == 12


def test_verify_vgit(capsys, quivers):
    code, _, _ = run(
        capsys, "verify", "vgit",
        quivers.path("vgit312_plus"), quivers.path("vgit312_minus"),
        "--pmax", "3",
    )
    assert code == EXIT_OK


def test_verify_separation(capsys, quivers):
    code, rep, _ = jrun(
        capsys, "verify", "separation", quivers.path("a2"), "--path", "1,2"
    )
    assert code == EXIT_OK
    assert rep["separation"] and rep["constant_term_one"]
    assert rep["f_polynomial"] == "y[1]*y[2] + y[1] + 1"


def test_cluster_enumerate(capsys, quivers):
    code, rep, _ = jrun(
        capsys, "cluster", "enumerate", quivers.path("a2"), "--max-depth", "5"
    )
    assert code == EXIT_OK
    assert len(rep["variables"]) == 5


def test_cluster_mutate(capsys, quivers):
    code, rep, _ = jrun(
        capsys, "cluster", "mutate", quivers.path("a2"), "--path", "1,2"
    )
    assert code == EXIT_OK
    assert rep["cluster"]


def test_embed_report(capsys, quivers):
    code, out, _ = run(capsys, "embed", quivers.path("gr24"), "--pmax", "3")
    assert code == EXIT_OK
    assert "zeta" in out


def test_embed_with_path(capsys, quivers):
    code, out, _ = run(
        capsys, "embed", quivers.path("gr24"), "--pmax", "3",
        "--path", "1", "--at", "1",
    )
    assert code == EXIT_OK
    assert "zeta[0]" in out


@pytest.mark.parametrize("command,name,rank", [
    (("verify", "separation"), "a2", 2),
    (("embed",), "gr24", 1),
], ids=["separation", "embed"])
@pytest.mark.parametrize("where", ["zero", "negative", "past-rank"])
def test_out_of_range_position_is_one_line_input_error(
    capsys, quivers, command, name, rank, where
):
    at = {"zero": 0, "negative": -1, "past-rank": rank + 1}[where]
    code, out, err = run(
        capsys, *command, quivers.path(name), "--path", "1", "--at", str(at)
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"input error: cluster position {at} out of range 1..{rank}\n"
