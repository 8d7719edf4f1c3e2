import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import graphstrata
from graphstrata.cli import _COMMANDS, main
from graphstrata.stablegraph import (
    _SEARCH_BUDGET,
    StableGraph,
    dumps,
    graph_to_doc,
    split_component,
)
from meter import counting
from record_golden import check_contract, cycle, inline_graph, legged_path, loops, petals
from record_golden import run as run_cli

SPLIT_12_34 = StableGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
FIXTURES = Path(__file__).parent / "fixtures"


def write_graph(tmp_path, graph, name="graph.json"):
    path = tmp_path / name
    path.write_text(dumps(graph_to_doc(graph)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "g,n,m,line",
    [
        (2, 3, 0, "P(t)=6t-1 N=4 rank=5"),
        (1, 3, 1, "P(t)=3t N=2 rank=3"),
        (0, 3, 4, "P(t)=6t+1 N=6 rank=7"),
    ],
)
def test_numerology_lines(capsys, g, n, m, line):
    code, out, err = run(capsys, "numerology", str(g), str(n), str(m))
    assert code == 0
    assert out == line + "\n"
    assert err == ""


def test_numerology_rejects_low_power(capsys):
    code, out, err = run(capsys, "numerology", "1", "2", "1")
    assert code == 2
    assert out == ""
    assert "at least 3" in err


def test_enumerate_census(capsys):
    code, out, _ = run(capsys, "enumerate", "0", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "stable-graph-census/1"
    assert doc["total"] == 4
    assert len(doc["classes_by_nodes"]["1"]) == 3


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "1", "2")
    _, second, _ = run(capsys, "enumerate", "1", "2")
    assert first == second


def test_enumerate_rejects_bad_signature(capsys):
    code, out, err = run(capsys, "enumerate", "0", "2")
    assert code == 2 and out == "" and err != ""


def test_enumerate_respects_max_size(capsys):
    code, _, err = run(capsys, "enumerate", "2", "1", "--max-size", "3")
    assert code == 2
    assert "exceeds" in err
    code, _, _ = run(capsys, "enumerate", "2", "1", "--max-size", "4")
    assert code == 0


@pytest.mark.parametrize("value", ["3", "zero", "\u0663"])
def test_census_bound_is_not_read_from_the_environment(capsys, monkeypatch, value):
    # --max-size is the one way to set the bound on 3g-3+m.
    cases = [("enumerate", "2", "1"), ("enumerate", "0", "4")]
    monkeypatch.delenv("GS_MAX_SIZE", raising=False)
    unset = [run(capsys, *argv) for argv in cases]
    monkeypatch.setenv("GS_MAX_SIZE", value)
    assert [run(capsys, *argv) for argv in cases] == unset


def test_nonpositive_bound_rejected(capsys, fixtures_dir):
    code, _, err = run(capsys, "enumerate", "0", "4", "--max-size", "0")
    assert code == 2 and "positive" in err
    # canon reads its bounds with or without a group.
    graph = str(fixtures_dir / "loop-and-bridge.json")
    for flag in ("--max-m", "--max-group-order"):
        for group in ((), ("--group", "(1 2)")):
            code, out, err = run(capsys, "canon", graph, flag, "0", *group)
            assert (code, out) == (2, "")
            assert err == f"error: {flag} must be positive, got 0\n"
    # A bound option is a usage error on a subcommand that does not read it:
    # descent parsing keeps its fixed degree bound, numerology has none.
    m11 = "[marking]\nm = 11\nbase = x\ncover = s -> x\n"
    for argv, unread in [
        (["verify-descent", m11, "--max-m", "12"], "--max-m 12"),
        (
            ["numerology", "2", "3", "0", "--max-size", "1", "--max-group-order", "1"],
            "--max-size 1 --max-group-order 1",
        ),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {unread}" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("canon", "nofile.json", "--max-m", "0"), "--max-m"),
        (("gamma-enumerate", "2", "0", "--max-size", "0"), "--max-size"),
        (("quotient-table", "0", "4", "--group", "(1,2)", "--max-size", "0"), "--max-size"),
    ],
)
def test_bound_options_are_checked_before_any_input(capsys, monkeypatch, tmp_path, argv, flag):
    # A missing document, m = 0 and bad group text are each refused only
    # after every bound option holds.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be positive, got 0\n"


@pytest.mark.parametrize("group", [(), ("--group", "(1 2)(3 4)")])
def test_canon_holds_leg_count_to_max_m(capsys, fixtures_dir, group):
    graph = str(fixtures_dir / "loop-and-bridge.json")  # 4 legs
    code, out, err = run(capsys, "canon", graph, "--max-m", "3", *group)
    assert (code, out) == (2, "")
    assert err == "error: degree 4 exceeds bound 3\n"
    code, out, err = run(capsys, "canon", graph, "--max-m", "4", *group)
    assert (code, err) == (0, "")
    assert out == run(capsys, "canon", graph, *group)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "0", "5", "--max-m", "4"),
        ("gamma-enumerate", "0", "5", "--max-m", "4", "--group", "(1 2)"),
        ("quotient-table", "0", "5", "--max-m", "4"),
    ],
)
def test_max_m_refusals_name_the_degree(capsys, argv):
    # Every subcommand that takes --max-m refuses in check_degree's words.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: degree 5 exceeds bound 4\n")


def test_gamma_enumerate(capsys):
    code, out, _ = run(
        capsys, "gamma-enumerate", "0", "4", "--group", "(1 2),(3 4)"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 3
    assert doc["group"] == ["(1 2)", "(3 4)"]
    # omitted group means trivial group: labeled census size
    code, out, _ = run(capsys, "gamma-enumerate", "0", "4")
    assert code == 0
    assert json.loads(out)["total"] == 4


def test_check_stability_verdicts(capsys, tmp_path):
    stable = write_graph(tmp_path, SPLIT_12_34)
    code, out, _ = run(capsys, "check-stability", stable)
    assert code == 0
    assert out.endswith("STABLE\n")
    assert "genus=0 marks=4 nodes=1 dim=0" in out

    unstable = write_graph(
        tmp_path, StableGraph((0,), (), (0, 0)), "unstable.json"
    )
    code, out, _ = run(capsys, "check-stability", unstable)
    assert code == 1
    assert out.endswith("UNSTABLE\n")
    assert "violating vertices: v0" in out


def test_check_stability_inline_document(capsys):
    doc = dumps(graph_to_doc(StableGraph((1,), (), (0,))))
    code, out, _ = run(capsys, "check-stability", doc)
    assert code == 0
    assert out.endswith("STABLE\n")


def test_check_stability_of_a_long_legged_path_is_linear(capsys):
    # Its two ends have one edge and one leg each.  Reading each vertex's
    # valence with a scan of every edge and leg took 47 s on a 2-vCPU VM.
    # Those per-vertex scans are ``StableGraph.degree`` and ``legs_at``:
    # counting their calls bounds the work on any machine.
    doc = legged_path(20_000)
    start = time.perf_counter()
    with counting("stablegraph.StableGraph.degree", "stablegraph.StableGraph.legs_at") as scans:
        code, out, _ = run(capsys, "check-stability", doc)
    assert time.perf_counter() - start < 5
    assert scans == {}
    assert code == 1
    assert out.splitlines()[1:] == ["violating vertices: v0 v19999", "UNSTABLE"]


def test_check_stability_disconnected_is_input_error(capsys, tmp_path):
    path = write_graph(tmp_path, StableGraph((1, 1), (), ()), "disc.json")
    code, _, err = run(capsys, "check-stability", path)
    assert code == 2
    assert "disconnected" in err


# Exit code and stdout of check-stability on the two graph fixtures, on
# unstable graphs in and out of the stable range, and on a disconnected
# graph (exit 2).
_STABILITY_CASES = {
    "loop-and-bridge.json": (0, "genus=2 marks=4 nodes=2 dim=5\nSTABLE\n"),
    "three-vertex-chain.json": (0, "genus=0 marks=5 nodes=2 dim=0\nSTABLE\n"),
    '{"format": "stable-graph/1", "vertices": [{"genus": 0}],'
    ' "legs": [{"label": 1, "vertex": "v0"}, {"label": 2, "vertex": "v0"}]}': (
        1,
        "genus=0 marks=2 nodes=0 dim=-1\nviolating vertices: v0\n"
        "outside stable range: 2g-2+m = 0\nUNSTABLE\n",
    ),
    '{"format": "stable-graph/1", "vertices": [{"genus": 1}]}': (
        1,
        "genus=1 marks=0 nodes=0 dim=0\noutside stable range: 2g-2+m = 0\nUNSTABLE\n",
    ),
    '{"format": "stable-graph/1", "vertices": [{"genus": 0}], "edges": [["v0.h0", "v0.h1"]]}': (
        1,
        "genus=1 marks=0 nodes=1 dim=-1\nviolating vertices: v0\n"
        "outside stable range: 2g-2+m = 0\nUNSTABLE\n",
    ),
    '{"format": "stable-graph/1", "vertices": [{"genus": 0}, {"genus": 0}],'
    ' "edges": [["v0.h0", "v1.h0"]], "legs": [{"label": 1, "vertex": "v0"}]}': (
        1,
        "genus=0 marks=1 nodes=1 dim=-3\nviolating vertices: v0 v1\n"
        "outside stable range: 2g-2+m = -1\nUNSTABLE\n",
    ),
    '{"format": "stable-graph/1", "vertices": [{"genus": 0}, {"genus": 1}],'
    ' "edges": [["v0.h0", "v1.h0"]], "legs": [{"label": 1, "vertex": "v0"}]}': (
        1,
        "genus=1 marks=1 nodes=1 dim=0\nviolating vertices: v0\nUNSTABLE\n",
    ),
    '{"format":"stable-graph/1","vertices":[{"genus":1},{"genus":1}]}': (2, ""),
}


@pytest.mark.parametrize("doc", _STABILITY_CASES, ids=range(len(_STABILITY_CASES)))
def test_check_stability_walks_connectivity_once(capsys, fixtures_dir, doc):
    arg = str(fixtures_dir / doc) if doc.endswith(".json") else doc
    with counting("stablegraph._connected") as walks:
        code, out, err = run(capsys, "check-stability", arg)
    assert (code, out) == _STABILITY_CASES[doc]
    assert err == ("error: genus is undefined for disconnected graphs\n" if code == 2 else "")
    assert walks == {"stablegraph._connected": 1}


@pytest.mark.parametrize(
    "argv,message",
    [
        (("check-stability",), "genus is undefined for disconnected graphs"),
        (("canon",), "the dual graph of a curve must be connected"),
        (("split", "--vertex", "0"), "the dual graph of a curve must be connected"),
    ],
)
def test_disconnected_inline_graph_is_input_error(capsys, argv, message):
    doc = '{"format":"stable-graph/1","vertices":[{"genus":1},{"genus":1}]}'
    code, out, err = run(capsys, argv[0], doc, *argv[1:])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check-stability", "no-such-file.json")
    assert code == 2 and err != ""


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check-stability", str(path))
    assert code == 2
    assert "broken.json" in err and "line 1" in err


FOUR_LEGS = [{"label": k, "vertex": f"v{(k - 1) // 2}"} for k in range(1, 5)]


@pytest.mark.parametrize(
    "parts,message",
    [
        # Half-edge and vertex ids are ASCII digits without a sign, a
        # separator or a leading zero, so no two ids name one half-edge.
        *(
            (
                {"vertices": [{"genus": 0}] * 2, "edges": [[end, "v1.h0"]], "legs": FOUR_LEGS},
                f"edges[0]: expected 'v<i>.h<k>', got {end!r}",
            )
            for end in ("v 1.h0", "v+1.h+0", "v0.h-1", "v01.h0", "v1_0.h0")
        ),
        *(
            (
                {"vertices": [{"genus": 1}], "legs": [{"label": 1, "vertex": vertex}]},
                "legs[0]: 'vertex' must look like 'v<i>'",
            )
            for vertex in ("v00", "v\u0660")
        ),
    ],
)
def test_graph_document_ids_are_ascii_digits(capsys, parts, message):
    doc = json.dumps({"format": "stable-graph/1", **parts})
    code, out, err = run(capsys, "check-stability", doc)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: <inline>: {message}"]


def test_integer_past_the_digit_limit_names_the_document(capsys):
    # An integer too long for int() is refused by its digit count, in the
    # library's words, not with Python's set_int_max_str_digits advice.
    doc = '{"format": "stable-graph/1", "vertices": [{"genus": %s}]}' % ("1" * 5000)
    code, out, err = run(capsys, "check-stability", doc)
    assert (code, out) == (2, "")
    assert err == "error: <inline>: integer with 5000 digits out of range\n"


@pytest.mark.parametrize(
    "template,digits",
    [
        ('{"format": "stable-graph/1", "vertices": [{"genus": %s}]}', 4301),
        ('{"format": "stable-graph/1", "vertices": [{"genus": 0}],'
         ' "legs": [{"label": -%s, "vertex": "v0"}]}', 5000),
    ],
    ids=["genus", "label"],
)
def test_canon_refuses_an_integer_past_the_digit_limit(capsys, template, digits):
    code, out, err = run(capsys, "canon", template % ("1" * digits))
    assert (code, out) == (2, "")
    assert err == f"error: <inline>: integer with {digits} digits out of range\n"


def test_group_labels_are_ascii_digits(capsys):
    doc = inline_graph([0], [], [0, 0, 0])
    code, out, err = run(capsys, "canon", doc, "--group", "(\u0661 \u0662)")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: bad cycle notation: '(\u0661 \u0662)'"]


@pytest.mark.parametrize(
    "m,message",
    [
        ("1_0", "<inline>:2: m must be an integer, got '1_0'"),
        ("+2", "<inline>:2: m must be an integer, got '+2'"),
        ("\u0662", "<inline>:2: m must be an integer, got '\u0662'"),
        ("-1", "<inline>:1: m must be positive"),
        ("1" * 5000, f"<inline>:2: m must be an integer, got {'1' * 5000!r}"),
        # Not " 5": a document line is stripped around its value.
        ("+5", "<inline>:2: m must be an integer, got '+5'"),
        ("5_000", "<inline>:2: m must be an integer, got '5_000'"),
        ("\u0663", "<inline>:2: m must be an integer, got '\u0663'"),
        ("-", "<inline>:2: m must be an integer, got '-'"),
        ("", "<inline>:2: m must be an integer, got ''"),
    ],
)
def test_descent_m_is_ascii_digits(capsys, m, message):
    doc = f"[marking]\nm = {m}\nbase = x\ncover = s -> x\nfiber x = p1 p2\nsigma s = p1 p2\n"
    code, out, err = run(capsys, "verify-descent", doc)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("group", ["(1 2)", "()", "(1 2"])
@pytest.mark.parametrize("m", ["0", "-1"])
def test_descent_m_is_checked_before_the_group_line(capsys, m, group):
    # m is refused at the section header, as without a group line, before
    # the group text on line 3 is read.
    doc = f"[marking]\nm = {m}\ngroup = {group}\nbase = x\ncover = s -> x\n"
    code, out, err = run(capsys, "verify-descent", doc)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: <inline>:1: m must be positive"]


@pytest.mark.parametrize(
    "argv,name,value",
    [
        (("enumerate", "0", "0_4"), "m", "0_4"),
        (("enumerate", "0", " 4 "), "m", " 4 "),
        (("enumerate", "\u0660", "4"), "g", "\u0660"),
        (("numerology", "\u0661", "3", "1"), "g", "\u0661"),
        (("numerology", "1", "+3", "1"), "n", "+3"),
        (("numerology", "1", "3", "1" * 5000), "m", "1" * 5000),
        (("enumerate", "0", "4", "--max-size", "\u0666"), "--max-size", "\u0666"),
        (("gamma-enumerate", "0", "4", "--max-m", "1_0"), "--max-m", "1_0"),
        (("quotient-table", "0", "4", "--max-group-order", "2.4"), "--max-group-order", "2.4"),
        (("split", loops(2), "--vertex", "0x0"), "--vertex", "0x0"),
        (("enumerate", "0", "+5"), "m", "+5"),
        (("enumerate", "0", " 5"), "m", " 5"),
        (("enumerate", "0", "5_000"), "m", "5_000"),
        (("enumerate", "\u0663", "4"), "g", "\u0663"),
        (("enumerate", "0", "4", "--max-size", "-"), "--max-size", "-"),
        (("enumerate", "0", ""), "m", ""),
    ],
)
def test_integer_arguments_are_ascii_digits(capsys, argv, name, value):
    # The grammar of m in descent documents: ASCII digits after an optional
    # minus, and no more digits than int() converts.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: graphstrata {argv[0]}: argument {name}: invalid int value: {value!r}\n"


def test_integer_arguments_keep_signs_and_leading_zeros(capsys):
    assert run(capsys, "enumerate", "0", "04") == run(capsys, "enumerate", "0", "4")
    code, out, err = run(capsys, "enumerate", "-1", "4")
    assert (code, out, err) == (2, "", "error: g and m must be nonnegative\n")


@pytest.mark.parametrize(
    "field,parts",
    [
        ("genus", {"vertices": [{"genus": True}], "legs": [{"label": 1, "vertex": "v0"}]}),
        ("label", {"vertices": [{"genus": 1}], "legs": [{"label": True, "vertex": "v0"}]}),
    ],
)
def test_boolean_in_graph_document_is_input_error(capsys, field, parts):
    doc = json.dumps({"format": "stable-graph/1", **parts})
    code, out, err = run(capsys, "check-stability", doc)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and field in lines[0]


def test_deeply_nested_json_is_input_error(capsys):
    code, out, err = run(capsys, "canon", "[" * 100000 + "]" * 100000)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "nested" in lines[0]


def test_canon_identifies_presentations(capsys, tmp_path):
    a = write_graph(tmp_path, SPLIT_12_34, "a.json")
    b = write_graph(
        tmp_path, StableGraph((0, 0), ((0, 1),), (1, 1, 0, 0)), "b.json"
    )
    _, out_a, _ = run(capsys, "canon", a)
    _, out_b, _ = run(capsys, "canon", b)
    assert out_a == out_b


def test_canon_with_group_fuses_orbit(capsys, tmp_path):
    a = write_graph(
        tmp_path, StableGraph((0, 0), ((0, 1),), (0, 1, 0, 1)), "a.json"
    )
    b = write_graph(
        tmp_path, StableGraph((0, 0), ((0, 1),), (0, 1, 1, 0)), "b.json"
    )
    _, out_a, _ = run(capsys, "canon", a, "--group", "(1 2),(3 4)")
    _, out_b, _ = run(capsys, "canon", b, "--group", "(1 2),(3 4)")
    assert out_a == out_b
    _, plain_a, _ = run(capsys, "canon", a)
    _, plain_b, _ = run(capsys, "canon", b)
    assert plain_a != plain_b


def _ring(n):
    """An n-cycle of genus-1 vertices written as its own canonical form.

    Its edges are (0,1), (0,2), then (i, i+2) for i = 1..n-3, then (n-2, n-1),
    found by hand: position 0 takes both its neighbours at once, and each later
    position meets the least free one.
    """
    edges = [(0, 1), (0, 2)] + [(i, i + 2) for i in range(1, n - 2)] + [(n - 2, n - 1)]
    return inline_graph([1] * n, edges)


@pytest.mark.parametrize("n", [10, 12])
def test_canon_cycles_past_the_old_ordering_cap(capsys, n):
    # One cell of n alike vertices: n! orderings, refused when they were enumerated.
    code, out, err = run(capsys, "canon", _ring(n))
    assert (code, err) == (0, "")
    assert json.loads(out) == json.loads(_ring(n))
    assert run(capsys, "canon", cycle(n)) == (0, out, "")


def test_canon_refuses_the_petal_hub_past_the_search_budget(capsys):
    # Each search node relabels every edge once, so the budget caps the
    # relabelings at the budget over the edge count on any machine.
    start = time.perf_counter()
    with counting("stablegraph._relabeled") as calls:
        code, out, err = run(capsys, "canon", petals(9))
    assert time.perf_counter() - start < 1
    edges = len(json.loads(petals(9))["edges"])
    assert 0 < calls["stablegraph._relabeled"] <= _SEARCH_BUDGET // edges
    assert (code, out) == (2, "")
    assert err == (
        f"error: canonical form search exceeds its budget of {_SEARCH_BUDGET} edge relabelings\n"
    )


def test_canon_long_cycle_keeps_the_exit_contract(capsys):
    code, out, err = run(capsys, "canon", cycle(1500))
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


def test_split_prints_generators_without_closing_the_group(capsys):
    with counting("perm.symmetric_group_on", "perm.group_from_generators") as closures:
        code, out, _ = run(capsys, "split", loops(5), "--vertex", "0")
    assert (code, closures) == (0, {})
    doc = json.loads(out)
    assert doc["marks"] == 10 and doc["interchangeable"] == list(range(1, 11))
    assert doc["group"] == ",".join(f"({a} {a + 1})" for a in range(1, 10))


def test_split_group_is_still_the_full_symmetric_group():
    piece = split_component(StableGraph((0,), ((0, 0),) * 3, (0,)), 0)
    assert (piece.marks, piece.interchangeable) == (7, (2, 3, 4, 5, 6, 7))
    assert piece.group.order == 720 and piece.group.generators == piece.generators
    assert all(g(1) == 1 for g in piece.group)


def test_split_reports_piece(capsys, tmp_path):
    path = write_graph(tmp_path, StableGraph((1, 2), ((0, 1), (0, 1)), ()))
    code, out, _ = run(capsys, "split", path, "--vertex", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "split-component/1"
    assert (doc["genus"], doc["marks"], doc["stable"]) == (1, 2, True)
    assert doc["interchangeable"] == [1, 2]
    assert doc["graph"]["format"] == "stable-graph/1"


def test_split_unstable_piece_is_negative_verdict(capsys, tmp_path):
    graph = StableGraph((0, 0), ((0, 1),), (0, 1, 1, 1))
    path = write_graph(tmp_path, graph)
    code, out, _ = run(capsys, "split", path, "--vertex", "0")
    assert code == 1
    assert json.loads(out)["stable"] is False


def test_split_refuses_piece_above_degree_bound(capsys, tmp_path):
    # A genus-0 vertex with 4 loops splits into a piece with 8 marks; with
    # 6 loops its 12 marks exceed the bound on label permutations.
    four = write_graph(tmp_path, StableGraph((0,), ((0, 0),) * 4, ()), "four.json")
    code, out, _ = run(capsys, "split", four, "--vertex", "0")
    assert code == 0 and json.loads(out)["marks"] == 8
    six = write_graph(tmp_path, StableGraph((0,), ((0, 0),) * 6, ()), "six.json")
    code, out, err = run(capsys, "split", six, "--vertex", "0")
    assert (code, out) == (2, "")
    assert err == "error: degree 12 exceeds bound 10\n"


def test_split_requires_vertex_flag(capsys, tmp_path):
    path = write_graph(tmp_path, SPLIT_12_34)
    code, _, err = run(capsys, "split", path)
    assert code == 2


def test_verify_descent_fixture(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "verify-descent", str(fixtures_dir / "intro-example.desc")
    )
    assert code == 0
    assert "(s1, s2): gamma = (1 2)(3 4)" in out
    assert "class(p1) = [1]" in out
    assert out.endswith("VALID\n")


def test_verify_descent_negative(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "verify-descent", str(fixtures_dir / "intro-small-group.desc")
    )
    assert code == 1
    assert "NO WITNESS" in out
    assert out.endswith("INVALID\n")


def test_verify_descent_malformed_document(capsys):
    code, _, err = run(capsys, "verify-descent", "[marking]\nm = oops\n")
    assert code == 2
    assert "<inline>:2" in err


def test_equiv_descent(capsys, fixtures_dir):
    intro = str(fixtures_dir / "intro-example.desc")
    code, out, _ = run(capsys, "equiv-descent", intro, intro)
    assert code == 0
    assert out.endswith("EQUIVALENT\n")

    relabeled = (
        "[marking]\n"
        "m = 4\n"
        "group = (1 2),(3 4)\n"
        "base = x\n"
        "cover = t -> x\n"
        "fiber x = p1 p2 p3 p4\n"
        "sigma t = p3 p2 p1 p4\n"
    )
    code, out, _ = run(capsys, "equiv-descent", intro, relabeled)
    assert code == 1
    assert out == "NOT EQUIVALENT\n"


def test_equiv_descent_ignores_generator_order(capsys, fixtures_dir, tmp_path):
    intro = fixtures_dir / "intro-example.desc"
    reordered = tmp_path / "reordered.desc"
    reordered.write_text(
        intro.read_text().replace("group = (1 2),(3 4)", "group = (3 4),(1 2)")
    )
    assert "group = (3 4),(1 2)" in reordered.read_text()
    _, expected, _ = run(capsys, "equiv-descent", str(intro), str(intro))
    for pair in ((intro, reordered), (reordered, intro)):
        code, out, err = run(capsys, "equiv-descent", *map(str, pair))
        assert (code, out, err) == (0, expected, "")
        assert out.endswith("EQUIVALENT\n")


def test_equiv_descent_closes_a_shared_group_once(capsys, fixtures_dir):
    # Both documents share one table of closed groups, keyed by m and the
    # group text, so a group written alike is closed once.
    intro = str(fixtures_dir / "intro-example.desc")
    for other, expected, code in [
        ("intro-example.desc", 1, 0),
        ("intro-small-group.desc", 2, 2),
    ]:
        with counting("perm.group_from_generators") as closures:
            assert run(capsys, "equiv-descent", intro, str(fixtures_dir / other))[0] == code
        assert closures == {"perm.group_from_generators": expected}


def test_verify_morphism_fixture(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "verify-morphism",
        str(fixtures_dir / "twist-endomorphism.desc"),
    )
    assert code == 0
    assert "charts: VALID" in out
    assert "verdicts agree: yes" in out


def test_quotient_table_output(capsys):
    code, out, _ = run(
        capsys, "quotient-table", "0", "4", "--group", "(1 2),(3 4)"
    )
    assert code == 0
    assert out == (
        "g=0 m=4 group=(1 2),(3 4)\n"
        "i=0: labeled=1 gamma=1 orbits=[1]\n"
        "i=1: labeled=3 gamma=2 orbits=[1, 2]\n"
    )


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "census.json"
    code, out, _ = run(capsys, "enumerate", "0", "4", "-o", str(target))
    assert code == 0
    assert out == ""
    first = target.read_bytes()
    run(capsys, "enumerate", "0", "4", "-o", str(target))
    assert target.read_bytes() == first
    assert json.loads(first)["total"] == 4


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "1", "2"), ("gamma-enumerate", "0", "5", "--group", "(1 2 3 4 5)")],
)
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    _, printed, _ = run(capsys, *argv)
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, *argv, "-o", str(target))
    assert (code, out) == (0, "")
    assert target.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize(
    "argv", [("enumerate", "0", "4"), ("gamma-enumerate", "0", "4", "--group", "(1 2)")]
)
@pytest.mark.parametrize("where", ["missing-dir/doc.json", "."])
def test_unwritable_output_path_is_input_error(capsys, tmp_path, argv, where):
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / where))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-o", "--output"])
@pytest.mark.parametrize(
    "argv",
    [("numerology", "2", "3", "0"), ("verify-descent", str(FIXTURES / "intro-example.desc"))],
    ids=["census", "descent"],
)
def test_empty_output_path_is_input_error(capsys, argv, flag):
    # An empty path names no file; it is refused like any unopenable path,
    # not read as "no -o".
    code, out, err = run(capsys, *argv, flag, "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "not-a-command")
    assert code == 2 and err != ""


def test_no_arguments(capsys):
    code, _, err = run(capsys)
    assert code == 2 and err != ""


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "SUBCOMMAND" in out


def test_group_parse_error(capsys):
    code, _, err = run(
        capsys, "gamma-enumerate", "0", "4", "--group", "(1,2)"
    )
    assert code == 2 and "cycle" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("gamma-enumerate", "2", "0"), "m must be positive"),
        (("quotient-table", "2", "0"), "m must be positive"),
        (("canon", inline_graph([2], []), "--group", "()"), "m must be positive"),
        # m = 0 is refused before the group text is read
        (("gamma-enumerate", "2", "0", "--group", "()"), "m must be positive"),
        (("gamma-enumerate", "2", "0", "--group", "(1 2)"), "m must be positive"),
        (("quotient-table", "2", "0", "--group", "()"), "m must be positive"),
        (("quotient-table", "2", "0", "--group", "(1 2)"), "m must be positive"),
        (("canon", inline_graph([2], []), "--group", "(1 2)"), "m must be positive"),
        (("canon", inline_graph([2], []), "--group", "(1)"), "m must be positive"),
    ],
)
def test_group_commands_need_a_marked_point(capsys, argv, message):
    # A label group acts on 1..m, and no permutation has degree 0.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


# Parsing a generator builds an image list of length m, so a degree this
# large must be refused before the group text is read.
HUGE_M = str(10**12)


@pytest.mark.parametrize("command", ["gamma-enumerate", "quotient-table"])
@pytest.mark.parametrize("bound_args,bound", [((), 10), (("--max-m", "5"), 5)])
def test_hostile_degree_refused_before_parsing(capsys, command, bound_args, bound):
    code, out, err = run(capsys, command, "0", HUGE_M, "--group", "(1 2)", *bound_args)
    assert (code, out) == (2, "")
    assert err == f"error: degree {HUGE_M} exceeds bound {bound}\n"


def test_hostile_degree_in_descent_document_names_the_marking_header(
    capsys, fixtures_dir, tmp_path
):
    text = (fixtures_dir / "intro-small-group.desc").read_text()
    assert text.splitlines()[2] == "[marking]" and "\nm = 4\n" in text
    path = tmp_path / "huge.desc"
    path.write_text(text.replace("\nm = 4\n", f"\nm = {HUGE_M}\n"))
    code, out, err = run(capsys, "verify-descent", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:3: degree {HUGE_M} exceeds bound 10\n"


SPLIT_DOC = dumps(graph_to_doc(SPLIT_12_34))

# One success per subcommand, a negative verdict, a ValueError path, the
# usage errors and --help: each must print the same bytes on every call of
# main in one process as in a fresh interpreter.  COLUMNS is fixed on both
# sides because argparse wraps help and usage to the terminal width.
REUSE_CASES = {
    "enumerate": ["enumerate", "0", "4"],
    "gamma-enumerate": ["gamma-enumerate", "0", "4", "--group", "(1 2),(3 4)"],
    "check-stability": ["check-stability", SPLIT_DOC],
    "canon": ["canon", SPLIT_DOC, "--group", "(1 3)(2 4)"],
    "split": ["split", SPLIT_DOC, "--vertex", "0"],
    "verify-descent": ["verify-descent", str(FIXTURES / "intro-example.desc")],
    "equiv-descent": ["equiv-descent", str(FIXTURES / "intro-example.desc")] * 2,
    "verify-morphism": ["verify-morphism", str(FIXTURES / "twist-endomorphism.desc")],
    "quotient-table": ["quotient-table", "0", "5", "--group", "(1 2 3 4 5)"],
    "numerology": ["numerology", "2", "3", "0"],
    "negative-verdict": ["verify-descent", str(FIXTURES / "intro-small-group.desc")],
    "value-error": ["numerology", "1", "2", "1"],
    "no-arguments": [],
    "unknown-subcommand": ["not-a-command"],
    "missing-positional": ["enumerate", "0"],
    "non-integer-g": ["enumerate", "x", "4"],
    "help": ["--help"],
}


def _fresh_env():
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(graphstrata.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh_python(*args):
    return subprocess.run(
        [sys.executable, *args], env=_fresh_env(), capture_output=True, timeout=60
    )


@pytest.mark.parametrize("argv", REUSE_CASES.values(), ids=REUSE_CASES.keys())
def test_repeated_main_matches_fresh_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert second == first
    proc = _fresh_python("-m", "graphstrata", *argv)
    fresh = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    assert first == fresh


def test_parser_is_built_on_first_main_call_only():
    script = (
        "import contextlib, io\n"
        "from graphstrata import cli\n"
        "before = cli._build_parser.cache_info().currsize\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(3):\n"
        "        cli.main(['numerology', '2', '3', '0'])\n"
        "info = cli._build_parser.cache_info()\n"
        "print(before, info.misses, info.hits)\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["0", "1", "2"]


LONG_FLAGS = [
    (command, flag, "/".join(argument[1]))
    for command, (_, _, arguments) in _COMMANDS.items()
    for argument in arguments
    for flag in argument[1]
    if flag.startswith("--")
]


# One command line per subcommand that exits 0.
VALID_LINES = {
    "enumerate": ["0", "4"],
    "gamma-enumerate": ["0", "4", "--group", "(1 2)"],
    "check-stability": [SPLIT_DOC],
    "canon": [SPLIT_DOC, "--group", "(1 3)(2 4)"],
    "split": [SPLIT_DOC, "--vertex", "0"],
    "verify-descent": [str(FIXTURES / "intro-example.desc")],
    "equiv-descent": [str(FIXTURES / "intro-example.desc")] * 2,
    "verify-morphism": [str(FIXTURES / "twist-endomorphism.desc")],
    "quotient-table": ["0", "4", "--group", "(1 2)"],
    "numerology": ["2", "3", "0"],
}


@pytest.mark.parametrize("command,flag,name", LONG_FLAGS)
def test_flag_equals_double_dash_is_a_usage_error(
    capsys, monkeypatch, tmp_path, command, flag, name
):
    # argparse reads "--flag=--" as an empty list, not as a value.
    monkeypatch.chdir(tmp_path)
    argv = [command, *VALID_LINES[command]]
    assert run(capsys, *argv)[0] == 0
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    code, out, err = run(capsys, *argv, f"{flag}=--")
    assert (code, out) == (2, "")
    assert err == f"error: graphstrata {command}: argument {name}: expected one argument\n"
    assert list(tmp_path.iterdir()) == []


def test_double_dash_as_a_positional_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "0", "--", "--")
    assert (code, out) == (2, "")
    assert err == "error: graphstrata enumerate: argument m: expected one argument\n"


def test_refusals_are_one_line_whatever_argv_holds(monkeypatch, tmp_path):
    # Line breaks in an argument argparse refuses, or in a document's path.
    monkeypatch.chdir(tmp_path)
    Path("a\nb.json").write_text("{", encoding="utf-8")
    Path("c\r\nd.desc").write_text("[marking]\nm = x\n", encoding="utf-8")
    for argv, err in [
        (["enumerate", "0", "4", "a\nb"], "graphstrata: unrecognized arguments: a b"),
        (
            ["enumerate", "--max-=1\r\n2", "0", "4"],
            "graphstrata enumerate: ambiguous option: --max-=1 2 could match --max-size, --max-m",
        ),
        (["check-stability", "{}", "x\u2028y"], "graphstrata: unrecognized arguments: x y"),
        (
            ["check-stability", "a\nb.json"],
            "a b.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (["verify-descent", "c\r\nd.desc"], "c d.desc:2: m must be an integer, got 'x'"),
    ]:
        result = run_cli(argv)
        assert (result.code, result.size, result.stderr) == (2, 0, f"error: {err}\n"), argv


@pytest.mark.parametrize("command", ["", *_COMMANDS])
def test_help_keeps_the_exit_code_contract(command):
    # --help is the one exit argparse still makes: help on stdout, nothing on stderr.
    chunks = []
    result = run_cli([command, "--help"] if command else ["--help"], chunks.append)
    check_contract(result)
    assert result.code == 0
    assert "".join(chunks).startswith(f"usage: graphstrata {command}".rstrip())
