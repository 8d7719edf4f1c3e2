"""Refusals of malformed library input: the exception type and its message.

Each case reaches one check that no other test exercises, in the descent
records and checks, the graph document reader, the permutation layer and
the group-marked layer.  The messages are those the library gave when
these cases were written; the graph-document messages are the same under
the reader's strict id grammar.  The malformed descent documents of
``record_refusals.py`` are replayed whole: exit code, stdout and stderr.
"""

import json
import re

import pytest

from graphstrata.cli import main
from graphstrata.descent import (
    ChartedMarking,
    FiberMorphism,
    FiniteCover,
    dominates,
    verify_morphism,
)
from graphstrata.gamma import enumerate_gamma_strata, gamma_equivalent
from graphstrata.perm import Permutation, group_from_generators, symmetric_group
from graphstrata.stablegraph import StableGraph, enumerate_stable_graphs, graph_from_doc
from graphstrata.strata import build_quotient_table
from record_refusals import REFUSALS_PATH, cases
from record_refusals import run as run_recorded

POINTS = ("p1", "p2", "p3", "p4")


def marking(base=("x",), cover=None, m=4, fibers=None, group=None):
    """One chart per cover point, each listing the fiber over its image in order."""
    cover = cover or {f"s{i}": b for i, b in enumerate(base)}
    fibers = fibers or {b: tuple(f"{b}{p}" for p in POINTS[:m]) for b in base}
    return ChartedMarking(
        cover=FiniteCover(tuple(base), tuple(cover), dict(cover)),
        m=m,
        group=group or group_from_generators(m, ()),
        fiber_points=fibers,
        sigma={c: fibers[b] for c, b in cover.items()},
    )


def raw_marking(**fields):
    """A marking over base x, one cover point s, with ``fields`` replaced."""
    args = dict(
        cover=FiniteCover(("x",), ("s",), {"s": "x"}),
        m=4,
        group=group_from_generators(4, ()),
        fiber_points={"x": POINTS},
        sigma={"s": POINTS},
    )
    args.update(fields)
    return ChartedMarking(**args)


def morphism(base_map, fiber_maps):
    return verify_morphism(FiberMorphism(base_map, fiber_maps), marking(), marking())


XY = dict(base=("x", "y"), cover={"a": "x", "b": "y"})
XY_COARSE = dict(base=("x", "y"), cover={"c": "x", "d": "y"})
IDENTITY_X = {"x": {f"x{p}": f"x{p}" for p in POINTS}}

DESCENT_CASES = {
    "repeated cover point": (
        lambda: FiniteCover(("x",), ("a", "a"), {"a": "x"}),
        "cover points must be distinct",
    ),
    "cover point without an image": (
        lambda: FiniteCover(("x",), ("a", "b"), {"a": "x"}),
        "cover point b has no image",
    ),
    "down-map keys": (
        lambda: FiniteCover(("x",), ("a",), {"a": "x", "b": "x"}),
        "down map keys must be exactly the cover points",
    ),
    "m not positive": (
        lambda: raw_marking(m=0),
        "m must be positive",
    ),
    "group degree": (
        lambda: raw_marking(group=group_from_generators(3, ())),
        "degree 3 does not match m = 4",
    ),
    "fiber_points keys": (
        lambda: raw_marking(fiber_points={"y": POINTS}),
        "fiber_points must cover exactly the base points",
    ),
    "repeated fiber point": (
        lambda: raw_marking(fiber_points={"x": ("p1", "p1", "p3", "p4")}),
        "fiber over x repeats a point",
    ),
    "same setting: bases": (
        lambda: dominates(marking(), marking(base=("y",)), {"s0": "s0"}),
        "markings live over different bases",
    ),
    "same setting: m": (
        lambda: dominates(marking(), marking(m=3), {"s0": "s0"}),
        "markings have different m",
    ),
    "same setting: fibers": (
        lambda: dominates(marking(), marking(fibers={"x": ("q1", "q2", "q3", "q4")}), {"s0": "s0"}),
        "markings disagree on the fiber over x",
    ),
    "dominates: not surjective": (
        lambda: dominates(marking(), marking(cover={"s0": "x", "t": "x"}), {"s0": "s0"}),
        "down map must surject onto the coarse cover",
    ),
    "dominates: not commuting": (
        lambda: dominates(marking(**XY), marking(**XY_COARSE), {"a": "d", "b": "c"}),
        "down map does not commute over a",
    ),
    "verify_morphism: m": (
        lambda: verify_morphism(FiberMorphism({}, {}), marking(), marking(m=3)),
        "markings have different m",
    ),
    "verify_morphism: base map outside the target": (
        lambda: morphism({"x": "z"}, IDENTITY_X),
        "base map sends x outside the target base",
    ),
    "verify_morphism: fiber maps on the base": (
        lambda: morphism({"x": "x"}, {}),
        "fiber maps must be defined on exactly the source base",
    ),
    "verify_morphism: fiber map on its fiber": (
        lambda: morphism({"x": "x"}, {"x": {"xp1": "xp1"}}),
        "fiber map over x must be defined on its fiber",
    ),
}

GRAPH_DOC = {"format": "stable-graph/1", "vertices": [{"genus": 0}, {"genus": 0}]}
LEGS = [{"label": k, "vertex": f"v{(k - 1) // 2}"} for k in range(1, 5)]


def edge_doc(end):
    return graph_from_doc({**GRAPH_DOC, "edges": [[end, "v1.h0"]], "legs": LEGS})


GRAPH_DOC_CASES = {
    "not an object": (lambda: graph_from_doc([]), "graph document must be a JSON object"),
    "edges not a list": (
        lambda: graph_from_doc({**GRAPH_DOC, "edges": {}}),
        "edges: expected a list",
    ),
    "legs not a list": (
        lambda: graph_from_doc({**GRAPH_DOC, "legs": "v0"}),
        "legs: expected a list",
    ),
    "half-edge not a string": (lambda: edge_doc(0), "edges[0]: expected 'v<i>.h<k>', got 0"),
    "half-edge without a dot": (
        lambda: edge_doc("v0h0"),
        "edges[0]: expected 'v<i>.h<k>', got 'v0h0'",
    ),
    "half-edge with a wrong prefix": (
        lambda: edge_doc("w0.h0"),
        "edges[0]: expected 'v<i>.h<k>', got 'w0.h0'",
    ),
    "half-edge with a non-numeric index": (
        lambda: edge_doc("v0.hx"),
        "edges[0]: expected 'v<i>.h<k>', got 'v0.hx'",
    ),
    "half-edge index past int()'s digit limit": (
        lambda: edge_doc("v0.h" + "1" * 5000),
        f"edges[0]: expected 'v<i>.h<k>', got {'v0.h' + '1' * 5000!r}",
    ),
    "half-edge on a missing vertex": (
        lambda: edge_doc("v7.h0"),
        "edges[0]: vertex v7 does not exist",
    ),
    "non-numeric leg vertex": (
        lambda: graph_from_doc({**GRAPH_DOC, "legs": [{"label": 1, "vertex": "vx"}]}),
        "legs[0]: 'vertex' must look like 'v<i>'",
    ),
    "leg vertex past int()'s digit limit": (
        lambda: graph_from_doc({**GRAPH_DOC, "legs": [{"label": 1, "vertex": "v" + "1" * 5000}]}),
        "legs[0]: 'vertex' must look like 'v<i>'",
    ),
}

PERM_CASES = {
    "label outside the degree": (lambda: Permutation((2, 1))(3), "label 3 outside 1..2"),
    "label a bool": (lambda: Permutation((2, 1))(True), "label True outside 1..2"),
    "label a string": (lambda: Permutation((2, 1))("1"), "label '1' outside 1..2"),
    "label a float": (lambda: Permutation((2, 1))(1.0), "label 1.0 outside 1..2"),
    "composition degrees": (
        lambda: Permutation((2, 1)) * Permutation((1, 2, 3)),
        "degree 3 does not match m = 2",
    ),
    "generator degree": (
        lambda: group_from_generators(3, [Permutation((2, 1))]),
        "degree 2 does not match m = 3",
    ),
}

TRIPOD = StableGraph((0,), (), (0, 0, 0))
GAMMA_CASES = {
    "marks differ": (
        lambda: gamma_equivalent(TRIPOD, StableGraph((0,), (), (0,) * 4), symmetric_group(3)),
        "marks differ: 3 vs 4",
    ),
    "census group degree": (
        lambda: enumerate_gamma_strata(0, 4, symmetric_group(3)),
        "degree 3 does not match m = 4",
    ),
    "census of another genus": (
        lambda: enumerate_gamma_strata(1, 4, symmetric_group(4), census=enumerate_stable_graphs(0, 4)),
        "census is for (g, m) = (0, 4), not (1, 4)",
    ),
    "quotient table of another census": (
        lambda: build_quotient_table(0, 5, symmetric_group(5), census=enumerate_stable_graphs(0, 4)),
        "census is for (g, m) = (0, 4), not (0, 5)",
    ),
}

CASES = {**DESCENT_CASES, **GRAPH_DOC_CASES, **PERM_CASES, **GAMMA_CASES}


@pytest.mark.parametrize("name", CASES)
def test_refusal_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call()
    assert type(err.value) is ValueError


# A cycle label too long for int() is refused in the reader's words, on the
# command line and on a marking document's group line, with exit code 2.
LONG_LABEL = "9" * 5000


def test_oversized_cycle_label_on_the_command_line(capsys):
    assert main(["quotient-table", "0", "4", "--group", f"(1 {LONG_LABEL})"]) == 2
    assert capsys.readouterr() == ("", "error: label with 5000 digits outside 1..4\n")


def test_oversized_cycle_label_in_a_marking_document(capsys, tmp_path):
    path = tmp_path / "long-label.desc"
    path.write_text(
        "[marking]\nm = 4\n"
        f"group = (1 {LONG_LABEL})\n"
        "base = x\ncover = s -> x\nfiber x = p1 p2 p3 p4\nsigma s = p1 p2 p3 p4\n",
        encoding="utf-8",
    )
    assert main(["verify-descent", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:3: label with 5000 digits outside 1..4\n")


def test_malformed_descent_documents_keep_their_refusals():
    # Each document's refusal, line and message included, as recorded.
    recorded = json.loads(REFUSALS_PATH.read_text(encoding="utf-8"))
    corpus = cases()
    assert len(corpus) == len(recorded) == 302
    assert {name: run_recorded(main, args) for name, args in corpus.items()} == recorded
