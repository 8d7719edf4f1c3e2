"""The census writers against a reference serializer that shares no code with them.

The reference builds each document as nested dicts and lists straight from
the census records and serializes it with ``json.dumps(indent=2)``, which
is what the census formats were first written by.  Graph documents come
from ``record_golden.inline_graph``, which numbers half-edges on its own.
"""

import json

import pytest

from graphstrata.gamma import (
    GammaCensus,
    enumerate_gamma_strata,
    gamma_census_chunks,
    gamma_census_to_doc,
)
from graphstrata.perm import group_from_generators, parse_generators
from graphstrata.stablegraph import (
    StableGraph,
    StratumCensus,
    census_chunks,
    census_to_doc,
)

from inputs import census
from record_golden import inline_graph


def graph_value(graph):
    return json.loads(inline_graph(graph.genera, graph.edges, graph.legs))


def by_nodes(classes_by_nodes, value):
    return {str(i): [value(c) for c in classes_by_nodes[i]] for i in sorted(classes_by_nodes)}


def reference_census(census):
    doc = {
        "format": "stable-graph-census/1",
        "g": census.g,
        "m": census.m,
        "total": sum(map(len, census.classes_by_nodes.values())),
        "classes_by_nodes": by_nodes(census.classes_by_nodes, graph_value),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_gamma_census(fused, generators):
    doc = {
        "format": "gamma-census/1",
        "g": fused.g,
        "m": fused.m,
        "group": generators,
        "total": sum(map(len, fused.classes_by_nodes.values())),
        "classes_by_nodes": by_nodes(
            fused.classes_by_nodes,
            lambda cls: {
                "representative": graph_value(cls.representative),
                "orbit_size": len(cls.orbit),
                "stabilizer_order": len(cls.stabilizer.members),
            },
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


CENSUSES = (
    [(0, m) for m in range(3, 8)] + [(1, m) for m in range(1, 6)]
    + [(2, m) for m in range(4)] + [(3, 0)]
)


@pytest.mark.parametrize("g,m", CENSUSES)
def test_census_writer_matches_the_reference(g, m):
    labeled = census(g, m)
    text = "".join(census_chunks(labeled))
    assert text == reference_census(labeled)
    assert census_to_doc(labeled) == json.loads(text)


def label_groups(m):
    """Generators, in the cycle notation the writer prints, of 1, C_m and S_m."""
    cyclic = ["(" + " ".join(map(str, range(1, m + 1))) + ")"] if m > 1 else []
    return {
        "trivial": [],
        "cyclic": cyclic,
        "symmetric": [f"({i} {i + 1})" for i in range(1, m)],
    }


@pytest.mark.parametrize("kind", ["trivial", "cyclic", "symmetric"])
@pytest.mark.parametrize("g,m", [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (2, 1)])
def test_gamma_census_writer_matches_the_reference(g, m, kind):
    generators = label_groups(m)[kind]
    group = group_from_generators(m, parse_generators(",".join(generators), m))
    fused = enumerate_gamma_strata(g, m, group, census=census(g, m))
    text = "".join(gamma_census_chunks(fused))
    assert text == reference_gamma_census(fused, generators)
    assert gamma_census_to_doc(fused) == json.loads(text)


def test_empty_lists_are_written_as_json_writes_them():
    assert '"legs": []' in "".join(census_chunks(census(2, 0)))
    assert '"edges": []' in "".join(census_chunks(census(0, 4)))
    trivial = enumerate_gamma_strata(0, 4, group_from_generators(4, ()), census=census(0, 4))
    assert '\n  "group": [],\n' in "".join(gamma_census_chunks(trivial))


@pytest.mark.parametrize(
    "classes_by_nodes",
    [
        {},
        {0: (StableGraph((0,), (), (0, 0, 0, 0)),), 1: ()},
        # node counts of two digits come after 9, in numeric order
        {i: (StableGraph((i,), (), ()),) for i in (2, 10, 9, 11)},
    ],
    ids=["no node counts", "an empty node count", "two-digit node counts"],
)
def test_hand_built_censuses(classes_by_nodes):
    # Not censuses of one (g, m); the writer renders whatever records it gets.
    labeled = StratumCensus(0, 4, classes_by_nodes)
    assert "".join(census_chunks(labeled)) == reference_census(labeled)
    group = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    fused = GammaCensus(0, 4, group, {})
    assert "".join(gamma_census_chunks(fused)) == reference_gamma_census(fused, ["(1 2)", "(3 4)"])
