"""Seeded fuzz of the graph commands on mutated graph documents.

``check-stability``, ``canon`` (with and without ``--group``) and ``split``
must keep the exit-code contract of ``record_golden.check_contract`` on
any document.  Mutations replace any value of the JSON tree with a hostile
one, delete or duplicate entries, move legs between vertices, change
genera, and cut or splice the text.  Documents stay a few vertices and
legs large, so no mutation asks for a large group; one, a hub with four
petals, is symmetric enough that ``canon`` runs its pruned search.
"""

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from record_golden import check_contract, petals, run

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = tuple(
    json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    for name in ("loop-and-bridge.json", "three-vertex-chain.json")
) + (
    {
        "format": "stable-graph/1",
        "vertices": [{"genus": 1}],
        "edges": [],
        "legs": [{"label": 1, "vertex": "v0"}],
    },
    # Nine vertices, eight alike: canon runs the pruned search, and a
    # duplicated edge or moved leg can push it past its budget.
    json.loads(petals(4)),
)

HOSTILE_VALUES = (
    -1, 0, 1, 2, 7, 10**30, 1.5, True, None, "", "v0", "v1", "v9", "v-1",
    "v0.h0", "v0.h9", "v1.h0", "v0.h-1", "vx.h0", "v0h0", "stable-graph/2",
    [], {}, [1, 2], ["v0.h0", "v0.h0"], {"genus": 0}, {"label": 1},
)
GROUPS = ("(1 2)", "(1 2)(3 4)", "(1 3),(2 4)", "(1 2 3 4)", "(1 2),(2 3)", "(1 9)", "(1 2", "")


def _paths(node, path=()):
    """Every position in the JSON tree, as a path of keys and indices."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, path + (k,))


@st.composite
def _mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # Mostly well-formed: a leg moves, or a vertex changes genus.
            for rec in doc.get("legs", []) if isinstance(doc, dict) else []:
                if isinstance(rec, dict) and draw(st.booleans()):
                    rec["vertex"] = draw(st.sampled_from(("v0", "v1", "v2")))
            for rec in doc.get("vertices", []) if isinstance(doc, dict) else []:
                if isinstance(rec, dict) and draw(st.integers(0, 3)) == 0:
                    rec["genus"] = draw(st.integers(0, 2))
            continue
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        kind = draw(st.integers(0, 2))
        if kind == 0:
            parent[last] = copy.deepcopy(draw(st.sampled_from(HOSTILE_VALUES)))
        elif kind == 1:
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
    text = json.dumps(doc)
    if draw(st.integers(0, 3)) == 0:
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from(("", "}", "]", ",", "[", "\x00", "é")))
    return text


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=_mutated(),
    group=st.sampled_from(GROUPS),
    vertex=st.integers(-1, 3),
)
def test_mutated_graph_documents_keep_the_exit_contract(tmp_path_factory, text, group, vertex):
    path = tmp_path_factory.getbasetemp() / "graph.json"
    path.write_text(text, encoding="utf-8")
    check_contract(run(["check-stability", str(path)]))
    check_contract(run(["canon", str(path)]))
    check_contract(run(["canon", str(path), "--group", group]))
    check_contract(run(["split", str(path), "--vertex", str(vertex)]))
