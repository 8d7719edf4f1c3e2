"""Replay the pinned CLI runs of ``record_golden.py`` against ``golden_cli.json``."""

import functools
import json

import pytest

from graphstrata.cli import main
from graphstrata.stablegraph import GRAPH_FORMAT, graph_from_doc, graph_to_doc
from record_golden import CASES, FIXTURES, GOLDEN_PATH, digest, output

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
BENCH_GOLDEN_PATH = GOLDEN_PATH.parent.parent / "perfbench" / "golden.json"


@functools.cache
def _output(name):
    """One run per case, shared by the digest check and any test reading the output."""
    return output(main, CASES[name])


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert digest(*_output(name)) == GOLDEN[name]


def test_genus_5_census_class_count():
    # 4,555 is this code's count of stable graph classes of genus 5 without
    # legs, pinned with the digest above; it is not checked against a
    # published table, which is not transcribed into this repository.
    code, text = _output("enumerate 5 0 --max-size 12")
    assert (code, json.loads(text)["total"]) == (0, 4555)


def test_genus_5_census_is_written_as_json_writes_it():
    # Node counts run to 12 here, so two-digit keys must follow 9.
    _, text = _output("enumerate 5 0 --max-size 12")
    doc = json.loads(text)
    assert list(doc["classes_by_nodes"]) == [str(i) for i in range(13)]
    assert text == json.dumps(doc, indent=2) + "\n"


def test_legs_census_digests_match_the_benchmark():
    # perfbench/golden.json pins the same two runs as "<exit>:<16 hex digits>".
    bench = json.loads(BENCH_GOLDEN_PATH.read_text(encoding="utf-8"))["legs-census"]
    ours = [GOLDEN[name].split() for name in ("enumerate 0 8", "gamma-enumerate 0 7 (1 2),(3 4)")]
    assert [f"{code}:{sha[:16]}" for code, sha in ours] == bench[:2]


def _graph_docs(node):
    """Every graph document nested in a JSON value."""
    if isinstance(node, dict) and node.get("format") == GRAPH_FORMAT:
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _graph_docs(child)


def test_golden_graph_documents_round_trip():
    # The id grammar admits every document the pinned runs read or print.
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.json"))]
    texts += [text for _, text in map(_output, sorted(CASES)) if text.startswith("{")]
    docs = [doc for text in texts for doc in _graph_docs(json.loads(text))]
    assert len(docs) > 4555
    for doc in docs:
        assert graph_to_doc(graph_from_doc(doc)) == doc


@pytest.mark.parametrize(
    "name,lines",
    [
        ("verify-morphism cyclic-swap-morphism",
         ["(s*s): NO WITNESS", "classes preserved: yes", "verdicts agree: no"]),
        ("verify-morphism class-violation-morphism",
         ["class violation: p2 -> p3", "class violation: p3 -> p2", "verdicts agree: yes"]),
    ],
)
def test_failing_morphisms_render_their_verdict_lines(name, lines):
    code, text = _output(name)
    assert code == 1 and text.endswith("INVALID\n")
    assert set(lines) <= set(text.splitlines())


def test_recorder_adds_missing_cases_and_keeps_recorded_ones(tmp_path, monkeypatch):
    import record_golden

    kept, added = sorted(CASES)[:2]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({kept: "recorded earlier"}), encoding="utf-8")
    monkeypatch.setattr(record_golden, "GOLDEN_PATH", path)
    monkeypatch.setattr(record_golden, "CASES", {name: CASES[name] for name in (kept, added)})
    assert record_golden.main() == 0
    assert json.loads(path.read_text(encoding="utf-8")) == {
        kept: "recorded earlier",
        added: GOLDEN[added],
    }
