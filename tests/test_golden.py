"""Replay the pinned CLI runs of ``record_golden.py`` against ``golden_cli.json``.

Each case runs once.  Its digest and the round trip of its graph documents
are taken chunk by chunk as the output is written, so no large output is
held whole; only the cases the case-specific tests read are kept as text.
The genus-0 census and quotient-table runs are also counted per node count
as they stream, and the counts are checked against the cycle-index oracle.
The cases ``WORK_CEILINGS`` names also count calls of library functions as
they run, and each count is checked against its ceiling.
"""

import contextlib
import functools
import json
import re
from collections import Counter
from typing import NamedTuple
from unittest import mock

import pytest

from cycle_index import class_counts
from graphstrata import cli, gamma, stablegraph
from graphstrata.cli import main
from graphstrata.stablegraph import GRAPH_FORMAT, graph_from_doc, graph_to_doc
from record_golden import CASES, FIXTURES, GOLDEN_PATH, run

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
BENCH_GOLDEN_PATH = GOLDEN_PATH.parent.parent / "perfbench" / "golden.json"
GENUS_5 = "enumerate 5 0 --max-size 12"


def _census_facts(text):
    doc = json.loads(text)
    return {
        "total": doc["total"],
        "node_keys": list(doc["classes_by_nodes"]),
        "written_as_json": text == json.dumps(doc, indent=2) + "\n",
    }


# What the tests below read of a case's output besides its digest; the short
# verifier reports are kept whole.
_KEEP = {
    GENUS_5: _census_facts,
    "verify-morphism cyclic-swap-morphism": str,
    "verify-morphism class-violation-morphism": str,
}


# Work ceilings of golden cases: calls of ``stablegraph`` functions, counted
# as the case replays.  In these runs only the census calls
# ``iter_graph_isomorphisms``, to list a shape's automorphisms.  A change
# that does less work lowers them; one that must raise them says what it
# bought.
WORK_CEILINGS = {
    "enumerate 0 8": {"canonical_form": 39208, "iter_graph_isomorphisms": 23},
    GENUS_5: {"_least_order": 32857, "_relabeled": 374188, "iter_graph_isomorphisms": 0},
}


# The genus-0 runs whose class counts the cycle-index oracle gives.
GENUS_0 = sorted(
    name
    for name, args in CASES.items()
    if args[0] in ("enumerate", "gamma-enumerate", "quotient-table") and args[1] == "0"
)


class Replay(NamedTuple):
    code: int
    digest: str
    documents: int  # graph documents in the output
    unequal: list  # (document, its round trip) for each that differs
    kept: object  # what _KEEP takes of the output, for a case listed there
    node_counts: dict | None  # what _NodeCounts reads, for a case in GENUS_0
    work: Counter | None  # calls of each function WORK_CEILINGS names for the case


# A node count's key in a census document, or a quotient-table row, each
# after the newline that opens its line.
_NODE = re.compile(r'\n(?:    "(\d+)": \[|i=(\d+): labeled=(\d+) gamma=(\d+) )')
# A class opening: in both census formats a class opens on a line of its own
# at a six-space indent.
_CLASS = "\n      {\n"


class _NodeCounts:
    """Classes per node count of a census, or (labeled, gamma) per row of a
    quotient table, read from the output a chunk at a time.

    Each scan ends at the last newline read so far, which the next scan
    starts from, so every line is read whole and once.
    """

    def __init__(self):
        self.counts, self.node, self.rest = {}, None, "\n"

    def _classes(self, text, start, end):
        found = text.count(_CLASS, start, end)
        if found:
            self.counts[self.node] += found

    def __call__(self, chunk):
        text = self.rest + chunk
        end = text.rfind("\n") + 1
        self.rest = text[end - 1 :]
        start = 0
        for match in _NODE.finditer(text, 0, end):
            self._classes(text, start, match.start() + 1)
            key, row, labeled, gamma = match.groups()
            if key is None:
                self.counts[int(row)] = (int(labeled), int(gamma))
            else:
                self.node = int(key)
                self.counts[self.node] = 0
            start = match.end()
        self._classes(text, start, end)


def _round_trip(text):
    """Count the graph documents in JSON ``text``; list those a round trip changes.

    Each document is checked as the parser builds it and then dropped, so a
    census's documents are never all held at once.
    """
    count, unequal = 0, []

    def check(node):
        nonlocal count
        if node.get("format") != GRAPH_FORMAT:
            return node
        count += 1
        try:
            back = graph_to_doc(graph_from_doc(node))
        except ValueError as exc:
            back = exc
        if back != node:
            unequal.append((node, back))
        return None

    json.loads(text, object_hook=check)
    return count, unequal


def _documents_text(chunk):
    """The JSON text of the graph documents in one chunk of a JSON output, or None.

    A document written whole (``canon``, ``split``) is one chunk.  The
    census writers yield one chunk per class, whose object opens after a
    newline at a six-space indent; their other chunks hold no graph.
    """
    if chunk.startswith("{") and chunk.endswith("}\n"):
        return chunk
    start = chunk.find("\n      {")
    return chunk[start + 7 :] if start >= 0 else None


@functools.cache
def _replay(name):
    """Run one case and keep what the tests read of it, not its text."""
    documents, unequal, kept, is_json = 0, [], [], None
    tally = _NodeCounts() if name in GENUS_0 else None

    def each(chunk):
        nonlocal documents, is_json
        if is_json is None:
            is_json = chunk.startswith("{")
        text = _documents_text(chunk) if is_json else None
        if text is not None:
            try:
                count, bad = _round_trip(text)
            except ValueError as exc:  # a chunk this reading does not split into documents
                count, bad = 0, [(text[:80], exc)]
            documents += count
            unequal.extend(bad)
        if name in _KEEP:
            kept.append(chunk)
        if tally is not None:
            tally(chunk)

    work = Counter() if name in WORK_CEILINGS else None

    def counted(function):
        def wrapper(*args):
            work[function.__name__] += 1
            return function(*args)
        return wrapper

    with contextlib.ExitStack() as patches:
        for function in WORK_CEILINGS.get(name, ()):
            original = getattr(stablegraph, function)
            patches.enter_context(mock.patch.object(stablegraph, function, counted(original)))
        pinned = run(main, CASES[name], each)
    kept = _KEEP[name]("".join(kept)) if name in _KEEP else None
    counts = None if tally is None else tally.counts
    return Replay(int(pinned.split()[0]), pinned, documents, unequal, kept, counts, work)


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _replay(name).digest == GOLDEN[name]


def _over_ceilings(work, ceilings):
    return sorted(name for name, ceiling in ceilings.items() if work[name] > ceiling)


@pytest.mark.parametrize("name", sorted(WORK_CEILINGS))
def test_golden_work_stays_under_its_ceilings(name):
    assert _over_ceilings(_replay(name).work, WORK_CEILINGS[name]) == [], _replay(name).work


def test_a_doubled_work_count_breaks_its_ceiling():
    # Each ceiling is within twice the work it bounds, so a change that
    # doubles the work fails; doubling none stays within every ceiling.
    for name, ceilings in WORK_CEILINGS.items():
        work = _replay(name).work
        for function in ceilings:
            doubled = Counter(work)
            doubled[function] = max(2 * work[function], 1)
            assert _over_ceilings(doubled, ceilings) == [function]


def test_genus_5_census_class_count():
    # 4,555 is this code's count of stable graph classes of genus 5 without
    # legs, pinned with the digest above; it is not checked against a
    # published table, which is not transcribed into this repository.
    replay = _replay(GENUS_5)
    assert (replay.code, replay.kept["total"]) == (0, 4555)


def test_genus_5_census_is_written_as_json_writes_it():
    # Node counts run to 12 here, so two-digit keys must follow 9.
    facts = _replay(GENUS_5).kept
    assert facts["node_keys"] == [str(i) for i in range(13)]
    assert facts["written_as_json"]


def test_genus_0_cases_are_the_census_and_table_runs():
    assert Counter(CASES[name][0] for name in GENUS_0) == {
        "enumerate": 6, "gamma-enumerate": 7, "quotient-table": 5,
    }


@pytest.mark.parametrize("name", GENUS_0)
def test_genus_0_class_counts_match_the_cycle_index(name):
    command, _, m, *rest = CASES[name]
    group = rest[rest.index("--group") + 1] if "--group" in rest else ""
    expected = class_counts(int(m), group)
    if command == "quotient-table":
        labeled = class_counts(int(m))
        expected = {i: (labeled[i], n) for i, n in expected.items()}
    assert _replay(name).node_counts == expected


def test_legs_census_digests_match_the_benchmark():
    # perfbench/golden.json pins the same two runs as "<exit>:<16 hex digits>".
    bench = json.loads(BENCH_GOLDEN_PATH.read_text(encoding="utf-8"))["legs-census"]
    ours = [GOLDEN[name].split() for name in ("enumerate 0 8", "gamma-enumerate 0 7 (1 2),(3 4)")]
    assert [f"{code}:{sha[:16]}" for code, sha in ours] == bench[:2]


# Work ceilings over the nine big-group-fusion jobs: canonical forms, and
# graphs built through ``stablegraph._carried``.  A change that does less
# work lowers them; one that must raise them says what it bought.
FUSION_CEILINGS = {"canonical_form": 3259, "_carried": 2340}


def test_fusion_runs_match_the_benchmark(monkeypatch):
    # perfbench/golden.json pins the nine big-group-fusion jobs, most of them
    # no golden case here, and quotient-table 0 6 under S6, of order 720.
    # Each run must print those bytes and pass the benchmark's own check.
    monkeypatch.syspath_prepend(str(BENCH_GOLDEN_PATH.parents[1]))
    from perfbench import workloads

    bench = workloads.load_golden()
    jobs = workloads.jobs_for("big-group-fusion", 1)
    assert len(jobs) == 9
    jobs += workloads.jobs_for("large-group-fusion", 1)[:1]
    pinned = bench["big-group-fusion"] + bench["large-group-fusion"][:1]
    assert jobs[-1].argv == ("quotient-table", "0", "6", "--group", workloads.S6)
    work = Counter()

    def counted(name, function):
        def wrapper(*args):
            work[name] += 1
            return function(*args)
        return wrapper

    found = []
    with monkeypatch.context() as patch:  # counted over the nine jobs only
        canon = counted("canonical_form", stablegraph.canonical_form)
        for module in (stablegraph, gamma, cli):
            patch.setattr(module, "canonical_form", canon)
        patch.setattr(stablegraph, "_carried", counted("_carried", stablegraph._carried))
        for job in jobs:
            if len(found) == 9:
                patch.undo()
            chunks = []
            code, sha = run(main, list(job.argv), chunks.append).split()
            found.append((job.argv, workloads.digest(int(code), sha), job.check("".join(chunks))))
    assert found == [(job.argv, digest, None) for job, digest in zip(jobs, pinned)]
    assert work.keys() == FUSION_CEILINGS.keys()
    assert all(work[name] <= ceiling for name, ceiling in FUSION_CEILINGS.items()), work


def test_descent_mix_runs_match_the_benchmark(monkeypatch):
    # Content variant 0 of descent-mix fills every slot of its schedule
    # (kind, m, group, polarity, shape, defect site); perfbench/golden.json
    # pins its 300 documents in schedule order.  Each run must print those
    # bytes and pass the check its planted verdict gives.
    monkeypatch.syspath_prepend(str(BENCH_GOLDEN_PATH.parents[1]))
    from perfbench import descent_mix, workloads

    jobs = descent_mix.documents(0)
    pinned = workloads.load_golden()["descent-mix"]["0"].split()
    assert len(jobs) == len(pinned) == 300
    found = []
    for job in jobs:
        chunks = []
        code, sha = run(main, list(job.argv), chunks.append).split()
        found.append((workloads.digest(int(code), sha), int(code), job.check("".join(chunks))))
    assert found == [(digest, job.expected_exit, None) for job, digest in zip(jobs, pinned)]


def test_golden_graph_documents_round_trip():
    # The id grammar admits every document the pinned runs read or print.
    paths = sorted(FIXTURES.glob("*.json"))
    results = [_round_trip(path.read_text(encoding="utf-8")) for path in paths]
    results += [(r.documents, r.unequal) for r in map(_replay, sorted(CASES))]
    assert sum(count for count, _ in results) > 4555
    assert [pair for _, unequal in results for pair in unequal] == []


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
    replay = _replay(name)
    assert replay.code == 1 and replay.kept.endswith("INVALID\n")
    assert set(lines) <= set(replay.kept.splitlines())


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
