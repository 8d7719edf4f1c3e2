"""Replay the pinned CLI runs of ``record_golden.py`` against ``golden_cli.json``.

Each case runs once, through ``record_golden.run``, and must keep the
exit-code contract.  Its digest, the round trip of its graph documents
and, for a census, its classes per node count are taken as the output is
written, whatever chunks it is written in, so no census output is held
whole; an output that is not JSON is short and kept whole.  The genus-0
census and quotient-table counts are checked against the cycle-index
oracle.  The cases ``WORK_CEILINGS`` names also count calls of library
functions through ``meter.counting`` as they run, and each count is
checked against its ceiling.
"""

import functools
import importlib
import json
import re
import sys
from collections import Counter
from typing import NamedTuple
from unittest import mock

import pytest

from cycle_index import class_counts
from graphstrata.stablegraph import GRAPH_FORMAT, graph_from_doc, graph_to_doc
from meter import counting
from record_golden import CASES, FIXTURES, GOLDEN_PATH, Result, check_contract, pin, resolve, run

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


# What the tests below read of a census output besides its digest.
_KEEP = {GENUS_5: _census_facts}


# The library functions whose calls the work ceilings bound, as the meter
# names them.
CANON = "stablegraph.canonical_form"
SEARCHES = "stablegraph._least_order"  # canonical searches
RELABELINGS = "stablegraph._relabeled"  # one per edge list a search node orders
LISTINGS = "stablegraph.iter_graph_isomorphisms"  # the census's automorphism listings
CARRIED = "stablegraph._carried"  # graphs built past their checks
MATCHES = "descent._PairWitnesses.get"  # chart matches
CLOSURES = "perm.group_from_generators"

# The fusion work that ``test_fusion_runs_match_the_benchmark`` counts: over
# the nine big-group-fusion jobs, and over the large-group-fusion job
# ``quotient-table 0 6`` under S6.
BENCH_FUSION = "big-group-fusion: nine jobs"
BENCH_S6 = "large-group-fusion: quotient-table 0 6 S6"


def _ceilings(targets, rows):
    return {name: dict(zip(targets, row, strict=True)) for name, row in rows.items()}


# Work ceilings: calls of each target, counted through every binding while a
# golden case replays or the benchmark's fusion jobs run.  Each was the count
# when it was set.  A change that does less work lowers them; one that must
# raise them says what it bought.
WORK_CEILINGS = {
    # A census canonicalizes each class once, so its canonical forms are its
    # class count.  Only a census lists automorphisms here.
    **_ceilings((CANON, SEARCHES, RELABELINGS, LISTINGS), {
        "enumerate 0 3": (1, 0, 0, 0),
        "enumerate 0 4": (4, 1, 3, 1),
        "enumerate 0 5": (26, 2, 11, 1),
        "enumerate 0 6": (236, 9, 129, 4),
        "enumerate 0 7": (2752, 26, 2033, 8),
        "enumerate 0 8": (39208, 403, 34775, 23),
        "enumerate 1 1": (2, 1, 1, 0),
        "enumerate 1 2": (5, 5, 7, 1),
        "enumerate 1 3": (23, 16, 21, 1),
        "enumerate 1 4": (163, 67, 243, 12),
        "enumerate 1 5": (1576, 334, 2149, 36),
        "enumerate 2 0": (7, 12, 26, 0),
        "enumerate 2 1": (16, 32, 68, 0),
        "enumerate 2 2": (75, 166, 545, 16),
        "enumerate 2 3": (555, 768, 3089, 76),
        "enumerate 3 0": (42, 127, 616, 0),
        "enumerate 3 1": (0, 0, 0, 0),  # refused over the default bound
        "enumerate 3 1 --max-size 7": (181, 726, 2859, 0),
        "enumerate 3 2 --max-size 8": (1355, 4685, 24398, 385),
        "enumerate 4 0 --max-size 9": (379, 1908, 16367, 0),
        GENUS_5: (4555, 32857, 374188, 0),
    }),
    # Fusion canonicalizes every labeled class under every member of Γ.
    **_ceilings((CANON, CARRIED), {
        "gamma-enumerate 0 4 (1 2)(3 4),(1 3)(2 4)": (36, 14),
        "gamma-enumerate 0 5 (1 2 3 4 5)": (186, 149),
        "gamma-enumerate 0 5 (1 2),(2 3),(4 5)": (422, 310),
        "gamma-enumerate 0 5 S5": (3506, 3073),
        "gamma-enumerate 0 6 C6": (1940, 1716),
        "gamma-enumerate 0 6 S3xS3": (9560, 8693),
        "gamma-enumerate 0 7 (1 2),(3 4)": (17576, 14037),
        "gamma-enumerate 1 3 trivial": (69, 14),
        "gamma-enumerate 1 4 S4": (4795, 3997),
        "gamma-enumerate 2 2 S2": (345, 89),
        "quotient-table 0 4 (1 2)(3 4),(1 3)(2 4)": (36, 14),
        "quotient-table 0 5 (1 2 3 4 5)": (186, 149),
        "quotient-table 0 5 (1 2),(2 3),(4 5)": (422, 310),
        "quotient-table 0 5 S5": (3506, 3073),
        "quotient-table 0 7 C7": (24774, 23511),
        "quotient-table 1 3 trivial": (69, 14),
        BENCH_FUSION: (3259, 2340),
    }),
    # ``canon --group`` takes one canonical form per member of Γ.
    **_ceilings((CANON,), {
        "canon loop-and-bridge (1 2)(3 4)": (2,),
        "canon three-vertex-chain S5": (120,),
        "canon three-vertex-chain C5": (5,),
    }),
    BENCH_S6: {CANON: 175196},
    # A descent document closes each group text once.
    **_ceilings((MATCHES, CLOSURES), {
        "verify-descent intro-example": (6, 1),
        "verify-descent intro-small-group": (6, 1),
        "verify-descent out-of-group-twist": (12, 1),
        "verify-descent unmarked-point": (6, 1),
        "verify-descent single-crossed-chart": (2, 1),
        "verify-descent m5-cover-1234": (40, 1),
        "equiv-descent intro-example twice": (8, 1),
        "equiv-descent intro-small-group twice": (2, 1),
        "equiv-descent different groups": (0, 2),
        "equiv-descent intro-example single-crossed-chart": (3, 1),
        "equiv-descent out-of-group-twist intro-example": (3, 1),
        "equiv-descent m5-cover-1234 twice": (50, 1),
        "verify-morphism twist-endomorphism": (10, 1),
        "verify-morphism reordered-group-morphism": (10, 2),
        "verify-morphism invalid-source-morphism": (2, 1),
        "verify-morphism cyclic-swap-morphism": (4, 1),
        "verify-morphism class-violation-morphism": (4, 1),
    }),
}


# The genus-0 runs whose class counts the cycle-index oracle gives.
GENUS_0 = sorted(
    name
    for name, args in CASES.items()
    if args[0] in ("enumerate", "gamma-enumerate", "quotient-table") and args[1] == "0"
)


class Replay(NamedTuple):
    result: Result
    documents: int  # graph documents in the output
    unequal: list  # (document, its round trip) for each that differs
    nodes: dict  # classes per node count, for a census
    text: str | None  # the whole output, where it is not JSON
    kept: object  # what _KEEP takes of the output, for a case listed there
    work: Counter  # calls of each target WORK_CEILINGS names for the case


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


# In both census formats: the line that opens a node count's list of
# classes, and a class object's first or last line, a brace at a six-space
# indent; each after the newline that opens its line.
_LINE = re.compile(r'\n(?:    "(\d+)": \[|      ([{}]))')
# The commands whose JSON output is a census, read a class at a time.
CENSUS_COMMANDS = ("enumerate", "gamma-enumerate")


class _Documents:
    """The graph documents of a JSON output, each round-tripped as soon as its
    text is whole, whatever chunks the output is written in.

    A census is read a class at a time, so its documents are never all held
    at once, and each class is counted under its node count as it is split
    off; only whole lines are scanned, each once.  Any other JSON output
    (``canon``, ``split``) is one document, read whole when the output ends.
    """

    def __init__(self, census):
        self.count, self.unequal, self.census = 0, [], census
        self.nodes, self.node = {}, None  # classes per node count
        self.text, self.scanned, self.start = "", 0, None

    def _check(self, text):
        try:
            count, unequal = _round_trip(text)
        except ValueError as exc:  # text this reading does not split into documents
            count, unequal = 0, [(text[:80], exc)]
        self.count += count
        self.unequal.extend(unequal)

    def __call__(self, chunk):
        text = self.text + chunk
        if not self.census:
            self.text = text
            return
        end = text.rfind("\n")  # the line after the last newline may go on
        for match in _LINE.finditer(text, self.scanned, end):
            key, edge = match.groups()
            if key is not None:
                self.node = int(key)
                self.nodes[self.node] = 0
            elif edge == "{":
                self.start = match.start() + 1
            else:
                self._check(text[self.start : match.end()])
                self.nodes[self.node] += 1
                self.start = None
        self.scanned = max(self.scanned, end)
        # Keep the open class, or else the line that may go on.
        keep = self.scanned if self.start is None else self.start
        self.text, self.scanned = text[keep:], self.scanned - keep
        if self.start is not None:
            self.start = 0

    def close(self):
        if not self.census:
            self._check(self.text)
        return self.count, self.unequal


@functools.cache
def _replay(name):
    """Run one case and keep what the tests read of it, not a census's text."""
    documents = _Documents(CASES[name][0] in CENSUS_COMMANDS)
    chunks, is_json = [], None

    def each(chunk):
        nonlocal is_json
        if is_json is None:
            is_json = chunk.startswith("{")
        if is_json:
            documents(chunk)
        if not is_json or name in _KEEP:
            chunks.append(chunk)

    with counting(*WORK_CEILINGS.get(name, ())) as work:
        result = run(resolve(CASES[name]), each)
    count, unequal = documents.close() if is_json else (0, [])
    text = "".join(chunks)
    del chunks[:]  # before the facts are read: the genus-5 census is large
    kept = _KEEP[name](text) if name in _KEEP else None
    text = None if is_json else text
    return Replay(result, count, unequal, documents.nodes, text, kept, work)


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    result = _replay(name).result
    assert pin(result) == GOLDEN[name]
    check_contract(result)


@pytest.mark.parametrize("result, broken", [
    (Result(2, "", 6, "error: x\n"), "exit 2 with 6 bytes on stdout"),
    (Result(2, "", 0, "error: x\nerror: y\n"), "exit 2 without exactly one error: line"),
    (Result(0, "", 3, "note\n"), "exit 0 with stderr"),
    (Result(1, "", 0, 'Traceback (most recent call last):\n  File "cli.py"\nKeyError: 1\n'),
     "a traceback"),
])
def test_the_contract_check_names_each_break(result, broken):
    with pytest.raises(AssertionError, match=f"^{re.escape(broken)}: "):
        check_contract(result)


def _over_ceilings(work, ceilings):
    return sorted(name for name, ceiling in ceilings.items() if work[name] > ceiling)


def _work(name):
    return _replay(name).work if name in CASES else _fusion_runs()[1][name]


@pytest.mark.parametrize("name", sorted(WORK_CEILINGS))
def test_golden_work_stays_under_its_ceilings(name):
    work, ceilings = _work(name), WORK_CEILINGS[name]
    assert _over_ceilings(work, ceilings) == [], work
    # A target the meter stops seeing reads 0 and passes every ceiling, so
    # each nonzero ceiling must see a call; work cut to none lowers it to 0.
    assert [target for target, ceiling in ceilings.items() if ceiling and not work[target]] == []


def test_a_doubled_work_count_breaks_its_ceiling():
    # Each ceiling is within twice the work it bounds, so a change that
    # doubles the work fails; doubling none stays within every ceiling.
    for name, ceilings in WORK_CEILINGS.items():
        work = _work(name)
        for target in ceilings:
            doubled = Counter(work)
            doubled[target] = max(2 * work[target], 1)
            assert _over_ceilings(doubled, ceilings) == [target]


def test_every_census_fusion_and_descent_case_has_ceilings():
    expected = {
        "enumerate": {CANON, SEARCHES, RELABELINGS},
        "gamma-enumerate": {CANON, CARRIED},
        "quotient-table": {CANON, CARRIED},
        "verify-descent": {MATCHES, CLOSURES},
        "equiv-descent": {MATCHES, CLOSURES},
        "verify-morphism": {MATCHES, CLOSURES},
    }
    for name, (command, *rest) in CASES.items():
        targets = expected.get(command, {CANON} if "--group" in rest else set())
        assert targets <= WORK_CEILINGS.get(name, {}).keys(), name


def test_genus_5_census_class_count():
    # 4,555 is this code's count of stable graph classes of genus 5 without
    # legs, pinned with the digest above; it is not checked against a
    # published table, which is not transcribed into this repository.
    replay = _replay(GENUS_5)
    assert (replay.result.code, replay.kept["total"]) == (0, 4555)


def test_genus_5_census_is_written_as_json_writes_it():
    # Node counts run to 12 here, so two-digit keys must follow 9.
    facts = _replay(GENUS_5).kept
    assert facts["node_keys"] == [str(i) for i in range(13)]
    assert facts["written_as_json"]


def test_genus_0_cases_are_the_census_and_table_runs():
    assert Counter(CASES[name][0] for name in GENUS_0) == {
        "enumerate": 6, "gamma-enumerate": 7, "quotient-table": 5,
    }


# A quotient-table row's node count and class counts.
_ROW = re.compile(r"^i=(\d+): labeled=(\d+) gamma=(\d+) ", re.M)


@pytest.mark.parametrize("name", GENUS_0)
def test_genus_0_class_counts_match_the_cycle_index(name):
    command, _, m, *rest = CASES[name]
    group = rest[rest.index("--group") + 1] if "--group" in rest else ""
    expected, replay = class_counts(int(m), group), _replay(name)
    found = replay.nodes
    if command == "quotient-table":
        labeled = class_counts(int(m))
        expected = {i: (labeled[i], n) for i, n in expected.items()}
        found = {int(i): (int(a), int(n)) for i, a, n in _ROW.findall(replay.text)}
    assert found == expected


def test_legs_census_digests_match_the_benchmark():
    # perfbench/golden.json pins the same two runs as "<exit>:<16 hex digits>".
    bench = json.loads(BENCH_GOLDEN_PATH.read_text(encoding="utf-8"))["legs-census"]
    ours = [GOLDEN[name].split() for name in ("enumerate 0 8", "gamma-enumerate 0 7 (1 2),(3 4)")]
    assert [f"{code}:{sha[:16]}" for code, sha in ours] == bench[:2]


def _bench(module):
    """A module of the ``perfbench`` package beside ``tests``."""
    with mock.patch.object(sys, "path", [str(BENCH_GOLDEN_PATH.parents[1]), *sys.path]):
        return importlib.import_module(f"perfbench.{module}")


@functools.cache
def _fusion_runs():
    """The nine big-group-fusion jobs, then ``quotient-table 0 6`` under S6:
    (argv, digest, check verdict) per job, and the work of each job set."""
    workloads = _bench("workloads")
    job_sets = {
        BENCH_FUSION: workloads.jobs_for("big-group-fusion", 1),
        BENCH_S6: workloads.jobs_for("large-group-fusion", 1)[:1],
    }
    found, work = [], {}
    for key, jobs in job_sets.items():
        with counting(*WORK_CEILINGS[key]) as work[key]:
            for job in jobs:
                chunks = []
                result = run(job.argv, chunks.append)
                digest = workloads.digest(result.code, result.sha)
                found.append((job.argv, digest, job.check("".join(chunks))))
    return found, work


def test_fusion_runs_match_the_benchmark():
    # perfbench/golden.json pins the nine big-group-fusion jobs, most of them
    # no golden case here, and quotient-table 0 6 under S6, of order 720.
    # Each run must print those bytes and pass the benchmark's own check.
    workloads = _bench("workloads")
    bench = workloads.load_golden()
    pinned = bench["big-group-fusion"] + bench["large-group-fusion"][:1]
    found = _fusion_runs()[0]
    assert len(found) == 10
    assert found[-1][0] == ("quotient-table", "0", "6", "--group", workloads.S6)
    assert found == [(argv, digest, None) for (argv, _, _), digest in zip(found, pinned)]


def test_descent_mix_runs_match_the_benchmark():
    # Content variant 0 of descent-mix fills every slot of its schedule
    # (kind, m, group, polarity, shape, defect site); perfbench/golden.json
    # pins its 300 documents in schedule order.  Each run must print those
    # bytes and pass the check its planted verdict gives.
    descent_mix, workloads = _bench("descent_mix"), _bench("workloads")
    jobs = descent_mix.documents(0)
    pinned = workloads.load_golden()["descent-mix"]["0"].split()
    assert len(jobs) == len(pinned) == 300
    found = []
    for job in jobs:
        chunks = []
        result = run(job.argv, chunks.append)
        found.append((workloads.digest(result.code, result.sha), result.code,
                      job.check("".join(chunks))))
    assert found == [(digest, job.expected_exit, None) for job, digest in zip(jobs, pinned)]


def test_golden_graph_documents_round_trip():
    # The id grammar admits every document the pinned runs read or print.
    paths = sorted(FIXTURES.glob("*.json"))
    results = [_round_trip(path.read_text(encoding="utf-8")) for path in paths]
    results += [(r.documents, r.unequal) for r in map(_replay, sorted(CASES))]
    # 2 in the fixtures and 52,330 in the runs when this bound was set.
    assert sum(count for count, _ in results) >= 52332
    assert [pair for _, unequal in results for pair in unequal] == []


@pytest.mark.parametrize("name", ["enumerate 1 4", "gamma-enumerate 0 5 S5"])
def test_documents_are_read_whatever_the_chunking(name):
    # Joining the written chunks into batches, or cutting the output
    # anywhere, reads the same documents.
    chunks = []
    run(resolve(CASES[name]), chunks.append)
    text = "".join(chunks)
    rechunked = [
        ["".join(chunks[k : k + size]) for k in range(0, len(chunks), size)]
        for size in (7, 1024)
    ]
    rechunked.append([text[k : k + 61] for k in range(0, len(text), 61)])
    replay = _replay(name)
    assert replay.documents > 1 and replay.unequal == []
    for pieces in rechunked:
        documents = _Documents(census=True)
        for piece in pieces:
            documents(piece)
        assert (documents.close(), documents.nodes) == ((replay.documents, []), replay.nodes)


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
    assert replay.result.code == 1 and replay.text.endswith("INVALID\n")
    assert set(lines) <= set(replay.text.splitlines())


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


def test_refusal_recorder_adds_missing_cases_and_keeps_recorded_ones(tmp_path, monkeypatch):
    import record_refusals

    recorded = json.loads(record_refusals.REFUSALS_PATH.read_text(encoding="utf-8"))
    corpus = record_refusals.cases()
    kept, added = sorted(corpus)[:2]
    path = tmp_path / "refusals.json"
    path.write_text(json.dumps({kept: "recorded earlier"}), encoding="utf-8")
    monkeypatch.setattr(record_refusals, "REFUSALS_PATH", path)
    monkeypatch.setattr(record_refusals, "cases", lambda: {name: corpus[name] for name in (kept, added)})
    assert record_refusals.main() == 0
    assert json.loads(path.read_text(encoding="utf-8")) == {
        kept: "recorded earlier",
        added: recorded[added],
    }


@pytest.mark.parametrize("script, attr", [
    ("record_golden", "GOLDEN_PATH"),
    ("record_refusals", "REFUSALS_PATH"),
])
def test_recording_a_complete_file_runs_nothing_and_keeps_its_bytes(
    tmp_path, monkeypatch, script, attr
):
    import record_golden

    def never(*args, **kwargs):
        raise AssertionError("a recorded case ran again")

    module = importlib.import_module(script)
    committed = getattr(module, attr)
    path = tmp_path / committed.name
    path.write_bytes(committed.read_bytes())
    monkeypatch.setattr(module, attr, path)
    monkeypatch.setattr(record_golden, "run", never)
    assert module.main() == 0
    assert path.read_bytes() == committed.read_bytes()
