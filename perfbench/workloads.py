"""The benchmark's job lists and the checks each job's output must pass.

A job is one ``graphstrata`` command line.  Every job carries its expected
exit code and a check on its stdout that shares no code with the library:
census totals against OEIS A000311 and the Maggiolo-Pagani count of
unmarked genus-3 graphs, orbit sizes against group orders closed here by
brute force, and planted descent verdicts.  Recorded stdout sha256 digests
from ``golden.json`` are compared on top of that.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from . import descent_mix

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Schroeder's fourth problem, OEIS A000311: labeled stable genus-0 graphs
# with m legs (boundary strata of M_{0,m}).
A000311 = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}
# Stable graphs of genus g without legs (Maggiolo-Pagani, arXiv:1012.4777).
UNMARKED = {2: 7, 3: 42, 4: 379}

S3 = "(1 2),(2 3)"
S4 = "(1 2),(2 3),(3 4)"
# S3 x S2 on legs 1-3 and 4-5, order 12.
S3S2 = "(1 2),(2 3),(4 5)"
S6 = "(1 2),(2 3),(3 4),(4 5),(5 6)"

# Why each workload exists is recorded in BENCHMARK.json.
FIXED = {
    "genus-census": (
        ("enumerate", "2", "2"),
        ("enumerate", "2", "3"),
        ("enumerate", "3", "0"),
    ),
    "legs-census": (
        ("enumerate", "0", "8"),
        ("gamma-enumerate", "0", "7", "--group", "(1 2),(3 4)"),
        ("quotient-table", "1", "5", "--group", "(1 2 3 4 5)"),
    ),
    # Every job lasts under 50 ms, so a run repeats each one many times
    # and finds its fastest time in the quiet moments of a shared machine;
    # a job of several seconds only ever sees the machine's average speed.
    "big-group-fusion": (
        ("quotient-table", "0", "4", "--group", S4),
        ("gamma-enumerate", "0", "4", "--group", S4),
        ("quotient-table", "0", "5", "--group", S4),
        ("gamma-enumerate", "0", "5", "--group", S4),
        ("quotient-table", "0", "5", "--group", S3S2),
        ("gamma-enumerate", "0", "5", "--group", S3S2),
        ("quotient-table", "1", "3", "--group", S3),
        ("gamma-enumerate", "1", "3", "--group", S3),
        ("quotient-table", "1", "3", "--group", "(1 2 3)"),
    ),
    "large-group-fusion": (
        ("quotient-table", "0", "6", "--group", S6),
        ("gamma-enumerate", "0", "7", "--group", "(1 2),(2 3),(4 5),(5 6)"),
        ("quotient-table", "1", "4", "--group", S4),
    ),
}
WORKLOADS = (*FIXED, "descent-mix")
DESCENT_COMMANDS = frozenset(descent_mix.KINDS)


def group_order(text: str, m: int) -> int:
    cycles = [
        tuple(int(a) for a in body.split())
        for body in re.findall(r"\(([^)]*)\)", text)
    ]
    gens = [descent_mix.from_cycles(m, [c]) for c in cycles if c]
    return len(descent_mix.closure(m, gens))


def _census_check(argv, out: str) -> str | None:
    g, m = int(argv[1]), int(argv[2])
    head = re.search(r'\A\{\n  "format": "stable-graph-census/1",\n  "g": (\d+),\n'
                     r'  "m": (\d+),\n  "total": (\d+),\n', out)
    if head is None:
        return "census header not found"
    if (int(head[1]), int(head[2])) != (g, m):
        return "census header names another (g, m)"
    total = int(head[3])
    listed = out.count('"format": "stable-graph/1"')
    if listed != total:
        return f"total {total} but {listed} graphs listed"
    known = A000311.get(m) if g == 0 else UNMARKED.get(g) if m == 0 else None
    if known is not None and total != known:
        return f"total {total}, published count is {known}"
    return None


def _orbit_problems(sizes, labeled, order: int) -> str | None:
    if sum(sizes) != labeled:
        return f"orbit sizes sum to {sum(sizes)}, not {labeled} labeled classes"
    bad = [n for n in sizes if order % n]
    if bad:
        return f"orbit sizes {bad} do not divide |G| = {order}"
    return None


def _gamma_check(argv, out: str) -> str | None:
    g, m = int(argv[1]), int(argv[2])
    order = group_order(argv[4], m)
    doc = json.loads(out)
    classes = [c for row in doc["classes_by_nodes"].values() for c in row]
    if len(classes) != doc["total"]:
        return f"total {doc['total']} but {len(classes)} classes listed"
    for c in classes:
        if c["orbit_size"] * c["stabilizer_order"] != order:
            return f"orbit {c['orbit_size']} x stabilizer {c['stabilizer_order']} != {order}"
    sizes = [c["orbit_size"] for c in classes]
    if g == 0:
        return _orbit_problems(sizes, A000311[m], order)
    return _orbit_problems(sizes, sum(sizes), order)


_ROW = re.compile(r"i=(\d+): labeled=(\d+) gamma=(\d+) orbits=\[([0-9, ]*)\]\Z")


def _table_check(argv, out: str) -> str | None:
    g, m = int(argv[1]), int(argv[2])
    order = group_order(argv[4], m)
    lines = out.splitlines()
    if not lines or not lines[0].startswith(f"g={g} m={m} group="):
        return "quotient table header not found"
    total = 0
    for line in lines[1:]:
        row = _ROW.match(line)
        if row is None:
            return f"bad table row {line!r}"
        sizes = [int(n) for n in row[4].split(",")] if row[4] else []
        labeled = int(row[2])
        if len(sizes) != int(row[3]):
            return f"row {row[1]}: gamma={row[3]} but {len(sizes)} orbits"
        problem = _orbit_problems(sizes, labeled, order)
        if problem:
            return f"row {row[1]}: {problem}"
        total += labeled
    if g == 0 and total != A000311[m]:
        return f"labeled total {total}, A000311 gives {A000311[m]}"
    return None


_CHECKS = {
    "enumerate": _census_check,
    "gamma-enumerate": _gamma_check,
    "quotient-table": _table_check,
}


@dataclass(frozen=True)
class CensusJob:
    argv: tuple[str, ...]
    expected_exit: int = 0

    def check(self, out: str) -> str | None:
        return _CHECKS[self.argv[0]](self.argv, out)


def load_golden() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def jobs_for(workload: str, seed: int) -> list:
    """The workload's jobs; only descent-mix depends on the seed."""
    if workload == "descent-mix":
        return descent_mix.generate(seed)
    return [CensusJob(argv) for argv in FIXED[workload]]


def golden_for(golden: dict, workload: str, seed: int) -> list[str]:
    """Recorded ``"<exit>:<sha256 prefix>"`` per job, in the seed's job order."""
    if workload == "descent-mix":
        recorded = golden["descent-mix"][str(seed % descent_mix.VARIANTS)].split()
        return [recorded[k] for k in descent_mix.order(seed, len(recorded))]
    return golden[workload]


def digest(exit_code: int, sha256_hex: str) -> str:
    """The recorded form of a job's outcome: exit code and 16 hex digits."""
    return f"{exit_code}:{sha256_hex[:16]}"
