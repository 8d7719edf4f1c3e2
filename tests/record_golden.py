"""Record the exit code and stdout sha256 of pinned CLI runs.

    PYTHONPATH=src python3 tests/record_golden.py

Adds to ``tests/golden_cli.json``, which ``tests/test_golden.py`` replays,
the cases of ``CASES`` it does not hold yet; a digest already in the file
is never rewritten, because a rewrite of the library must keep every
recorded digest and re-recording after a change hides exactly what the
test is there to catch.  Record new cases from a checkout whose outputs
are trusted.  To re-record everything, delete the file first.  An
argument of the form ``@name`` names a file under ``tests/fixtures``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN_PATH = HERE / "golden_cli.json"

KLEIN = "(1 2)(3 4),(1 3)(2 4)"
C5 = "(1 2 3 4 5)"
S3xS2 = "(1 2),(2 3),(4 5)"
S5 = "(1 2),(2 3),(3 4),(4 5)"


def inline_graph(genera, edges, legs=()):
    """An inline ``stable-graph/1`` document, half-edges numbered per vertex."""
    used = [0] * len(genera)

    def half(v):
        used[v] += 1
        return f"v{v}.h{used[v] - 1}"

    return json.dumps(
        {
            "format": "stable-graph/1",
            "vertices": [{"genus": g} for g in genera],
            "edges": [[half(u), half(v)] for u, v in edges],
            "legs": [{"label": k, "vertex": f"v{v}"} for k, v in enumerate(legs, 1)],
        }
    )


def cycle(n, genus=1):
    return inline_graph([genus] * n, [(v, (v + 1) % n) for v in range(n)])


def complete(n, genus=0):
    return inline_graph([genus] * n, [(u, v) for v in range(n) for u in range(v)])


def petals(n, genus=1):
    """A hub joined to both ends of each of n petal edges: n triangles at one vertex."""
    edges = []
    for p in range(n):
        a, b = 2 * p + 1, 2 * p + 2
        edges += [(0, a), (0, b), (a, b)]
    return inline_graph([genus] * (2 * n + 1), edges)


def loops(n, genus=0):
    return inline_graph([genus], [(0, 0)] * n)


def legged_path(n, genus=0):
    """A path of n vertices carrying one leg each."""
    return inline_graph([genus] * n, [(v, v + 1) for v in range(n - 1)], range(n))


CASES: dict[str, list[str]] = {
    "verify-descent intro-example": ["verify-descent", "@intro-example.desc"],
    "verify-descent intro-small-group": ["verify-descent", "@intro-small-group.desc"],
    "equiv-descent intro-example twice": [
        "equiv-descent", "@intro-example.desc", "@intro-example.desc",
    ],
    "equiv-descent intro-small-group twice": [
        "equiv-descent", "@intro-small-group.desc", "@intro-small-group.desc",
    ],
    "equiv-descent different groups": [
        "equiv-descent", "@intro-example.desc", "@intro-small-group.desc",
    ],
    "verify-morphism twist-endomorphism": [
        "verify-morphism", "@twist-endomorphism.desc",
    ],
    "verify-morphism reordered-group-morphism": [
        "verify-morphism", "@reordered-group-morphism.desc",
    ],
}
CASES.update(
    {
        f"enumerate {g} {m}": ["enumerate", str(g), str(m)]
        for g, ms in ((0, range(3, 8)), (1, range(1, 6)), (2, range(0, 4)), (3, (0, 1)))
        for m in ms
    }
)
CASES.update(
    {
        "enumerate 3 1 --max-size 7": ["enumerate", "3", "1", "--max-size", "7"],
        "enumerate 3 2 --max-size 8": ["enumerate", "3", "2", "--max-size", "8"],
        "enumerate 4 0 --max-size 9": ["enumerate", "4", "0", "--max-size", "9"],
        "gamma-enumerate 0 5 S5": ["gamma-enumerate", "0", "5", "--group", S5],
        "quotient-table 0 5 S5": ["quotient-table", "0", "5", "--group", S5],
        "canon loop-and-bridge": ["canon", "@loop-and-bridge.json"],
        "canon loop-and-bridge (1 2)(3 4)": ["canon", "@loop-and-bridge.json", "--group", "(1 2)(3 4)"],
        "canon three-vertex-chain": ["canon", "@three-vertex-chain.json"],
        "canon three-vertex-chain S5": ["canon", "@three-vertex-chain.json", "--group", S5],
        "canon three-vertex-chain C5": ["canon", "@three-vertex-chain.json", "--group", C5],
        "verify-descent out-of-group-twist": ["verify-descent", "@out-of-group-twist.desc"],
        "verify-descent unmarked-point": ["verify-descent", "@unmarked-point.desc"],
        "verify-descent single-crossed-chart": ["verify-descent", "@single-crossed-chart.desc"],
        "equiv-descent intro-example single-crossed-chart": [
            "equiv-descent", "@intro-example.desc", "@single-crossed-chart.desc",
        ],
        "equiv-descent out-of-group-twist intro-example": [
            "equiv-descent", "@out-of-group-twist.desc", "@intro-example.desc",
        ],
        "verify-morphism invalid-source-morphism": [
            "verify-morphism", "@invalid-source-morphism.desc",
        ],
        "verify-descent m5-cover-1234": ["verify-descent", "@m5-cover-1234.desc"],
        "equiv-descent m5-cover-1234 twice": [
            "equiv-descent", "@m5-cover-1234.desc", "@m5-cover-1234.desc",
        ],
        "enumerate 5 0 --max-size 12": ["enumerate", "5", "0", "--max-size", "12"],
        "canon 9-cycle of genus 1": ["canon", cycle(9)],
        "canon K_8": ["canon", complete(8)],
        "canon K_9": ["canon", complete(9)],
        "canon 9-petal hub": ["canon", petals(9)],
        "split loop-and-bridge vertex 0": [
            "split", "@loop-and-bridge.json", "--vertex", "0",
        ],
        "split 4 loops": ["split", loops(4), "--vertex", "0"],
        "split 5 loops": ["split", loops(5), "--vertex", "0"],
        "verify-morphism cyclic-swap-morphism": [
            "verify-morphism", "@cyclic-swap-morphism.desc",
        ],
        "verify-morphism class-violation-morphism": [
            "verify-morphism", "@class-violation-morphism.desc",
        ],
    }
)
CASES.update(
    {
        f"{cmd} {g} {m} {group or 'trivial'}": [cmd, str(g), str(m)]
        + ([] if group is None else ["--group", group])
        for cmd in ("gamma-enumerate", "quotient-table")
        for g, m, group in ((0, 4, KLEIN), (0, 5, C5), (0, 5, S3xS2), (1, 3, None))
    }
)


CASES.update(
    {
        "gamma-enumerate 0 6 C6": ["gamma-enumerate", "0", "6", "--group", "(1 2 3 4 5 6)"],
        "quotient-table 0 7 C7": ["quotient-table", "0", "7", "--group", "(1 2 3 4 5 6 7)"],
        "gamma-enumerate 0 6 S3xS3": [
            "gamma-enumerate", "0", "6", "--group", "(1 2),(2 3),(4 5),(5 6)",
        ],
        "gamma-enumerate 1 4 S4": ["gamma-enumerate", "1", "4", "--group", "(1 2),(2 3),(3 4)"],
        "gamma-enumerate 2 2 S2": ["gamma-enumerate", "2", "2", "--group", "(1 2)"],
    }
)
CASES.update(
    {
        "check-stability loop-and-bridge": ["check-stability", "@loop-and-bridge.json"],
        "check-stability two violating vertices": [
            "check-stability", inline_graph([0, 0, 1], [(0, 1), (1, 2)], [0]),
        ],
        "check-stability smooth genus 1": ["check-stability", inline_graph([1], [])],
        "check-stability disconnected": ["check-stability", inline_graph([1, 1], [])],
        "check-stability 200-vertex legged path": ["check-stability", legged_path(200)],
        "numerology 3 4 2": ["numerology", "3", "4", "2"],
    }
)
# The two census runs of the benchmark's legs-census workload, whose
# ``perfbench/golden.json`` digests tests/test_golden.py cross-checks.
CASES.update(
    {
        "enumerate 0 8": ["enumerate", "0", "8"],
        "gamma-enumerate 0 7 (1 2),(3 4)": [
            "gamma-enumerate", "0", "7", "--group", "(1 2),(3 4)",
        ],
    }
)


def resolve(args: list[str]) -> list[str]:
    return [str(FIXTURES / a[1:]) if a.startswith("@") else a for a in args]


class _Stdout(io.TextIOBase):
    """A stdout that hashes each chunk written to it and hands it to ``each``."""

    def __init__(self, each=None):
        super().__init__()
        self.sha = hashlib.sha256()
        self.each = each

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        if self.each is not None:
            self.each(text)
        return len(text)


def run(main, args: list[str], each=None) -> str:
    """``"<exit> <stdout sha256>"``, the form in which a run is pinned, of one ``main`` call.

    stdout is hashed chunk by chunk as ``main`` writes it and never held
    whole; ``each``, when given, is called with every chunk too.
    """
    out = _Stdout(each)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolve(args))
    return f"{code} {out.sha.hexdigest()}"


def main() -> int:
    from graphstrata.cli import main as cli_main

    golden = {}
    if GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    golden.update(
        {name: run(cli_main, args) for name, args in CASES.items() if name not in golden}
    )
    with GOLDEN_PATH.open("w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
