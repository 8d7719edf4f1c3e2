"""Record the exit code and stdout sha256 of pinned CLI runs.

    PYTHONPATH=src python3 tests/record_golden.py

Adds to ``tests/golden_cli.json``, which ``tests/test_golden.py`` replays,
the cases of ``CASES`` it does not hold yet; a digest already in the file
is never rewritten, because a rewrite of the library must keep every
recorded digest and re-recording after a change hides exactly what the
test is there to catch.  Record new cases from a checkout whose outputs
are trusted.  To re-record everything, delete the file first.  An
argument of the form ``@name`` names a file under ``tests/fixtures``.

``run`` is the tests' one in-process ``cli.main`` runner, ``check_contract``
the exit-code contract every run keeps, and ``record`` the rule above,
which ``record_refusals.py`` follows too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

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


class Result(NamedTuple):
    """One ``cli.main`` run: exit code, stdout sha256 and byte count, stderr text."""

    code: int
    sha: str
    size: int
    stderr: str


class _Stdout(io.TextIOBase):
    """A stdout that hashes and counts each chunk written to it and hands it to ``each``."""

    def __init__(self, each=None):
        super().__init__()
        self.sha, self.size, self.each = hashlib.sha256(), 0, each

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)
        if self.each is not None:
            self.each(text)
        return len(text)


def run(args, each=None) -> Result:
    """Run ``graphstrata.cli.main(args)`` in this process.

    stdout is hashed and counted chunk by chunk as ``main`` writes it and
    never held whole; ``each``, when given, is called with every chunk too.
    ``main`` is imported on the first call, so a script that only reads
    ``CASES`` imports no ``graphstrata``.
    """
    from graphstrata.cli import main

    out, err = _Stdout(each), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return Result(code, out.sha.hexdigest(), out.size, err.getvalue())


def pin(result: Result) -> str:
    """``"<exit> <stdout sha256>"``, the form in which ``golden_cli.json`` pins a run."""
    return f"{result.code} {result.sha}"


def check_contract(result: Result) -> None:
    """Raise ``AssertionError`` unless ``result`` keeps the exit-code contract.

    The exit code is 0, 1 or 2 and stderr holds no traceback; exit 2
    prints exactly one ``error:`` line on stderr and nothing on stdout;
    exits 0 and 1 print nothing on stderr.
    """
    code, lines = result.code, result.stderr.splitlines()
    if code not in (0, 1, 2):
        broken = f"exit {code!r}"
    elif "Traceback" in result.stderr:
        broken = "a traceback"
    elif code == 2 and result.size:
        broken = f"exit 2 with {result.size} bytes on stdout"
    elif code == 2 and (len(lines) != 1 or not lines[0].startswith("error:")):
        broken = "exit 2 without exactly one error: line"
    elif code != 2 and result.stderr:
        broken = f"exit {code} with stderr"
    else:
        return
    raise AssertionError(f"{broken}: {result.stderr!r}")


def record(path: Path, cases: dict[str, list[str]], form) -> None:
    """Add to the JSON file at ``path`` the ``form`` of the ``run`` of each
    case it does not hold yet; a case already there is never run or rewritten.

    The file is written with one-space indents and non-ASCII text
    unescaped; ``golden_cli.json`` holds ASCII only, so escaping would not
    change it.
    """
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    recorded.update({name: form(run(args)) for name, args in cases.items() if name not in recorded})
    with path.open("w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


def main() -> int:
    record(GOLDEN_PATH, {name: resolve(args) for name, args in CASES.items()}, pin)
    return 0


if __name__ == "__main__":
    sys.exit(main())
