"""Compare two source trees: the same bytes on three corpora, then the time on two.

    python tests/ab.py --src A --src B [--rounds 20]

Bytes: one fresh interpreter per tree imports the package from that tree's
``--src`` and runs each case through ``graphstrata.cli.main``.  The descent
corpus is every descent-mix document of content variants 0-9, the
malformed documents of ``tests/record_refusals.py`` and, on every
``tests/fixtures/*.desc`` document, ``verify-descent`` and
``verify-morphism``, ``equiv-descent`` on every ordered pair of them, and
the five rows of ``tests/descent_scale.py`` at 200 charts, its documents
passed inline: the only documents here with many charts per fiber.
The census corpus is every case of ``tests/golden_cli.json`` and the jobs
of the benchmark's big-group-fusion workload.  The argv corpus is a seeded
draw of ``ARGV_LINES`` command lines from ``random_argv`` of
``tests/test_argv_reader.py``, over the values of its random-line contract
test; each is named by whether this checkout's plain reader takes it or
leaves it to argparse.  Per corpus it prints per tree one sha256 over every
case's exit code, stdout and stderr, then each case whose three differ.
Each tree runs each corpus in a fresh temporary working directory, so the
files ``-o`` names land there.  Each case runs through ``run`` of
``tests/record_golden.py`` and is checked by its ``check_contract``; per
corpus and tree it prints how many cases break the exit-code contract, and
names each; on the argv corpus, also how many of the argparse lines do.

Work: the bytes pass also counts, through ``tests/meter.py``, the calls of
each function ``WORK_TARGETS`` names, per case and tree.  Per corpus it
prints each target's total for each tree and the second/first ratio, then
each case whose counts differ.  A target that a tree does not define is
printed as absent for that tree, not counted as 0, and is left out of the
per-case comparison.

Time: one interpreter imports both trees, each under its own module names,
and makes ``--rounds`` rounds over a corpus's timed jobs: the variant-0
descent-mix jobs, and the big-group-fusion jobs, which leave out the
golden cases that take seconds.  Each job runs on both trees back to back,
and the tree that goes first alternates by round.  Per tree it prints the
sum over the jobs of each job's fastest latency, and the nearest-rank p50
and p95 of those fastest latencies, as the benchmark reports ``wall_s``,
``job_p50_ms`` and ``job_p95_ms``; then the second tree's figures over the
first's; then, per tree, the job at the p50 rank and the job at the p95
rank, each with its fastest latency and its own second/first ratio, so a
percentile's change can be traced to the job that carries it.

The cases are built from this checkout's ``perfbench`` and ``tests``, so
both trees read the same documents.  This is a plain script, not a test
module; the machine's speed drifts between sessions, so only its
same-session figures compare.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

import descent_scale  # noqa: E402
from perfbench import descent_mix  # noqa: E402
from perfbench.run import nearest_rank  # noqa: E402
from perfbench.workloads import FIXED  # noqa: E402
from record_golden import CASES as GOLDEN_CASES, resolve  # noqa: E402
from record_refusals import cases as refusal_cases  # noqa: E402

FUSION_JOBS = FIXED["big-group-fusion"]
SCALE_CHARTS = 200
ARGV_SEED, ARGV_LINES = 20261022, 2000
WORK_TARGETS = (
    "stablegraph.canonical_form",
    "stablegraph._least_order",
    "stablegraph._relabeled",
    "descent._PairWitnesses.get",
)

BYTES_RUNNER = r"""
import json, sys
src, cases_path, tests, targets = sys.argv[1:]
sys.path.insert(0, src)
sys.path.append(tests)
from meter import counting, resolve
from record_golden import check_contract, run

def defined(target):
    try:
        return bool(resolve(target))
    except LookupError:
        return False

def broken(result):
    try:
        check_contract(result)
    except AssertionError as exc:
        return str(exc)

targets = [target for target in json.loads(targets) if defined(target)]
for name, argv in json.load(open(cases_path, encoding="utf-8")):
    with counting(*targets) as calls:
        result = run(argv)
    work = {target: calls[target] for target in targets}
    print(json.dumps([name, result.code, result.sha, result.stderr, broken(result), work]))
"""

TIME_RUNNER = r"""
import contextlib, gc, importlib.util, io, json, math, sys
from time import perf_counter

def load(tag, src):
    # The tree's package under the name ``tag``; its modules import each
    # other relatively, so they stay within the tree.
    spec = importlib.util.spec_from_file_location(
        tag, f"{src}/graphstrata/__init__.py", submodule_search_locations=[f"{src}/graphstrata"])
    package = importlib.util.module_from_spec(spec)
    sys.modules[tag] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{tag}.cli").main

rounds, jobs, *srcs = json.load(sys.stdin)
mains = [load(f"tree{k}", src) for k, src in enumerate(srcs)]
best = [[math.inf] * len(jobs) for _ in mains]
for r in range(rounds):
    order = [0, 1] if r % 2 == 0 else [1, 0]
    gc.collect()
    for k, argv in enumerate(jobs):
        for t in order:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter()
                mains[t](list(argv))
                elapsed = perf_counter() - start
            best[t][k] = min(best[t][k], elapsed)
print(json.dumps(best))
"""


def descent_cases() -> list[tuple[str, list[str]]]:
    out = [
        (f"descent-mix variant {v} job {k}", list(job.argv))
        for v in range(descent_mix.VARIANTS)
        for k, job in enumerate(descent_mix.documents(v))
    ]
    out += [(f"refusal {name}", argv) for name, argv in refusal_cases().items()]
    fixtures = [str(p) for p in sorted((ROOT / "tests" / "fixtures").glob("*.desc"))]
    out += [(f"{cmd} {Path(f).name}", [cmd, f])
            for f in fixtures for cmd in ("verify-descent", "verify-morphism")]
    out += [(f"equiv-descent {Path(f).name} {Path(g).name}", ["equiv-descent", f, g])
            for f in fixtures for g in fixtures]
    k = SCALE_CHARTS
    star, invalid_star = descent_scale.marking_text(k), descent_scale.marking_text(k, group="()")
    out += [
        (f"scale verify-descent k={k}", ["verify-descent", star]),
        (f"scale verify-morphism k={k}", ["verify-morphism", descent_scale.morphism_text(k)]),
        (f"scale equiv-descent k={k}", ["equiv-descent", star, star]),
        (f"scale verify-descent group=() k={k}", ["verify-descent", invalid_star]),
        (f"scale verify-morphism group=() k={k}",
         ["verify-morphism", descent_scale.morphism_text(k, "()", ("p q",))]),
    ]
    return out


def census_cases() -> list[tuple[str, list[str]]]:
    out = [(f"golden {name}", resolve(argv)) for name, argv in GOLDEN_CASES.items()]
    out += [(f"big-group-fusion {' '.join(argv)}", list(argv)) for argv in FUSION_JOBS]
    return out


ARGV_DRAW = r"""
import json, random, sys
sys.path[:0] = sys.argv[1:3]
from test_argv_reader import RUN_VALUES, fast, random_argv
rng = random.Random(int(sys.argv[3]))
argvs = [random_argv(rng, RUN_VALUES) for _ in range(int(sys.argv[4]))]
routes = ["plain" if fast(argv) else "argparse" for argv in argvs]
print(json.dumps([(f"argv {k} {r}", a) for k, (r, a) in enumerate(zip(routes, argvs))]))
"""


def argv_cases() -> list[tuple[str, list[str]]]:
    """The seeded command lines, drawn in a child process from this checkout's
    ``src``, so that this process imports no tree."""
    done = subprocess.run(
        [sys.executable, "-c", ARGV_DRAW, str(ROOT / "src"), str(ROOT / "tests"),
         str(ARGV_SEED), str(ARGV_LINES)],
        capture_output=True, text=True, check=True,
    )
    return [(name, argv) for name, argv in json.loads(done.stdout)]


def run_bytes(src: Path, cases_path: str) -> tuple[dict[str, list], dict[str, dict]]:
    """Per case, its exit code, stdout sha256, stderr and how it breaks the
    exit-code contract (None if it keeps it); and its work counts."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", BYTES_RUNNER, str(src), cases_path,
             str(ROOT / "tests"), json.dumps(WORK_TARGETS)],
            capture_output=True, text=True, check=True, cwd=cwd,
        )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    return {name: rest for name, *rest, _ in rows}, {name: work for name, *_, work in rows}


def compare_bytes(corpus: str, cases: list, srcs: list[Path]) -> int:
    """Print each tree's digest over ``cases`` and each case that differs,
    each tree's cases that break the exit-code contract, then the work
    counts of both trees.  Return the number of differing cases and breaks."""
    with tempfile.TemporaryDirectory() as tmp:
        cases_path = str(Path(tmp) / "cases.json")
        Path(cases_path).write_text(json.dumps(cases), encoding="utf-8")
        results, works = zip(*(run_bytes(src, cases_path) for src in srcs))
    for src, result in zip(srcs, results):
        digest = hashlib.sha256(json.dumps(list(result.items())).encode())
        print(f"{corpus} bytes {src}: {len(result)} cases, sha256 {digest.hexdigest()}")
    differ = [name for name, _ in cases if results[0][name] != results[1][name]]
    for name in differ:
        print(f"differs: {name}: {results[0][name]} != {results[1][name]}")
    print(f"{corpus} bytes: {len(differ)} of {len(cases)} cases differ")
    breaks = [[(name, row[3]) for name, row in result.items() if row[3]] for result in results]
    routed = sum(name.endswith(" argparse") for name, _ in cases)
    for src, broken in zip(srcs, breaks):
        print(f"{corpus} contract {src}: {len(broken)} of {len(cases)} cases break it")
        if routed:
            argparse_broken = sum(name.endswith(" argparse") for name, _ in broken)
            print(f"{corpus} contract {src}: {argparse_broken} of {routed} argparse lines break it")
        for name, why in broken:
            print(f"breaks the contract: {name}: {why}")
    compare_work(corpus, [name for name, _ in cases], srcs, works)
    return len(differ) + sum(map(len, breaks))


def compare_work(corpus: str, names: list[str], srcs: list[Path], works) -> None:
    """Print each target's total calls per tree and their second/first
    ratio, then each case whose counts of the targets both trees define differ."""
    defined = [set(work[names[0]]) if names else set() for work in works]
    for target in WORK_TARGETS:
        totals = [sum(work[name][target] for name in names) if target in known else None
                  for work, known in zip(works, defined)]
        shown = ", ".join(f"{src} {'absent' if total is None else total}"
                          for src, total in zip(srcs, totals))
        first, second = totals
        ratio = f"{second / first:.3f}" if first and second is not None else "-"
        print(f"{corpus} work {target}: {shown}; second/first {ratio}")
    both = [target for target in WORK_TARGETS if target in defined[0] & defined[1]]
    differ = 0
    for name in names:
        counts = [{target: work[name][target] for target in both} for work in works]
        if counts[0] != counts[1]:
            differ += 1
            print(f"work differs: {name}: {counts[0]} != {counts[1]}")
    print(f"{corpus} work: {differ} of {len(names)} cases differ")


def compare_time(corpus: str, jobs: list, srcs: list[Path], rounds: int) -> None:
    """Print each tree's timings over ``rounds`` interleaved rounds of ``jobs``,
    given as (name, argv) pairs, and the jobs at its p50 and p95 ranks."""
    done = subprocess.run(
        [sys.executable, "-c", TIME_RUNNER],
        input=json.dumps([rounds, [argv for _, argv in jobs], *map(str, srcs)]),
        capture_output=True, text=True, check=True,
    )
    bests = [[1000 * t for t in best] for best in json.loads(done.stdout)]
    figures = []
    for src, ms in zip(srcs, bests):
        figures.append((sum(ms) / 1000, nearest_rank(ms, 50), nearest_rank(ms, 95)))
        print(f"{corpus} time {src}: wall_s {figures[-1][0]:.4f}"
              f" job_p50_ms {figures[-1][1]:.4f} job_p95_ms {figures[-1][2]:.4f}")
    ratios = " ".join(f"{b / a:.3f}" for a, b in zip(*figures))
    print(f"{corpus} time second/first (wall_s p50 p95): {ratios}")
    for src, ms, (_, *ranked) in zip(srcs, bests, figures):
        for p, value in zip((50, 95), ranked):
            k = ms.index(value)
            print(f"{corpus} time {src}: p{p} job {jobs[k][0]}: {ms[k]:.4f} ms,"
                  f" second/first {bests[1][k] / bests[0][k]:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    srcs = [src.resolve() for src in args.src]

    faults = compare_bytes("descent", descent_cases(), srcs)
    faults += compare_bytes("census", census_cases(), srcs)
    faults += compare_bytes("argv", argv_cases(), srcs)
    descent_jobs = [(f"descent-mix variant 0 job {k} {job.argv[0]}", list(job.argv))
                    for k, job in enumerate(descent_mix.documents(0))]
    compare_time("descent", descent_jobs, srcs, args.rounds)
    fusion_jobs = [(f"big-group-fusion {' '.join(argv)}", list(argv)) for argv in FUSION_JOBS]
    compare_time("census", fusion_jobs, srcs, args.rounds)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
