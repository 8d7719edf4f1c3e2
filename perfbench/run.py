"""graphstrata benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The process imports
``graphstrata.cli`` from ``src/`` and calls ``main(argv)`` for each job of
the workload, one after another on one thread, with stdout captured, the
way a script at a terminal waits for each command.  Every job's exit code,
stdout sha256 and count identities are checked (see ``workloads.py``).

With ``--trace 0`` it makes a fixed number of timed passes over the job
list: ``--seconds`` divided by the workload's pass time in ``PASS_SECONDS``,
at least one.  The count depends on nothing measured, so every commit takes
the best of the same number of passes.  It reports the end-to-end metrics:

* ``wall_s``: one pass over the job list with every job at its fastest,
  the sum over the jobs of each job's fastest latency across passes;
* ``setup_s``: the fastest of many fresh interpreters' time to
  ``import graphstrata, graphstrata.cli``, ``SETUP_SAMPLES`` of them
  spread over the gaps before the first pass, between passes and after
  the last (one unreported warm-up first, so byte-code compilation is not
  counted);
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``job_p50_ms``, ``job_p95_ms``: nearest-rank percentiles over the jobs
  of each job's fastest latency across passes.

Every timing is the fastest of many samples of a short piece of work.  On
a shared virtual machine whose speed drifts over minutes, the fastest of
many samples of a job of a few milliseconds agrees between runs; a job or
a pass of several seconds only ever sees the machine's average speed,
which does not.  So the measured workloads are made of jobs well under a
second, each repeated in every pass.

With ``--trace 1`` it makes one untraced pass, then one pass with the
layer wrappers of ``spans.py`` installed, checks that every traced job
printed the same bytes, restores the wrappers, and reports the per-layer
metrics.  ``trace.span_coverage`` is the share of the traced pass's wall
time, the runner's own capturing and checking included, that the
top-level spans cover.  The spans go to ``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status is 0 when the run completed, even
if jobs failed; it is 2, with no result line, when the checkout has no
``src/graphstrata`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path[0] = str(ROOT)

from perfbench import spans, workloads  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Fresh-interpreter imports per run, spread evenly over the gaps before,
# between and after the timed passes, so the samples span the whole run
# on a machine whose speed drifts.
SETUP_SAMPLES = 30
# Median seconds of one pass of each workload at the commit that defined
# the benchmark, on a 2-vCPU Xeon VM with Python 3.11; they fix the pass
# count, so a run lasts about --seconds there.
PASS_SECONDS = {
    "genus-census": 24.0,
    "legs-census": 14.0,
    "big-group-fusion": 0.18,
    "large-group-fusion": 13.0,
    "descent-mix": 2.6,
}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import graphstrata, graphstrata.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    # Rounding first keeps 99.9 % of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100, 9)))


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def pick_percentile(n: int, candidates=PERCENTILES) -> float | None:
    """Highest candidate percentile with at least 10 of n samples beyond it."""
    for p in sorted(candidates, reverse=True):
        if n - _rank(p, n) >= 10:
            return p
    return None


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def setup_schedule(passes: int, samples: int = SETUP_SAMPLES) -> list[int]:
    """Imports to take in each of the passes + 1 gaps around the passes."""
    gaps = passes + 1
    return [samples * (k + 1) // gaps - samples * k // gaps for k in range(gaps)]


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_SNIPPET, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


class Outcome:
    __slots__ = ("latency", "exit", "sha256", "bytes", "problem")


def run_job(cli, job, golden: str | None) -> Outcome:
    """Run one job through ``cli.main`` and check what it printed."""
    out, err = io.StringIO(), io.StringIO()
    res = Outcome()
    res.problem = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            res.exit = cli.main(list(job.argv))
        except Exception as exc:  # a crash is a failed job, not a failed run
            res.exit = None
            res.problem = f"raised {exc!r}"
        res.latency = perf_counter() - start
    text = out.getvalue()
    del out
    data = text.encode("utf-8")
    res.bytes = len(data)
    res.sha256 = hashlib.sha256(data).hexdigest()
    del data
    if res.problem is None and res.exit != job.expected_exit:
        res.problem = f"exit {res.exit}, expected {job.expected_exit}: {err.getvalue()[:200]!r}"
    if res.problem is None and golden is not None:
        found = workloads.digest(res.exit, res.sha256)
        if found != golden:
            res.problem = f"outcome {found} differs from recorded {golden}"
    if res.problem is None:
        res.problem = job.check(text)
    return res


def run_pass(cli, jobs, golden, tracer=None) -> list[Outcome]:
    gc.collect()
    results = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        res = run_job(cli, job, golden[k] if golden else None)
        if res.problem is not None:
            res.problem = f"job {k} ({job.argv[0]}): {res.problem}"
        results.append(res)
    return results


def import_cli():
    sys.path.insert(0, str(SRC))
    import graphstrata
    import graphstrata.cli as cli

    if not Path(graphstrata.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"graphstrata imported from {graphstrata.__file__}, not {SRC}")
    return cli


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, jobs, golden):
    import_seconds()  # warm-up: compiles byte code, not counted
    first, *between = setup_schedule(pass_count(args.workload, args.seconds))
    setup = [import_seconds() for _ in range(first)]
    cli = import_cli()
    passes = []
    for batch in between:
        passes.append(run_pass(cli, jobs, golden))
        setup += [import_seconds() for _ in range(batch)]
    walls = [sum(r.latency for r in p) for p in passes]
    per_job = [min(p[k].latency for p in passes) for k in range(len(jobs))]
    n = len(per_job)
    picked = pick_percentile(n)
    if args.workload == "descent-mix" and picked != 95.0:
        raise SystemExit(f"descent-mix has {n} jobs; p95 needs 10 samples beyond it")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{args.workload}: Python {platform.python_version()}, {os.cpu_count()} CPUs; "
        f"{len(passes)} pass(es) of {n} jobs; {len(setup)} set-ups; wall_s per pass "
        + " ".join(f"{w:.3f}" for w in walls[:8])
        + (" ..." if len(walls) > 8 else "")
        + f" (fastest {min(walls):.3f})"
        + f"; job percentiles over {n} samples"
        + ("" if picked else " (fewer than 10 beyond p95: p95 is the slowest job)")
    )
    metrics = {
        "wall_s": metric(sum(per_job), "s"),
        "setup_s": metric(min(setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "job_p50_ms": metric(nearest_rank(per_job, 50) * 1000, "ms"),
        "job_p95_ms": metric(nearest_rank(per_job, 95) * 1000, "ms"),
    }
    return [r for p in passes for r in p], metrics


def traced_run(args, jobs, golden):
    cli = import_cli()
    plain = run_pass(cli, jobs, golden)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        traced = run_pass(cli, jobs, golden, tracer)
        pass_wall = perf_counter() - start
    finally:
        tracer.job = None
        restored = tracer.restore()
    for a, b in zip(plain, traced):
        if b.problem is None and a.sha256 != b.sha256:
            b.problem = "traced stdout differs from the untraced run"
    plain_wall = sum(r.latency for r in plain)
    traced_wall = sum(r.latency for r in traced)
    descent_jobs = sum(job.argv[0] in workloads.DESCENT_COMMANDS for job in jobs)
    metrics = tracer.metrics(descent_jobs, pass_wall)
    metrics["cli.output_bytes"] = metric(sum(r.bytes for r in traced), "bytes")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")

    per_job = tracer.leaf_counts_under(spans.GAMMA, "stablegraph.canonical_form")
    for k, job in enumerate(jobs):
        if per_job.get(k):
            print(f"job {k} {' '.join(job.argv)}: gamma.canonical_forms={per_job[k]}")
    if tracer.missing:
        print("absent (not wrapped): " + " ".join(tracer.missing))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, **tracer.dump()}, fh)
    print(f"spans written to {path.relative_to(ROOT)}; wrappers restored: {restored}")
    if not restored:
        raise SystemExit("wrapped attributes were not restored")
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphstrata" / "__init__.py").is_file():
        print(f"error: no graphstrata sources in {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.jobs_for(args.workload, args.seed)
    golden = workloads.golden_for(workloads.load_golden(), args.workload, args.seed)
    if len(golden) != len(jobs):
        raise SystemExit("golden.json does not match the job list")
    results, metrics = (traced_run if args.trace else timed_run)(args, jobs, golden)
    failed = [r for r in results if r.problem is not None]
    for r in failed[:10]:
        print(f"FAILED: {r.problem}")
    print(f"fail_ratio {len(failed)}/{len(results)} = {len(failed) / len(results):.4f}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
