"""Tests for the benchmark's own pieces: generator, checks, percentiles, tracer."""

from __future__ import annotations

import contextlib
import io

import pytest

from perfbench import descent_mix as dm
from perfbench import run, spans, workloads

G22 = "(1 2),(3 4)"


def marking(sigma, fibers=None, group=G22, m=4):
    """One base point, by default ``x``, carrying the charts in ``sigma``."""
    fibers = fibers or {"x": ["p1", "p2", "p3", "p4"]}
    (base,) = fibers
    return dm.Marking(
        m,
        group,
        [base],
        [(c, base) for c in sigma],
        {s: list(ps) for s, ps in fibers.items()},
        {c: tuple(seq.split()) for c, seq in sigma.items()},
    )


def group_of(text, m=4):
    return dm.closure(m, [dm.from_cycles(m, [c]) for c in _cycles(text)])


def _cycles(text):
    return [tuple(int(a) for a in part.strip("()").split()) for part in text.split(",")]


def cli_run(argv):
    import graphstrata.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# -- generator -----------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    first = [job.argv for job in dm.generate(7)]
    assert first == [job.argv for job in dm.generate(7)]
    assert first != [job.argv for job in dm.generate(8)]
    # Seeds that share a content variant run the same documents in another order.
    again = [job.argv for job in dm.generate(7 + dm.VARIANTS)]
    assert again != first and sorted(again) == sorted(first)


@pytest.mark.parametrize("seed", [0, 9, 10, 12345])
def test_every_seed_has_golden_digests(seed):
    golden = workloads.golden_for(workloads.load_golden(), "descent-mix", seed)
    jobs = workloads.jobs_for("descent-mix", seed)
    assert len(golden) == len(jobs)
    # Planted exit codes and recorded ones agree job by job in run order.
    assert [job.expected_exit for job in jobs] == [int(d.split(":")[0]) for d in golden]


def test_schedule_size_and_polarity():
    jobs = dm.generate(3)
    assert len(jobs) == len(dm.schedule()) >= 200
    negatives = sum(job.expected_exit for job in jobs)
    assert 0.4 < negatives / len(jobs) < 0.6
    assert {job.argv[0] for job in jobs} == set(dm.KINDS)


def test_closure_orders():
    assert len(group_of("(1 2),(2 3),(3 4)")) == 24
    assert len(group_of("(1 2 3 4)")) == 4
    assert len(group_of(G22)) == 4
    assert len(dm.closure(4, [])) == 1


# -- planted verdicts on hand-made documents -------------------------------


def test_star_verdicts_by_hand():
    g = group_of(G22)
    twist = marking({"s1": "p1 p2 p3 p4", "s2": "p2 p1 p4 p3"})
    assert dm.star_valid(twist, g)
    # (1 3) is not in <(1 2),(3 4)>: both ordered pairs lack a witness.
    swap = marking({"s1": "p1 p2 p3 p4", "s2": "p3 p2 p1 p4"})
    assert dm.star_missing(swap, g) == [("s1", "s2"), ("s2", "s1")]
    extra = marking({"s1": "p1 p2 p3 p4"}, {"x": ["p1", "p2", "p3", "p4", "p5"]})
    assert not dm.star_missing(extra, g) and dm.unmarked(extra) == ["p5"]
    assert not dm.star_valid(extra, g)


def test_equivalence_verdicts_by_hand():
    g = group_of(G22)
    a = marking({"u": "p1 p2 p3 p4"})
    b = marking({"w": "p2 p1 p3 p4", "w2": "p1 p2 p4 p3"})
    c = marking({"w": "p3 p2 p1 p4"})
    assert dm.equivalent(a, b, g) == (True, 2)
    assert dm.equivalent(a, c, g) == (False, 1)


def test_morphism_verdicts_by_hand():
    g = group_of(G22)
    src = marking({"u": "p1 p2 p3 p4"})
    dst = marking({"v": "q1 q2 q3 q4"}, {"y": ["q1", "q2", "q3", "q4"]})
    h = {"x": "y"}
    good = {"x": {"p1": "q2", "p2": "q1", "p3": "q3", "p4": "q4"}}
    bad = {"x": {"p1": "q3", "p2": "q2", "p3": "q1", "p4": "q4"}}
    assert dm.morphism_check(src, dst, h, good, g) == (0, True)
    assert dm.morphism_check(src, dst, h, bad, g) == (1, False)


def test_planted_verdicts_agree_with_the_cli():
    jobs = dm.generate(11)[::70]
    for job in jobs:
        code, out = cli_run(job.argv)
        assert code == job.expected_exit
        assert job.check(out) is None


def test_job_check_rejects_a_wrong_verdict():
    job = next(j for j in dm.generate(2) if j.argv[0] == "verify-descent")
    code, out = cli_run(job.argv)
    flipped = out.replace("\nVALID\n", "\nINVALID\n") if code == 0 else out + "VALID\n"
    assert job.check(flipped) is not None


# -- count identities ------------------------------------------------------


def test_census_check_uses_published_counts():
    job = workloads.CensusJob(("enumerate", "0", "5"))
    code, out = cli_run(job.argv)
    assert code == 0 and job.check(out) is None
    assert job.check(out.replace('"total": 26', '"total": 25')) is not None


def test_quotient_table_check_catches_a_bad_orbit():
    job = workloads.CensusJob(("quotient-table", "1", "4", "--group", workloads.S4))
    _, out = cli_run(job.argv)
    assert job.check(out) is None
    assert job.check(out.replace("orbits=[1, 1, 4, 6]", "orbits=[1, 1, 5, 5]")) is not None


def test_group_order_from_generators():
    assert workloads.group_order(workloads.S4, 5) == 24
    assert workloads.group_order(workloads.S3S2, 5) == 12
    assert workloads.group_order(workloads.S6, 6) == 720
    assert workloads.group_order("(1 2),(2 3),(4 5),(5 6)", 7) == 36


# -- percentiles -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(200, 95.0), (199, 90.0), (360, 95.0), (1000, 99.0), (10000, 99.9), (20, 50.0), (3, None)],
)
def test_pick_percentile(n, expected):
    assert run.pick_percentile(n) == expected


def test_pass_count_is_fixed_per_workload():
    assert run.pass_count("big-group-fusion", 40) == 222
    assert run.pass_count("descent-mix", 40) == 15
    assert run.pass_count("genus-census", 1) == 1


@pytest.mark.parametrize("passes", [1, 15, 222])
def test_setup_samples_are_spread_over_every_gap(passes):
    counts = run.setup_schedule(passes)
    assert len(counts) == passes + 1
    assert sum(counts) == run.SETUP_SAMPLES
    assert counts[0] >= 0 and counts[-1] >= 1


def test_nearest_rank():
    values = list(range(1, 201))
    assert run.nearest_rank(values, 50) == 100
    assert run.nearest_rank(values, 95) == 190
    assert run.nearest_rank([5.0], 95) == 5.0


# -- tracer ----------------------------------------------------------------


def test_wrappers_install_and_restore():
    import graphstrata.cli as cli
    import graphstrata.gamma as gamma
    import graphstrata.perm as perm
    import graphstrata.stablegraph as sg

    originals = {
        (cli, "canonical_form"): cli.canonical_form,
        (gamma, "canonical_form"): gamma.canonical_form,
        (sg, "canonical_form"): sg.canonical_form,
        (cli, "main"): cli.main,
        (perm.PermGroup, "__iter__"): perm.PermGroup.__dict__["__iter__"],
        (perm.PermGroup, "__contains__"): perm.PermGroup.__dict__["__contains__"],
    }
    argv = ("quotient-table", "0", "5", "--group", "(1 2),(2 3)")
    plain = cli_run(argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
        tracer.job = 0
        traced = cli_run(argv)
    finally:
        assert tracer.restore()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    assert traced == plain
    assert tracer.missing == []
    values = tracer.metrics(descent_jobs=0, pass_wall=1.0)
    # 26 labeled classes and their fused classes, each scanned over all 6 elements.
    fused = values["gamma.fused_classes"]["value"]
    assert values["gamma.canonical_forms"]["value"] == (26 + fused) * 6
    assert values["perm.elements_built"]["value"] == 6
    assert values["cli.main_s"]["value"] > 0


def test_missing_names_are_reported_absent(monkeypatch):
    import graphstrata.descent as descent

    monkeypatch.delattr(descent, "verify_star")
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli_run(("enumerate", "0", "4"))
    finally:
        assert tracer.restore()
    assert tracer.missing == ["descent.verify_star"]
    values = tracer.metrics(descent_jobs=0, pass_wall=1.0)
    assert "descent.star_calls" not in values
    assert values["stablegraph.census_classes"]["value"] == 4
