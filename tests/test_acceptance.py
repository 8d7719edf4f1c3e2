"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` line;
run ``pytest -s tests/test_acceptance.py`` to see them.  The assertion
messages carry the measured details, including a full reproducer when a
randomized check finds a counterexample.
"""

import itertools
import math
import random
import time
from pathlib import Path

import sympy

from graphstrata.descent import (
    ChartedMarking,
    FiberMorphism,
    FiniteCover,
    class_function,
    equivalent,
    format_marking,
    parse_marking_document,
    verify_morphism,
    verify_star,
)
from graphstrata.gamma import (
    enumerate_gamma_strata,
    gamma_canonical_form,
    gamma_equivalent,
    quotient_fibers,
    relabel_legs,
)
from graphstrata.perm import (
    Permutation,
    group_from_generators,
    parse_generators,
    parse_permutation,
    symmetric_group,
)
from graphstrata.stablegraph import (
    canonical_form,
    check_stability,
    enumerate_stable_graphs,
    hilbert_numerology,
)
from graphstrata.strata import build_quotient_table, component_census

from inputs import (
    SMALL_SIGNATURES,
    census,
    class_preserving_maps,
    random_group,
    random_marking,
    shuffled,
)
from meter import counting
from oracle import brute_force_census, iso_key
from star_audit import audit_unique, scan_morphism

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_census_counts_match_oracle():
    # Class count, then ceilings on the calls of canonical_form, of
    # _least_order (canonical searches) and of _relabeled, counted through
    # every binding; each was the count when it was set, and a ceiling
    # above 0 must see a call.
    expected = {(0, 3): (1, (1, 0, 0)), (0, 4): (4, (4, 1, 3)), (1, 1): (2, (2, 1, 1)),
                (0, 5): (26, (26, 2, 11))}
    targets = ("stablegraph.canonical_form", "stablegraph._least_order", "stablegraph._relabeled")
    ok = True
    details = []
    for (g, m), (count, ceilings) in expected.items():
        with counting(*targets) as work:
            start = time.perf_counter()
            built = enumerate_stable_graphs(g, m)
            elapsed = time.perf_counter() - start
        calls = tuple(work[target] for target in targets)
        bounded = all(0 < n <= c or n == c == 0 for n, c in zip(calls, ceilings))
        oracle = brute_force_census(g, m)
        ours = {
            e: {iso_key(gr.genera, gr.edges, gr.legs) for gr in graphs}
            for e, graphs in built.classes_by_nodes.items()
        }
        good = built.total == count and ours == oracle and elapsed < 10.0 and bounded
        ok = ok and good
        details.append(
            f"({g},{m}): {built.total} classes (want {count}),"
            f" oracle {'agrees' if ours == oracle else 'DISAGREES'},"
            f" {elapsed:.2f}s, calls {calls} (ceilings {ceilings})"
        )
    _verdict(1, "census counts match the brute-force oracle", ok)
    assert ok, "; ".join(details)


def test_criterion_2_quotient_class_counts():
    full = enumerate_gamma_strata(0, 4, symmetric_group(4), census=census(0, 4))
    double = enumerate_gamma_strata(
        0, 4, group_from_generators(4, parse_generators("(1 2),(3 4)", 4)), census=census(0, 4)
    )
    ok = full.total == 2 and double.total == 3
    details = [f"(0,4) full group: {full.total} (want 2)",
               f"(0,4) double swap: {double.total} (want 3)"]
    for g, m in SMALL_SIGNATURES:
        if m == 0:
            continue  # label groups need at least one label
        labeled = census(g, m)
        fused = enumerate_gamma_strata(g, m, group_from_generators(m, ()), census=labeled)
        good = fused.counts() == labeled.counts()
        ok = ok and good
        details.append(f"({g},{m}) trivial group: {'=' if good else '!='} labeled")
    _verdict(2, "quotient class counts", ok)
    assert ok, "; ".join(details)


def test_criterion_3_orbit_stabilizer_products():
    fixtures = [
        (0, 4, ""),
        (0, 4, "(1 2)"),
        (0, 4, "(1 2),(3 4)"),
        (0, 4, "(1 2),(2 3),(3 4)"),
        (0, 5, "(1 2),(2 3)"),
        (1, 1, ""),
        (1, 2, "(1 2)"),
    ]
    ok = True
    bad = []
    for g, m, gens in fixtures:
        group = group_from_generators(m, parse_generators(gens, m))
        for cls in quotient_fibers(g, m, group, census=census(g, m)):
            if cls.orbit_size * cls.stabilizer.order != group.order:
                ok = False
                bad.append(f"({g},{m},{gens or 'id'}) class at i={cls.nodes}")
        table = build_quotient_table(g, m, group, census=census(g, m))
        for row in table.rows:
            if sum(row.orbit_sizes) != row.labeled:
                ok = False
                bad.append(f"({g},{m},{gens or 'id'}) row i={row.nodes}")
    _verdict(3, "orbit times stabilizer equals group order", ok)
    assert ok, f"violations: {bad}"


def test_criterion_4_twisted_gluing_fixture():
    marking = parse_marking_document(
        (FIXTURES / "intro-example.desc").read_text(), "intro-example.desc"
    )
    report = verify_star(marking)
    small = parse_marking_document(
        (FIXTURES / "intro-small-group.desc").read_text(),
        "intro-small-group.desc",
    )
    small_report = verify_star(small)
    classes = class_function(marking) if report.valid else {}
    twist = parse_permutation("(1 2)(3 4)", 4)
    ok = (
        report.valid
        and audit_unique(marking, report.witness_images)
        and report.witnesses.get(("s1", "s2")) == twist
        and not small_report.valid
        and classes.get("p1") == frozenset({1, 2})
        and classes.get("p2") == frozenset({1, 2})
        and classes.get("p3") == frozenset({3, 4})
        and classes.get("p4") == frozenset({3, 4})
    )
    _verdict(4, "twisted two-chart fixture", ok)
    assert ok, (
        f"valid={report.valid}"
        f" unique={audit_unique(marking, report.witness_images)}"
        f" witness={report.witnesses.get(('s1', 's2'))}"
        f" small-group valid={small_report.valid} classes={classes}"
    )


def _describe_morphism(source, target, hm, report):
    lines = [format_marking(source, "marking source")]
    lines.append(format_marking(target, "marking target"))
    lines.append("[morphism]")
    lines.append(
        "h = " + ", ".join(f"{s} -> {t}" for s, t in sorted(hm.base_map.items()))
    )
    for s in source.cover.base:
        pairs = ", ".join(
            f"{p} -> {q}" for p, q in sorted(hm.fiber_maps[s].items())
        )
        lines.append(f"map {s} = {pairs}")
    lines.append(
        f"chart verdict: {report.valid},"
        f" class verdict: {report.classes_preserved}"
    )
    return "\n".join(lines)


def test_criterion_5_morphism_verdicts_agree_on_random_fixtures():
    rng = random.Random(3127)
    total = 0
    disagreements = 0
    reproducer = None
    while total < 240:
        m = rng.randint(1, 5)
        group = random_group(rng, m)
        source = random_marking(
            rng, m, group, [f"x{i}" for i in range(rng.randint(1, 4))], "p"
        )
        target_base = [f"y{i}" for i in range(rng.randint(1, 4))]
        target = random_marking(rng, m, group, target_base, "q")
        base_map = {
            s: target_base[rng.randrange(len(target_base))]
            for s in source.cover.base
        }
        if rng.random() < 0.5:
            fiber_maps = class_preserving_maps(rng, source, target, base_map)
            if fiber_maps is None:
                continue
        else:
            fiber_maps = {}
            for s in source.cover.base:
                targets = list(target.fiber_points[base_map[s]])
                rng.shuffle(targets)
                fiber_maps[s] = dict(zip(source.fiber_points[s], targets))
        hm = FiberMorphism(base_map=base_map, fiber_maps=fiber_maps)
        report = verify_morphism(hm, source, target)
        total += 1
        if not report.verdicts_agree:
            disagreements += 1
            if reproducer is None:
                reproducer = _describe_morphism(source, target, hm, report)
    ok = disagreements == 0
    _verdict(5, "chart and class verdicts agree on random morphisms", ok)
    message = (
        f"{disagreements} of {total} random morphism fixtures return"
        " different chart and class verdicts; the chart check demands a"
        " group element matching the mapped chart pointwise, which is"
        " strictly finer than class preservation whenever the group is"
        " smaller than the full product of symmetric groups on its orbits."
    )
    if reproducer is not None:
        message += "\nfirst disagreeing fixture:\n" + reproducer
    assert ok, message


def test_morphism_witnesses_match_a_scan_of_group_elements():
    # verify_morphism decides each source chart by one match; the scan tries
    # every group element on every pair of the common refinement.
    rng = random.Random(5303)
    verdicts = []
    while len(verdicts) < 200:
        m = rng.randint(1, 5)
        group = random_group(rng, m)
        source = random_marking(rng, m, group, [f"x{i}" for i in range(rng.randint(1, 4))], "p")
        target_base = [f"y{i}" for i in range(rng.randint(1, 4))]
        target = random_marking(rng, m, group, target_base, "q")
        base_map = {s: rng.choice(target_base) for s in source.cover.base}
        fiber_maps = {}
        for s in source.cover.base:
            targets = list(target.fiber_points[base_map[s]])
            rng.shuffle(targets)
            fiber_maps[s] = dict(zip(source.fiber_points[s], targets))
        hm = FiberMorphism(base_map, fiber_maps)
        report = verify_morphism(hm, source, target)
        witnesses, missing = scan_morphism(hm, source, target)
        context = _describe_morphism(source, target, hm, report)
        assert dict(report.witness_images) == witnesses, context
        assert list(report.witness_images) == list(witnesses), context
        assert report.missing == missing, context
        assert report.valid == (not missing), context
        verdicts.append(report.valid)
    assert 0 < sum(verdicts) < len(verdicts)


# The tested boundary of criterion 5: the chart and class verdicts agree
# exactly when the group is a Young subgroup, the full product of symmetric
# groups on its label orbits.


def _young_group(rng, m):
    """The full symmetric group on each block of a random set partition of 1..m."""
    blocks = {}
    for label in range(1, m + 1):
        blocks.setdefault(rng.randrange(m), []).append(label)
    gens = [
        Permutation.from_cycles(m, [(a, b)])
        for block in blocks.values()
        for a, b in zip(block, block[1:])
    ]
    group = group_from_generators(m, gens)
    assert group.order == math.prod(math.factorial(len(b)) for b in blocks.values())
    return group


def test_verdicts_agree_for_young_groups():
    rng = random.Random(6021)
    verdicts = []
    while len(verdicts) < 200:
        m = rng.randint(1, 6)
        group = _young_group(rng, m)
        source = random_marking(rng, m, group, [f"x{i}" for i in range(rng.randint(1, 3))], "p")
        target_base = [f"y{i}" for i in range(rng.randint(1, 3))]
        target = random_marking(rng, m, group, target_base, "q")
        base_map = {s: rng.choice(target_base) for s in source.cover.base}
        fiber_maps = class_preserving_maps(rng, source, target, base_map)
        if fiber_maps is None:
            continue
        if rng.random() < 0.5:
            s = rng.choice(source.cover.base)
            fm = fiber_maps[s]
            keys = list(fm)
            fm.update(zip(keys, rng.sample([fm[p] for p in keys], len(keys))))
        report = verify_morphism(FiberMorphism(base_map, fiber_maps), source, target)
        assert report.verdicts_agree, _describe_morphism(
            source, target, FiberMorphism(base_map, fiber_maps), report
        )
        verdicts.append(report.valid)
    # Both verdicts occur, so agreement is not the trivial one.
    assert 0 < sum(verdicts) < len(verdicts)


def test_young_groups_are_the_groups_without_disagreement():
    # Every subgroup of S_m (m <= 4), as the closure of a generator pair, acts
    # on one chart; the fixtures are the fiber self-maps of that chart.
    kinds = set()
    for m in range(1, 5):
        points = tuple(f"p{i}" for i in range(1, m + 1))
        groups = {}
        for a, b in itertools.product(itertools.permutations(range(1, m + 1)), repeat=2):
            group = group_from_generators(m, [Permutation(a), Permutation(b)])
            groups.setdefault(group.members, group)
        for members, group in groups.items():
            orbits = [frozenset(g[i - 1] for g in members) for i in range(1, m + 1)]
            young = len(members) == math.prod(
                math.factorial(len(o)) for o in set(orbits)
            )
            marking = ChartedMarking(
                cover=FiniteCover(("x",), ("s",), {"s": "x"}),
                m=m,
                group=group,
                fiber_points={"x": points},
                sigma={"s": points},
            )
            disagreeing = set()
            for images in itertools.permutations(range(1, m + 1)):
                hm = FiberMorphism(
                    {"x": "x"}, {"x": {p: points[j - 1] for p, j in zip(points, images)}}
                )
                if not verify_morphism(hm, marking, marking).verdicts_agree:
                    disagreeing.add(images)
            outside = {
                images
                for images in itertools.permutations(range(1, m + 1))
                if all(j in orbits[i] for i, j in enumerate(images)) and images not in members
            }
            assert disagreeing == outside, (m, group.generator_string())
            assert young == (not disagreeing), (m, group.generator_string())
            kinds.add(young)
    assert kinds == {True, False}


def test_criterion_6_equivalence_laws():
    ok = True
    bad = []

    graph_cases = [
        (census(0, 4), ["", "(1 2)", "(1 2),(3 4)"]),
        (census(1, 2), ["", "(1 2)"]),
    ]
    for labeled, gens_list in graph_cases:
        graphs = list(labeled.all_graphs())
        for gens in gens_list:
            group = group_from_generators(labeled.m, parse_generators(gens, labeled.m))
            for a in graphs:
                w = gamma_equivalent(a, a, group)
                if w is None or not w.gamma.is_identity():
                    ok = False
                    bad.append("graph reflexivity")
            for a, b in itertools.permutations(graphs, 2):
                if (gamma_equivalent(a, b, group) is None) != (
                    gamma_equivalent(b, a, group) is None
                ):
                    ok = False
                    bad.append("graph symmetry")
            for a, b, c in itertools.permutations(graphs, 3):
                if (
                    gamma_equivalent(a, b, group) is not None
                    and gamma_equivalent(b, c, group) is not None
                    and gamma_equivalent(a, c, group) is None
                ):
                    ok = False
                    bad.append("graph transitivity")

    def chart(sigma, point):
        return ChartedMarking(
            cover=FiniteCover(("x",), (point,), {point: "x"}),
            m=4,
            group=group_from_generators(4, parse_generators("(1 2),(3 4)", 4)),
            fiber_points={"x": ("p1", "p2", "p3", "p4")},
            sigma={point: sigma},
        )

    markings = [
        parse_marking_document(
            (FIXTURES / "intro-example.desc").read_text(), "intro-example.desc"
        ),
        chart(("p1", "p2", "p3", "p4"), "s"),
        chart(("p2", "p1", "p3", "p4"), "t"),
        chart(("p1", "p2", "p4", "p3"), "u"),
        chart(("p3", "p2", "p1", "p4"), "w"),
    ]
    for c in markings:
        if equivalent(c, c) is None:
            ok = False
            bad.append("chart reflexivity")
    for a, b in itertools.permutations(markings, 2):
        if (equivalent(a, b) is None) != (equivalent(b, a) is None):
            ok = False
            bad.append("chart symmetry")
    for a, b, c in itertools.permutations(markings, 3):
        if (
            equivalent(a, b) is not None
            and equivalent(b, c) is not None
            and equivalent(a, c) is None
        ):
            ok = False
            bad.append("chart transitivity")

    _verdict(6, "equivalence laws on fixtures", ok)
    assert ok, f"violated: {sorted(set(bad))}"


def test_criterion_7_numerology_identities():
    t = sympy.symbols("t")
    ok = True
    bad = []
    for n in range(3, 7):
        for g in range(0, 6):
            for m in range(0, 7):
                if 2 * g - 2 + m <= 0:
                    continue
                data = hilbert_numerology(g, n, m)
                reference = sympy.expand((2 * g - 2 + m) * n * t - g + 1)
                ours = data.leading * t + data.constant
                if sympy.simplify(reference - ours) != 0:
                    ok = False
                    bad.append(f"polynomial ({g},{n},{m})")
                if data.rank != data.ambient_dim + 1:
                    ok = False
                    bad.append(f"rank ({g},{n},{m})")
                if reference.subs(t, 1) != data.leading + data.constant:
                    ok = False
                    bad.append(f"value at 1 ({g},{n},{m})")
    _verdict(7, "degree and rank identities", ok)
    assert ok, f"violations: {bad}"


def test_criterion_8_splitting_stability():
    ok = True
    bad = []
    for g, m in SMALL_SIGNATURES:
        for graph in census(g, m).all_graphs():
            for piece in component_census(graph):
                if not piece.stable or not check_stability(piece.graph).valid:
                    ok = False
                    bad.append(f"({g},{m}) vertex {piece.vertex}")
    _verdict(8, "every split piece is stable", ok)
    assert ok, f"unstable pieces: {bad}"


def test_criterion_9_canonical_form_soundness():
    rng = random.Random(90125)
    pool = []
    for g, m in SMALL_SIGNATURES:
        pool.extend(census(g, m).all_graphs())
    gens = {1: "", 2: "(1 2)", 3: "(1 2)", 4: "(1 2),(3 4)", 5: "(1 2)"}
    groups = {m: group_from_generators(m, parse_generators(text, m)) for m, text in gens.items()}
    ok = True
    failures = 0
    for _ in range(1000):
        graph = pool[rng.randrange(len(pool))]
        moved = shuffled(graph, rng)
        if canonical_form(moved) != canonical_form(graph):
            ok = False
            failures += 1
        if canonical_form(canonical_form(moved)) != canonical_form(moved):
            ok = False
            failures += 1
        m = graph.m
        if m >= 1:
            group = groups[m]
            gamma = group.elements[rng.randrange(group.order)]
            twisted = relabel_legs(moved, gamma)
            expect = gamma_canonical_form(graph, group)
            got = gamma_canonical_form(twisted, group)
            if got != expect:
                ok = False
                failures += 1
            if gamma_canonical_form(got, group) != got:
                ok = False
                failures += 1
    _verdict(9, "canonical forms constant and idempotent", ok)
    assert ok, f"{failures} of 1000 random presentations misbehaved"
