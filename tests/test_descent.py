import copy
import itertools
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest

import graphstrata.descent as descent

from graphstrata.descent import (
    ChartedMarking,
    FiberMorphism,
    FiniteCover,
    FormatError,
    MorphismReport,
    StarReport,
    class_function,
    dominates,
    equivalent,
    format_marking,
    globalize_trivial_group,
    parse_marking_document,
    parse_morphism_document,
    render_equivalence,
    render_morphism_report,
    render_star_report,
    verify_morphism,
    verify_star,
)
from graphstrata.perm import (
    Permutation,
    group_from_generators,
    parse_generators,
    parse_permutation,
    symmetric_group,
)

from graphstrata.cli import main
from star_audit import (
    audit_coherent,
    audit_unique,
    scan_domination,
    scan_morphism,
    scan_star,
)


def make_group(gens, m):
    return group_from_generators(m, parse_generators(gens, m))


def single_chart(sigma, gens="(1 2),(3 4)", m=4, cover_point="s"):
    """One base point, one cover point, four distinguished points."""
    return ChartedMarking(
        cover=FiniteCover(("x",), (cover_point,), {cover_point: "x"}),
        m=m,
        group=make_group(gens, m),
        fiber_points={"x": ("p1", "p2", "p3", "p4")[:4]},
        sigma={cover_point: sigma},
    )


# ---------------------------------------------------------------------------
# construction


def test_cover_validation():
    with pytest.raises(ValueError):
        FiniteCover((), ("a",), {"a": "x"})
    with pytest.raises(ValueError):
        FiniteCover(("x",), ("a",), {"a": "y"})
    with pytest.raises(ValueError):
        FiniteCover(("x", "y"), ("a",), {"a": "x"})  # y uncovered
    with pytest.raises(ValueError):
        FiniteCover(("x", "x"), ("a",), {"a": "x"})
    cover = FiniteCover(("x", "y"), ("a", "b", "c"), {"a": "x", "b": "y", "c": "x"})
    assert cover.fiber("x") == ("a", "c")


def test_marking_validation():
    with pytest.raises(ValueError):
        single_chart(("p1", "p1", "p3", "p4"))  # repeated point
    with pytest.raises(ValueError):
        single_chart(("p1", "p2", "p3"))  # wrong length
    with pytest.raises(ValueError):
        single_chart(("p1", "p2", "p3", "q9"))  # outside the fiber
    with pytest.raises(ValueError):
        single_chart(("p1", "p2", "p3", "p4"), gens="(1 2)", m=3)
    cover = FiniteCover(("x", "y"), ("a", "b"), {"a": "x", "b": "y"})
    with pytest.raises(ValueError):
        ChartedMarking(
            cover=cover,
            m=1,
            group=make_group("", 1),
            fiber_points={"x": ("p",), "y": ("p",)},  # id reused across fibers
            sigma={"a": ("p",), "b": ("p",)},
        )


# ---------------------------------------------------------------------------
# chart compatibility


def test_intro_marking_is_valid(intro_marking):
    report = verify_star(intro_marking)
    assert report.valid and scan_star(intro_marking)[2]
    assert audit_unique(intro_marking, report.witness_images)
    assert audit_coherent(intro_marking, report.witness_images)
    assert report.missing == ()
    assert report.witnesses[("s1", "s2")] == parse_permutation("(1 2)(3 4)", 4)
    assert report.witnesses[("s2", "s1")] == parse_permutation("(1 2)(3 4)", 4)
    assert report.witnesses[("s1", "s1")].is_identity()


def test_star_report_holds_only_its_verdict_and_pairs(intro_small_group_marking):
    assert StarReport.__match_args__ == ("valid", "witness_images", "unmarked")
    # ``missing`` is read from the witness view: it is no field to pass or assign.
    report = verify_star(intro_small_group_marking)
    with pytest.raises(TypeError, match="unexpected keyword argument 'missing'"):
        StarReport(valid=False, witness_images=report.witness_images, missing=(), unmarked={})
    with pytest.raises(AttributeError):
        report.missing = ()
    assert report.missing == (("s1", "s2"), ("s2", "s1"))


@pytest.mark.parametrize("kind,extra", [
    (StarReport, {"unmarked": {}}),
    (MorphismReport, {"classes_preserved": True, "class_violations": (), "verdicts_agree": False}),
])
def test_missing_needs_the_pair_view(kind, extra):
    # A report built by hand around a plain mapping has no pairs to list:
    # valid, it has none missing; invalid, ``missing`` is refused, and
    # ``getattr`` with a default does not hide that.
    images = {("a", "a"): (1,)}
    assert kind(valid=True, witness_images=images, **extra).missing == ()
    report = kind(valid=False, witness_images=images, **extra)
    with pytest.raises(TypeError, match="missing needs the report's pair view, not a dict"):
        report.missing
    with pytest.raises(TypeError):
        getattr(report, "missing", ())


def test_intro_fails_with_smaller_group(intro_small_group_marking):
    report = verify_star(intro_small_group_marking)
    assert not report.valid
    assert set(report.missing) == {("s1", "s2"), ("s2", "s1")}


def test_identity_cover_valid_with_identity_witnesses():
    marking = single_chart(("p1", "p2", "p3", "p4"))
    report = verify_star(marking)
    assert report.valid
    assert all(w.is_identity() for w in report.witnesses.values())


def test_unmarked_points_invalidate():
    cover = FiniteCover(("x",), ("s",), {"s": "x"})
    marking = ChartedMarking(
        cover=cover,
        m=2,
        group=make_group("", 2),
        fiber_points={"x": ("p1", "p2", "p3")},
        sigma={"s": ("p1", "p2")},
    )
    report = verify_star(marking)
    assert not report.valid
    assert report.unmarked == {"x": ("p3",)}
    with pytest.raises(ValueError):
        class_function(marking)


def test_witness_coherence_across_triples():
    # three sheets over one point, pairwise twisted inside the group
    cover = FiniteCover(("x",), ("a", "b", "c"), {"a": "x", "b": "x", "c": "x"})
    marking = ChartedMarking(
        cover=cover,
        m=4,
        group=symmetric_group(4),
        fiber_points={"x": ("p1", "p2", "p3", "p4")},
        sigma={
            "a": ("p1", "p2", "p3", "p4"),
            "b": ("p2", "p3", "p1", "p4"),
            "c": ("p2", "p1", "p4", "p3"),
        },
    )
    report = verify_star(marking)
    assert report.valid and scan_star(marking)[2]
    assert audit_coherent(marking, report.witness_images)
    assert audit_unique(marking, report.witness_images)
    w = report.witnesses
    for s, t, u in itertools.product("abc", repeat=3):
        assert w[(t, u)] * w[(s, t)] == w[(s, u)]


def _random_star_marking(rng, m):
    """Random charts over 1-4 base points, 1-4 charts each, some defective.

    Most charts are one ordering of the fiber twisted by a group element;
    planted defects twist by an arbitrary permutation (usually outside the
    group), leave a fiber point unmarked, or move a chart to another
    support of the fiber.
    """
    gens = [
        Permutation(tuple(rng.sample(range(1, m + 1), m)))
        for _ in range(rng.randint(0, 3))
    ]
    group = group_from_generators(m, gens)
    base = tuple(f"x{k}" for k in range(rng.randint(1, 4)))
    down, fiber_points, sigma = {}, {}, {}
    for k, s in enumerate(base):
        points = [f"p{k}_{j}" for j in range(m + (rng.random() < 0.3))]
        fiber_points[s] = tuple(points)
        rng.shuffle(points)
        for c in range(rng.randint(1, 4)):
            name = f"{s}c{c}"
            down[name] = s
            if rng.random() < 0.15:
                twist = Permutation(tuple(rng.sample(range(1, m + 1), m)))
            else:
                twist = group.elements[rng.randrange(group.order)]
            moved = len(points) > m and rng.random() < 0.5
            support = points[1:] if moved else points[:m]
            sigma[name] = tuple(support[twist(i) - 1] for i in range(1, m + 1))
    return ChartedMarking(
        cover=FiniteCover(base, tuple(down), down),
        m=m,
        group=group,
        fiber_points=fiber_points,
        sigma=sigma,
    )


def test_default_check_agrees_with_audit_on_random_markings():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        marking = _random_star_marking(rng, rng.randint(2, 5))
        fast = verify_star(marking)
        assert audit_unique(marking, fast.witness_images) is True
        assert audit_coherent(marking, fast.witness_images) is True
        verdicts.add(fast.valid)
        # Brute force over the group, sharing no code with verify_star:
        # a pair has a witness exactly when one group element matches.
        witnesses, missing, valid = scan_star(marking)
        assert fast.valid == valid
        assert dict(fast.witness_images) == witnesses
        assert repr(fast.witness_images) == repr(witnesses)
        assert fast.missing == missing
    assert verdicts == {True, False}


def _fiber_marking(m, gens, fibers, charts):
    """Charts over base points ``x0, x1, ...``; ``charts[k]`` lists fiber k's charts."""
    down, sigma = {}, {}
    for k, fiber_charts in enumerate(charts):
        for c, seq in enumerate(fiber_charts):
            down[f"x{k}c{c}"] = f"x{k}"
            sigma[f"x{k}c{c}"] = tuple(seq.split())
    base = tuple(f"x{k}" for k in range(len(charts)))
    return ChartedMarking(
        cover=FiniteCover(base, tuple(down), down),
        m=m,
        group=make_group(gens, m),
        fiber_points={f"x{k}": tuple(f.split()) for k, f in enumerate(fibers)},
        sigma=sigma,
    )


HAND_MARKINGS = {
    # A twist outside the group on the last of three charts, the first two agreeing.
    "twist on third chart": (False, _fiber_marking(
        4, "(1 2),(3 4)", ["a b c d"], [["a b c d", "b a d c", "a c b d"]])),
    # Only the second and third charts disagree; each matches the first in
    # the group, so the pair between them does too.
    "twists on later charts compose": (True, _fiber_marking(
        4, "(1 2),(3 4)", ["a b c d"], [["a b c d", "b a c d", "a b d c"]])),
    # The twist sits in the second fiber, whose first chart is fine.
    "twist in second fiber": (False, _fiber_marking(
        3, "(1 2 3)", ["a b c", "d e f"], [["a b c"], ["d e f", "e f d", "d f e"]])),
    # A chart marking another 3-point subset of a 4-point fiber.
    "different point set": (False, _fiber_marking(
        3, "(1 2),(2 3)", ["a b c d"], [["a b c", "b c d"]])),
    "different point set, not first": (False, _fiber_marking(
        3, "(1 2),(2 3)", ["a b c d"], [["a b c", "c a b", "a b d"]])),
    # Charts agree but a fourth fiber point is never marked.
    "unmarked point": (False, _fiber_marking(
        3, "(1 2 3)", ["a b c d"], [["a b c", "b c a"]])),
    "unmarked point, single chart": (False, _fiber_marking(
        2, "", ["a b c"], [["a b"]])),
    # Single-chart fibers are compatible whatever the group.
    "single-chart fibers": (True, _fiber_marking(
        4, "", ["a b c d", "e f g h"], [["d c b a"], ["e f g h"]])),
    "single-chart and twisted fiber": (True, _fiber_marking(
        4, "(1 2 3 4)", ["a b c d", "e f g h"], [["a b c d"], ["e f g h", "h e f g"]])),
}


@pytest.mark.parametrize("name", sorted(HAND_MARKINGS))
def test_one_match_rule_on_hand_cases(name):
    expected, marking = HAND_MARKINGS[name]
    assert scan_star(marking)[2] is expected
    assert verify_star(marking).valid is expected


def test_one_match_rule_agrees_with_pair_scan_on_random_markings():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(400):
        marking = _random_star_marking(rng, rng.randint(2, 5))
        full = verify_star(marking)
        assert scan_star(marking)[2] == full.valid
        verdicts.add(full.valid)
    assert verdicts == {True, False}


def _assert_witnesses_built_from_images(report):
    assert report.witnesses == {
        key: Permutation(images) for key, images in report.witness_images.items()
    }
    for images in report.witness_images.values():
        assert type(images) is tuple


def test_witnesses_are_permutations_of_witness_images(intro_marking, fixtures_dir):
    rng = random.Random(5)
    for _ in range(50):
        marking = _random_star_marking(rng, rng.randint(2, 5))
        _assert_witnesses_built_from_images(verify_star(marking))
    _assert_witnesses_built_from_images(
        dominates(intro_marking, intro_marking, {"s1": "s1", "s2": "s2"})
    )
    text = (fixtures_dir / "twist-endomorphism.desc").read_text()
    report = verify_morphism(*parse_morphism_document(text))
    assert report.witness_images
    _assert_witnesses_built_from_images(report)


def test_class_function_values(intro_marking):
    classes = class_function(intro_marking)
    assert classes["p1"] == classes["p2"] == frozenset({1, 2})
    assert classes["p3"] == classes["p4"] == frozenset({3, 4})


def test_class_function_trivial_group():
    marking = single_chart(("p1", "p2", "p3", "p4"), gens="")
    classes = class_function(marking)
    assert classes == {
        "p1": frozenset({1}),
        "p2": frozenset({2}),
        "p3": frozenset({3}),
        "p4": frozenset({4}),
    }


def test_class_function_full_symmetric_group():
    marking = single_chart(("p3", "p1", "p4", "p2"), gens="(1 2),(2 3),(3 4)")
    classes = class_function(marking)
    assert set(classes.values()) == {frozenset({1, 2, 3, 4})}


def test_star_report_rendering(intro_marking):
    text = "".join(render_star_report(intro_marking, verify_star(intro_marking)))
    assert "(s1, s2): gamma = (1 2)(3 4)" in text
    assert "class(p1) = [1]" in text
    assert "class(p4) = [3]" in text
    assert text.endswith("VALID\n")


# ---------------------------------------------------------------------------
# domination


def two_sheets(sigma_a, sigma_b, gens="(1 2),(3 4)"):
    cover = FiniteCover(("x",), ("a", "b"), {"a": "x", "b": "x"})
    return ChartedMarking(
        cover=cover,
        m=4,
        group=make_group(gens, 4),
        fiber_points={"x": ("p1", "p2", "p3", "p4")},
        sigma={"a": sigma_a, "b": sigma_b},
    )


def test_dominates_self_by_identity(intro_marking):
    report = dominates(
        intro_marking, intro_marking, {"s1": "s1", "s2": "s2"}
    )
    assert report.valid
    assert all(w.is_identity() for w in report.witnesses.values())


def test_disjoint_union_dominates_single_chart():
    coarse = single_chart(("p1", "p2", "p3", "p4"))
    fine = two_sheets(("p1", "p2", "p3", "p4"), ("p2", "p1", "p4", "p3"))
    report = dominates(fine, coarse, {"a": "s", "b": "s"})
    assert report.valid
    assert report.witnesses["a"].is_identity()
    assert report.witnesses["b"] == parse_permutation("(1 2)(3 4)", 4)


def test_domination_fails_outside_group():
    coarse = single_chart(("p1", "p2", "p3", "p4"))
    fine = two_sheets(("p1", "p2", "p3", "p4"), ("p3", "p2", "p1", "p4"))
    report = dominates(fine, coarse, {"a": "s", "b": "s"})
    assert not report.valid
    assert report.missing == ("b",)


def test_domination_structural_errors(intro_marking):
    other_base = single_chart(("p1", "p2", "p3", "p4"))
    with pytest.raises(ValueError):
        dominates(intro_marking, intro_marking, {"s1": "s1"})
    with pytest.raises(ValueError):
        dominates(
            intro_marking,
            single_chart(("p1", "p2", "p3", "p4"), gens="(1 2)"),
            {"s1": "s", "s2": "s"},
        )
    report = dominates(intro_marking, other_base, {"s1": "s", "s2": "s"})
    assert report.valid


def _random_refinement(rng, coarse):
    """A marking of 1-3 sheets over each chart of ``coarse``, and its map onto them.

    Most sheets restate their chart moved by a group element; planted
    defects move it by an arbitrary permutation (usually outside the group)
    or first move the chart to another support of the fiber.
    """
    m, group = coarse.m, coarse.group
    down, fine_down, sigma = {}, {}, {}
    for c in coarse.cover.cover:
        s = coarse.cover.down[c]
        for k in range(rng.randint(1, 3)):
            name = f"{c}f{k}"
            down[name], fine_down[name] = c, s
            if rng.random() < 0.15:
                twist = Permutation(tuple(rng.sample(range(1, m + 1), m)))
            else:
                twist = group.elements[rng.randrange(group.order)]
            seq = coarse.sigma[c]
            if len(coarse.fiber_points[s]) > m and rng.random() < 0.15:
                seq = tuple(rng.sample(coarse.fiber_points[s], m))
            sigma[name] = tuple(seq[twist(i) - 1] for i in range(1, m + 1))
    names = list(down)
    rng.shuffle(names)
    cover = FiniteCover(coarse.cover.base, tuple(names), fine_down)
    return ChartedMarking(cover, m, group, dict(coarse.fiber_points), sigma), down


def test_dominates_agrees_with_audit_on_random_pairs():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(300):
        coarse = _random_star_marking(rng, rng.randint(2, 5))
        fine, down = _random_refinement(rng, coarse)
        report = dominates(fine, coarse, down)
        # Brute force over the group, sharing no code with dominates.
        witnesses, missing = scan_domination(fine, coarse, down)
        assert list(report.witness_images.items()) == list(witnesses.items())
        assert report.missing == missing
        assert report.valid == (not missing)
        verdicts.add(report.valid)
    assert verdicts == {True, False}


def test_class_function_invariant_under_domination():
    coarse = single_chart(("p2", "p1", "p3", "p4"))
    fine = two_sheets(("p2", "p1", "p3", "p4"), ("p1", "p2", "p4", "p3"))
    assert dominates(fine, coarse, {"a": "s", "b": "s"}).valid
    assert class_function(fine) == class_function(coarse)


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_reflexive(intro_marking):
    witness = equivalent(intro_marking, intro_marking)
    assert witness is not None
    assert witness.first is intro_marking and witness.second is intro_marking
    # Every point of the fiber product is matched: its pairs are the star's.
    witnesses, missing, valid = scan_star(intro_marking)
    assert valid and missing == ()
    assert dict(witness.witness_images) == witnesses


def test_equivalent_single_charts_differing_by_group_element():
    a = single_chart(("p1", "p2", "p3", "p4"))
    b = single_chart(("p2", "p1", "p3", "p4"), cover_point="t")
    assert equivalent(a, b) is not None
    assert equivalent(b, a) is not None


def test_not_equivalent_outside_group():
    a = single_chart(("p1", "p2", "p3", "p4"))
    b = single_chart(("p3", "p2", "p1", "p4"), cover_point="t")
    assert equivalent(a, b) is None
    assert equivalent(b, a) is None


def test_equivalent_symmetric_on_pairs():
    charts = [
        single_chart(("p1", "p2", "p3", "p4")),
        single_chart(("p2", "p1", "p4", "p3"), cover_point="t"),
        single_chart(("p3", "p2", "p1", "p4"), cover_point="u"),
    ]
    for a, b in itertools.permutations(charts, 2):
        assert (equivalent(a, b) is None) == (equivalent(b, a) is None)


def test_equivalent_transitive_on_fixture_triples(intro_marking):
    charts = [
        intro_marking,
        single_chart(("p1", "p2", "p3", "p4")),
        single_chart(("p2", "p1", "p3", "p4"), cover_point="t"),
        single_chart(("p1", "p2", "p4", "p3"), cover_point="u"),
        single_chart(("p3", "p2", "p1", "p4"), cover_point="w"),
    ]
    for a, b, c in itertools.permutations(charts, 3):
        if equivalent(a, b) is not None and equivalent(b, c) is not None:
            assert equivalent(a, c) is not None


def test_equivalent_requires_same_setting(intro_marking):
    with pytest.raises(ValueError):
        equivalent(
            intro_marking, single_chart(("p1", "p2", "p3", "p4"), gens="(1 2)")
        )


# ---------------------------------------------------------------------------
# morphisms


def identity_morphism(marking):
    return FiberMorphism(
        base_map={s: s for s in marking.cover.base},
        fiber_maps={
            s: {p: p for p in marking.fiber_points[s]}
            for s in marking.cover.base
        },
    )


def compose_morphisms(second, first, source_of_first):
    base_map = {s: second.base_map[first.base_map[s]] for s in first.base_map}
    fiber_maps = {}
    for s in source_of_first.cover.base:
        t = first.base_map[s]
        fiber_maps[s] = {
            p: second.fiber_maps[t][q] for p, q in first.fiber_maps[s].items()
        }
    return FiberMorphism(base_map=base_map, fiber_maps=fiber_maps)


def test_identity_morphism_valid(intro_marking):
    report = verify_morphism(
        identity_morphism(intro_marking), intro_marking, intro_marking
    )
    assert report.valid
    assert report.classes_preserved
    assert report.verdicts_agree
    assert report.witnesses[("s1", "s1")].is_identity()


def test_twist_endomorphism_valid(fixtures_dir):
    text = (fixtures_dir / "twist-endomorphism.desc").read_text()
    hm, src, tgt = parse_morphism_document(text, "twist-endomorphism.desc")
    report = verify_morphism(hm, src, tgt)
    assert report.valid
    assert report.classes_preserved
    # per-pair witnesses differ, which is exactly why the check is pointwise
    assert report.witnesses[("s1", "s1")] == parse_permutation("(1 2)(3 4)", 4)
    assert report.witnesses[("s1", "s2")].is_identity()


def test_morphism_document_closes_a_repeated_group_once(fixtures_dir, monkeypatch):
    # The target group is reused when both sections write the same m and
    # group text; the same group in other words is closed again.
    closures = []
    close = descent.group_from_generators

    def counting(m, generators, **kwargs):
        closures.append(m)
        return close(m, generators, **kwargs)

    monkeypatch.setattr(descent, "group_from_generators", counting)
    verdicts = []
    for name, expected in [
        ("twist-endomorphism.desc", 1),
        ("reordered-group-morphism.desc", 2),
    ]:
        closures.clear()
        hm, src, tgt = parse_morphism_document((fixtures_dir / name).read_text(), name)
        assert len(closures) == expected
        assert (src.group is tgt.group) == (expected == 1)
        assert src.group == tgt.group
        report = verify_morphism(hm, src, tgt)
        verdicts.append((report.valid, report.classes_preserved, report.witness_images))
    assert verdicts[0] == verdicts[1] and verdicts[0][0]


def test_class_breaking_map_invalid():
    marking = single_chart(("p1", "p2", "p3", "p4"))
    hm = FiberMorphism(
        base_map={"x": "x"},
        fiber_maps={"x": {"p1": "p1", "p2": "p3", "p3": "p2", "p4": "p4"}},
    )
    report = verify_morphism(hm, marking, marking)
    assert not report.valid
    assert not report.classes_preserved
    assert report.verdicts_agree
    assert ("p2", "p3") in report.class_violations


def test_chart_and_class_verdicts_can_differ():
    # cyclic group: swapping two points preserves the single class but no
    # group element matches the swapped chart
    marking = ChartedMarking(
        cover=FiniteCover(("x",), ("s",), {"s": "x"}),
        m=3,
        group=make_group("(1 2 3)", 3),
        fiber_points={"x": ("p1", "p2", "p3")},
        sigma={"s": ("p1", "p2", "p3")},
    )
    hm = FiberMorphism(
        base_map={"x": "x"},
        fiber_maps={"x": {"p1": "p2", "p2": "p1", "p3": "p3"}},
    )
    report = verify_morphism(hm, marking, marking)
    assert not report.valid
    assert report.classes_preserved
    assert not report.verdicts_agree


def test_composition_of_valid_morphisms_is_valid(fixtures_dir):
    text = (fixtures_dir / "twist-endomorphism.desc").read_text()
    twist, src, tgt = parse_morphism_document(text)
    ident = identity_morphism(src)
    for second, first in [
        (twist, twist),
        (twist, ident),
        (ident, twist),
    ]:
        assert verify_morphism(first, src, tgt).valid
        assert verify_morphism(second, src, tgt).valid
        composed = compose_morphisms(second, first, src)
        assert verify_morphism(composed, src, tgt).valid


def test_morphism_requires_valid_markings(intro_small_group_marking):
    hm = identity_morphism(intro_small_group_marking)
    with pytest.raises(ValueError, match="both markings must pass"):
        verify_morphism(
            hm, intro_small_group_marking, intro_small_group_marking
        )


def test_morphism_checks_each_marking_once(monkeypatch):
    # Each marking's compatibility is decided once per call, by at most one
    # match per chart; the chart verdict then costs at most one match per
    # source chart, where a pair scan would cost one per pair.  Equivalence
    # keeps the same rule.
    star_calls, matches = [], []
    verify_star_unwrapped, get_unwrapped = descent.verify_star, descent._PairWitnesses.get

    def counting_star(marking):
        star_calls.append(marking)
        return verify_star_unwrapped(marking)

    def counting_get(self, key, default=None):
        matches.append(key)
        return get_unwrapped(self, key, default)

    monkeypatch.setattr(descent, "verify_star", counting_star)
    monkeypatch.setattr(descent._PairWitnesses, "get", counting_get)
    charts = ["a b c d", "b a c d", "a b d c", "b a d c", "a b c d", "b a c d"]
    source = _fiber_marking(4, "(1 2),(3 4)", ["a b c d"], [charts])
    target = parse_marking_document(format_marking(source))
    assert target == source and target is not source
    report = verify_morphism(identity_morphism(source), source, target)
    assert report.valid and report.missing == ()
    assert star_calls == [source, target]
    assert star_calls[0] is source and star_calls[1] is target
    k = len(charts)
    assert len(matches) <= 3 * k < k * k
    assert len(dict(report.witness_images)) == k * k
    # Equivalence checks the first marking once, then reads one match per
    # chart of the second, before any witness is read.
    star_calls.clear()
    matches.clear()
    witness = equivalent(source, target)
    assert witness is not None and star_calls == [source]
    assert len(matches) <= 2 * k < k * k
    assert len(dict(witness.witness_images)) == k * k


def test_morphism_structural_checks(intro_marking):
    with pytest.raises(ValueError):
        verify_morphism(
            FiberMorphism(base_map={}, fiber_maps={}),
            intro_marking,
            intro_marking,
        )
    not_a_bijection = FiberMorphism(
        base_map={"x": "x"},
        fiber_maps={"x": {"p1": "p1", "p2": "p1", "p3": "p3", "p4": "p4"}},
    )
    with pytest.raises(ValueError):
        verify_morphism(not_a_bijection, intro_marking, intro_marking)


def test_morphism_report_rendering(intro_marking):
    report = verify_morphism(
        identity_morphism(intro_marking), intro_marking, intro_marking
    )
    text = "".join(render_morphism_report(
        identity_morphism(intro_marking), intro_marking, intro_marking, report
    ))
    assert "charts: VALID" in text
    assert "classes preserved: yes" in text
    assert "verdicts agree: yes" in text
    assert text.endswith("VALID\n")


# ---------------------------------------------------------------------------
# witnesses read on demand, reports streamed


def _wide_marking(k=150):
    """k charts over x, alternating the two orderings of p q under (1 2), and two over y."""
    flips = ["p q", "q p"]
    return _fiber_marking(2, "(1 2)", ["p q", "r t"], [(flips * k)[:k], ["r t", "t r"]])


def _traced_peak(run):
    """``run()``'s result and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_reports_hold_no_pair_table():
    # 150 charts over one point make 22,500 pairs; held in a dict and
    # joined into one string, their report took over 6 MB, and the fiber
    # product of the marking with itself, built in full, 9 MB.
    marking = _wide_marking()
    hm = identity_morphism(marking)

    def star():
        report = verify_star(marking)
        return report, sum(map(len, render_star_report(marking, report)))

    def morphism():
        report = verify_morphism(hm, marking, marking)
        return report, sum(map(len, render_morphism_report(hm, marking, marking, report)))

    def equivalence():
        witness = equivalent(marking, marking)
        return witness, sum(map(len, render_equivalence(witness)))

    (star_report, _), star_peak = _traced_peak(star)
    (morphism_report, _), morphism_peak = _traced_peak(morphism)
    (witness, _), equivalence_peak = _traced_peak(equivalence)
    assert max(star_peak, morphism_peak, equivalence_peak) < 1_000_000
    assert star_report.valid and morphism_report.valid and witness is not None
    assert dict(star_report.witness_images) == scan_star(marking)[0]
    assert dict(morphism_report.witness_images) == scan_morphism(hm, marking, marking)[0]
    # The fiber product of the marking with itself pairs the charts as its star does.
    assert dict(witness.witness_images) == scan_star(marking)[0]
    # The first chunk is the first chart's row: one line per chart over x.
    lines = next(render_star_report(marking, star_report)).splitlines(keepends=True)
    assert lines[:2] == ["(x0c0, x0c0): gamma = ()\n", "(x0c0, x0c1): gamma = (1 2)\n"]
    assert len(lines) == 150
    lines = next(render_morphism_report(hm, marking, marking, morphism_report))
    lines = lines.splitlines(keepends=True)
    assert lines[:2] == ["(x0c0*x0c0): gamma = ()\n", "(x0c0*x0c1): gamma = (1 2)\n"]
    assert len(lines) == 150
    lines = render_equivalence(witness)
    assert next(lines) == f"refinement: {150 * 150 + 2 * 2} cover points\n"
    # Two failing forms of the 150-chart marking: its alternating charts
    # under (), where every other pair fails, and the swap of a marking whose
    # charts all read p q under (), where every pair fails.  Their missing
    # pairs, 11,252 and 22,504, take about 0.7 and 1.4 MB as tuples; neither
    # report nor its rendering holds them.
    alternating = _fiber_marking(2, "()", ["p q", "r t"], [["p q", "q p"] * 75, ["r t", "t r"]])
    alike = _fiber_marking(2, "()", ["p q", "r t"], [["p q"] * 150, ["r t", "r t"]])
    swap = FiberMorphism(
        base_map={"x0": "x0", "x1": "x1"},
        fiber_maps={"x0": {"p": "q", "q": "p"}, "x1": {"r": "t", "t": "r"}},
    )

    def failing_star():
        report = verify_star(alternating)
        return report, sum(map(len, render_star_report(alternating, report)))

    def failing_morphism():
        report = verify_morphism(swap, alike, alike)
        return report, sum(map(len, render_morphism_report(swap, alike, alike, report)))

    (star_report, _), star_peak = _traced_peak(failing_star)
    (morphism_report, _), morphism_peak = _traced_peak(failing_morphism)
    assert max(star_peak, morphism_peak) < 400_000
    assert not star_report.valid and not morphism_report.valid
    assert star_report.missing == scan_star(alternating)[1]
    assert len(star_report.missing) == 2 * 75 * 75 + 2
    assert morphism_report.missing == scan_morphism(swap, alike, alike)[1]
    assert len(morphism_report.missing) == 150 * 150 + 2 * 2


def test_witness_view_answers_as_a_dict():
    marking = _wide_marking(5)
    hm = identity_morphism(marking)
    keys = [
        ("x0c0", "x0c1"),  # a matched pair
        ("x0c0", "x1c0"),  # a cross-fiber pair
        ("x0c0", "zz"),  # an unknown chart
        ("zz", "x0c0"),
        "x0c0",  # keys that are no pair
        ("x0c0",),
        ("x0c0", "x0c1", "x0c2"),
        3,
    ]
    for report in (verify_star(marking), verify_morphism(hm, marking, marking)):
        view = report.witness_images
        table = dict(view)
        assert len(view) == len(table) == 5 * 5 + 4
        assert repr(view) == repr(table) and view == table and table == view
        assert list(view) == list(table)
        for key in keys:
            assert view.get(key, "absent") == table.get(key, "absent"), key
            assert (key in view) == (key in table), key
        with pytest.raises(KeyError):
            view[("x0c0", "x1c0")]
        with pytest.raises(TypeError):
            view.get(["x0c0", "x0c1"])
        # A pickled report keeps its view, which answers as the dict does.
        copied = pickle.loads(pickle.dumps(report))
        assert copied == report and copied.witness_images == table
        for key in keys:
            assert copied.witness_images.get(key, "absent") == table.get(key, "absent"), key


def test_failing_reports_answer_missing_after_a_round_trip():
    flips = ["p q", "q p"]
    marking = _fiber_marking(2, "()", ["p q", "r t"], [flips * 2 + ["p q"], ["r t", "t r"]])
    report = verify_star(marking)
    assert not report.valid and report.missing == scan_star(marking)[1] != ()
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied == report and copied.missing == report.missing


def _render_star(marking):
    return render_star_report(marking, verify_star(marking))


def _render_morphism(marking):
    hm = identity_morphism(marking)
    return render_morphism_report(hm, marking, marking, verify_morphism(hm, marking, marking))


def _render_equivalence(marking):
    return render_equivalence(equivalent(marking, marking))


_CLASS_LINES = ["class(p) = [1]", "class(q) = [1]", "class(r) = [1]", "class(t) = [1]"]


@pytest.mark.parametrize(
    "render,sep,says,head,tail",
    [
        (_render_star, ", ", "gamma = ", [], [*_CLASS_LINES, "VALID"]),
        (_render_morphism, "*", "gamma = ", [], [
            "charts: VALID", "classes preserved: yes", "verdicts agree: yes", "VALID",
        ]),
        (_render_equivalence, "*", "left gamma = (), right gamma = ",
         [f"refinement: {5 * 5 + 4} cover points"], ["EQUIVALENT"]),
    ],
    ids=["star", "morphism", "equivalence"],
)
def test_report_yields_a_chunk_per_chart(render, sep, says, head, tail):
    # Any header line, one chunk of whole lines per source chart (the pairs
    # it heads), and then the tail, one line per chunk.
    marking = _wide_marking(5)
    chunks = list(render(marking))
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert chunks[: len(head)] == [line + "\n" for line in head]
    rows = chunks[len(head) : len(head) + len(marking.cover.cover)]
    flips = ["()", "(1 2)"]
    x_charts, y_charts = [f"x0c{k}" for k in range(5)], ["x1c0", "x1c1"]
    assert [chunk.splitlines() for chunk in rows] == [
        [f"({a}{sep}{b}): {says}{flips[(i + j) % 2]}" for j, b in enumerate(charts)]
        for charts in (x_charts, y_charts)
        for i, a in enumerate(charts)
    ]
    assert chunks[len(head) + len(rows) :] == [line + "\n" for line in tail]
    assert list(render_equivalence(None)) == ["NOT EQUIVALENT\n"]


# ---------------------------------------------------------------------------
# globalization


def test_globalize_identity_cover():
    marking = single_chart(("p1", "p2", "p3", "p4"), gens="")
    flat = globalize_trivial_group(marking)
    assert flat.sigma == {"x": ("p1", "p2", "p3", "p4")}
    assert flat.cover.cover == ("x",)
    again = globalize_trivial_group(flat)
    assert again.sigma == flat.sigma


def test_globalize_two_sheets():
    marking = two_sheets(
        ("p1", "p2", "p3", "p4"), ("p1", "p2", "p3", "p4"), gens=""
    )
    flat = globalize_trivial_group(marking)
    assert flat.cover.cover == ("x",)
    assert flat.sigma["x"] == ("p1", "p2", "p3", "p4")


def test_globalize_preconditions(intro_marking):
    with pytest.raises(ValueError):
        globalize_trivial_group(intro_marking)  # group not trivial
    disagreeing = two_sheets(
        ("p1", "p2", "p3", "p4"), ("p2", "p1", "p3", "p4"), gens=""
    )
    assert not verify_star(disagreeing).valid
    with pytest.raises(ValueError):
        globalize_trivial_group(disagreeing)


# ---------------------------------------------------------------------------
# documents


def test_parse_round_trip(intro_marking):
    text = format_marking(intro_marking)
    assert parse_marking_document(text) == intro_marking


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (Path(__file__).parent / "fixtures").glob("*.desc"))
)
def test_fixture_markings_round_trip(fixtures_dir, name):
    text = (fixtures_dir / name).read_text()
    if "[morphism]" in text:
        markings = parse_morphism_document(text, name)[1:]
    else:
        markings = (parse_marking_document(text, name),)
    for marking in markings:
        formatted = format_marking(marking)
        again = parse_marking_document(formatted)
        assert again == marking
        assert format_marking(again) == formatted


def test_parse_reports_file_and_line():
    bad = "[marking]\nm = 4\nbase = x\nnonsense\n"
    with pytest.raises(FormatError) as err:
        parse_marking_document(bad, "bad.desc")
    assert "bad.desc:4" in str(err.value)


MORPHISM_DOC = (
    "[marking source]\nm = 1\nbase = x\ncover = s -> x\nfiber x = p\nsigma s = p\n"
    "[marking target]\nm = 1\nbase = x\ncover = s -> x\nfiber x = p\nsigma s = p\n"
    "[morphism]\nh = x -> x\nmap x = p -> p\n"
)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("m = 4\n", "before any"),
        ("[marking]\nbase = x\ncover = s -> x\n", "missing 'm"),
        ("[marking]\nm = q\n", "integer"),
        ("[marking]\nm = 4\nm = 4\n", "duplicate"),
        ("[marking]\nm = 4\nbase = x\ncover = s => x\n", "expected 'a -> b'"),
        ("[marking]\nm = 4\nwhatever = 3\n", "unknown key"),
        ("[marking]\nm = 4\nbase = x*y\n", "bad identifier"),
        ("[marking]\nm = 4\ngroup = (1 5)\nbase = x\ncover = s -> x\n", "outside"),
        ("[marking]\nm = 4\nbase = x\ncover = -> x\n", "doc.desc:4: bad identifier ''"),
        (
            "[marking]\nm = 4\nbase = x\ncover = s -> x, a b -> x\n",
            "doc.desc:4: bad identifier 'a b'",
        ),
        (
            "[marking]\nm = 1\nbase = x\ncover = s -> x\nfiber x = p\nfiber x = p\n",
            "doc.desc:6: duplicate 'fiber x'",
        ),
        (MORPHISM_DOC + "k = x -> x\n", "doc.desc:16: unknown key 'k'"),
        (MORPHISM_DOC + "map x = p -> p\n", "doc.desc:16: duplicate 'map x'"),
        (
            "[marking]\nm = 1\nbase = x\ncover = s -> x, s -> x\nfiber x = p\n",
            "doc.desc:4: two arrows from s",
        ),
    ],
)
def test_parse_failures(text, needle):
    parse = parse_morphism_document if "[morphism]" in text else parse_marking_document
    with pytest.raises(FormatError) as err:
        parse(text, "doc.desc")
    assert needle in str(err.value)
    assert str(err.value).startswith("doc.desc:")


@pytest.mark.parametrize(
    "old,new,line,point",
    [
        ("h = x -> x", "h = x -> y, x -> x", 22, "x"),
        ("map x = p1 -> p2,", "map x = p1 -> p3, p1 -> p2,", 23, "p1"),
    ],
)
def test_repeated_arrow_source_is_refused(fixtures_dir, tmp_path, capsys, old, new, line, point):
    # A map keeping only the last arrow from a point would make both documents valid.
    text = (fixtures_dir / "twist-endomorphism.desc").read_text().replace(old, new)
    assert new in text
    with pytest.raises(FormatError) as err:
        parse_morphism_document(text, "doc.desc")
    assert str(err.value) == f"doc.desc:{line}: two arrows from {point}"
    path = tmp_path / "doc.desc"
    path.write_text(text)
    assert main(["verify-morphism", str(path)]) == 2
    assert capsys.readouterr().out == ""


# A copy of each section, placed before the fixture's own: an identity
# morphism, or a marking with no cover.
REPEATED_SECTIONS = {
    "morphism": "h = x -> x\nmap x = p1 -> p1, p2 -> p2, p3 -> p3, p4 -> p4\n",
    "marking source": "m = 9\nbase = x\n",
    "marking target": "m = 9\nbase = x\n",
}


@pytest.mark.parametrize("name", REPEATED_SECTIONS)
def test_repeated_section_is_refused(fixtures_dir, tmp_path, capsys, name):
    # Sections kept by name would judge the document on its last copy alone.
    fixture = (fixtures_dir / "twist-endomorphism.desc").read_text()
    text = f"[{name}]\n{REPEATED_SECTIONS[name]}{fixture}"
    line = text.splitlines().index(f"[{name}]", 1) + 1
    with pytest.raises(FormatError) as err:
        parse_morphism_document(text, "doc.desc")
    assert str(err.value) == f"doc.desc:{line}: duplicate [{name}] section"
    path = tmp_path / "doc.desc"
    path.write_text(text)
    assert main(["verify-morphism", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_morphism_document_requires_all_sections():
    with pytest.raises(FormatError):
        parse_morphism_document("[marking source]\nm = 1\n", "doc.desc")


def test_semantic_errors_are_anchored():
    # structurally broken marking: sigma uses a point outside the fiber
    text = (
        "[marking]\n"
        "m = 2\n"
        "base = x\n"
        "cover = s -> x\n"
        "fiber x = p q\n"
        "sigma s = p z\n"
    )
    with pytest.raises(FormatError) as err:
        parse_marking_document(text, "doc.desc")
    assert str(err.value).startswith("doc.desc:")
