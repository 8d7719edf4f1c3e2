"""Descent verdicts do not depend on how chart positions are numbered or how Γ is written.

A chart σ numbers the m points of a fiber by positions 1..m, and two charts
over one point differ by a member of Γ acting on positions.  Renumbering
the positions of every chart by one permutation π (each chart becomes σ∘π)
carries the transition j to π⁻¹jπ, so under the group π⁻¹Γπ every
``verify_star`` verdict, every ``equivalent`` verdict and both verdicts of
``verify_morphism`` must stay as they were.  And ``equivalent`` reads Γ as
a member set: a valid marking is equivalent to itself with Γ written by
other generators.  The fixtures come from the ``inputs`` builders that
``test_acceptance`` uses, under their own seed, some with one chart
shuffled; one planted fault, the charts renumbered while Γ is kept, must
change some verdict.
"""

import functools
import random

from graphstrata.descent import (
    ChartedMarking,
    FiberMorphism,
    equivalent,
    verify_morphism,
    verify_star,
)
from graphstrata.perm import Permutation

from inputs import (
    class_preserving_maps,
    conjugated,
    random_group,
    random_marking,
    random_presentation,
)

SEED = 20260
FIXTURES = 200


def _renumbered(marking, pi, group):
    """Every chart σ∘π, under ``group``."""
    sigma = {c: tuple(chart[j - 1] for j in pi.images) for c, chart in marking.sigma.items()}
    return ChartedMarking(marking.cover, marking.m, group, marking.fiber_points, sigma)


def _with_a_shuffled_chart(rng, marking):
    """``marking`` with one chart's points reordered at random, which
    usually leaves it no transition in Γ."""
    sigma = dict(marking.sigma)
    chart = rng.choice(sorted(sigma))
    sigma[chart] = tuple(rng.sample(sigma[chart], len(sigma[chart])))
    return ChartedMarking(marking.cover, marking.m, marking.group, marking.fiber_points, sigma)


def _twisted(rng, marking):
    """``marking`` with every chart σ replaced by σ∘γ, γ a random member of Γ."""
    members = marking.group.elements
    sigma = {}
    for c, chart in marking.sigma.items():
        gamma = rng.choice(members)
        sigma[c] = tuple(chart[j - 1] for j in gamma.images)
    return ChartedMarking(marking.cover, marking.m, marking.group, marking.fiber_points, sigma)


@functools.cache
def _fixtures(seed):
    """(source, second, target, morphism or None, π) per fixture: ``second``
    lives over the source's setting, ``target`` is the morphism's target."""
    rng = random.Random(seed)
    out = []
    while len(out) < FIXTURES:
        m = rng.randint(1, 6)
        group = random_group(rng, m)
        source = random_marking(rng, m, group, [f"x{i}" for i in range(rng.randint(1, 3))], "p")
        second = _twisted(rng, source)
        if rng.random() < 0.4:
            source = _with_a_shuffled_chart(rng, source)
        if rng.random() < 0.4:
            second = _with_a_shuffled_chart(rng, second)
        target_base = [f"y{i}" for i in range(rng.randint(1, 3))]
        target = random_marking(rng, m, group, target_base, "q")
        base_map = {s: rng.choice(target_base) for s in source.cover.base}
        morphism = None
        if verify_star(source).valid:
            if rng.random() < 0.5:
                fiber_maps = class_preserving_maps(rng, source, target, base_map)
            else:
                fiber_maps = {
                    s: dict(zip(points, rng.sample(target.fiber_points[base_map[s]], m)))
                    for s, points in source.fiber_points.items()
                }
            if fiber_maps is not None:
                morphism = FiberMorphism(base_map, fiber_maps)
        pi = Permutation(tuple(rng.sample(range(1, m + 1), m)))
        out.append((source, second, target, morphism, pi))
    return out


def _verdicts(source, second, target, morphism):
    """Whether each marking is valid, whether the first two are equivalent,
    and the morphism's chart and class verdicts where its markings are valid."""
    star = tuple(verify_star(marking).valid for marking in (source, second, target))
    equal = equivalent(source, second) is not None
    if morphism is None or not (star[0] and star[2]):
        return star, equal, None
    report = verify_morphism(morphism, source, target)
    return star, equal, (report.valid, report.classes_preserved)


@functools.cache
def _fixture_verdicts(seed):
    return [_verdicts(*fixture[:4]) for fixture in _fixtures(seed)]


def _renumbering_changes(seed, keep_group=False):
    """The fixtures whose verdicts change when every chart is renumbered;
    the three markings of a fixture share one Γ."""
    changed = []
    for (source, second, target, morphism, pi), before in zip(
        _fixtures(seed), _fixture_verdicts(seed)
    ):
        group = source.group if keep_group else conjugated(source.group, pi.inverse())
        moved = [_renumbered(marking, pi, group) for marking in (source, second, target)]
        if _verdicts(*moved, morphism) != before:
            changed.append((source, pi, before))
    return changed


def test_descent_verdicts_survive_renumbering_the_chart_positions():
    assert _renumbering_changes(SEED) == []


def test_the_fixtures_reach_every_verdict():
    verdicts = _fixture_verdicts(SEED)
    assert {star[:2] for star, _, _ in verdicts} == {
        (True, True), (True, False), (False, True), (False, False),
    }
    assert {equal for _, equal, _ in verdicts} == {True, False}
    morphisms = {morphism for _, _, morphism in verdicts if morphism is not None}
    assert morphisms == {(True, True), (False, True), (False, False)}


def test_a_marking_is_equivalent_to_itself_under_other_generators():
    rng = random.Random(SEED + 1)
    checked = 0
    for source, *_ in _fixtures(SEED):
        if not verify_star(source).valid:
            continue
        other = random_presentation(source.group, rng)
        rewritten = ChartedMarking(
            source.cover, source.m, other, source.fiber_points, source.sigma
        )
        assert equivalent(source, rewritten) is not None, source
        assert equivalent(rewritten, source) is not None, source
        checked += 1
    assert checked >= FIXTURES // 2


def test_renumbering_while_keeping_the_group_is_caught():
    assert _renumbering_changes(SEED, keep_group=True) != []
