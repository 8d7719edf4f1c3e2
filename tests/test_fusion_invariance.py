"""Fusion depends on Γ as a subgroup of S_m, and moves with it under conjugation.

The quotient [M̄_{g,m}/Γ] depends on the member set of Γ, not on the
generators that name it, and relabeling the marks by σ identifies it with
[M̄_{g,m}/σΓσ⁻¹].  These checks compare the library with itself under those
two symmetries of the problem, so they share no algorithm with fusion:

- **presentation:** seeded random members of Γ, drawn until they close to
  Γ, give the same ``gamma-census/1`` bytes after the group line, the same
  ``gamma_canonical_form`` of every labeled class, and the same
  ``gamma_equivalent`` verdicts;
- **conjugation:** under σΓσ⁻¹ each orbit is σ times an orbit of Γ, and
  each stabilizer is τ(σSσ⁻¹)τ⁻¹, τ the member carrying σ·rep to the new
  representative; so each stabilizer is checked as a subgroup, not only by
  its order.

Each check is also run on one planted fault, which it must catch.
"""

import functools
import random

import pytest

from graphstrata.gamma import (
    GammaCensus,
    GammaClass,
    enumerate_gamma_strata,
    gamma_canonical_form,
    gamma_census_chunks,
    gamma_equivalent,
)
from graphstrata.perm import (
    PermGroup,
    Permutation,
    group_from_generators,
    parse_generators,
    symmetric_group,
)
from graphstrata.stablegraph import canonical_form, enumerate_stable_graphs

CASES = [
    (0, 4, "(1 2),(2 3),(3 4)"),
    (0, 5, "(1 2),(2 3)"),
    (0, 5, "(1 2),(2 3),(4 5)"),
    (0, 5, "(1 2 3 4 5)"),
    (0, 6, "(1 2 3 4 5 6)"),
    (1, 3, "(1 2),(2 3)"),
    (1, 4, "(1 2)(3 4),(1 3)(2 4)"),
    (2, 2, "(1 2)"),
    (2, 3, "(1 2 3)"),
]
SEEDS = (0, 1, 2)
DRAWS = 3  # classes drawn per case and seed, each paired in its orbit and at random


@functools.cache
def _setup(g, m, gens):
    census = enumerate_stable_graphs(g, m)
    group = group_from_generators(m, parse_generators(gens, m))
    return census, group, enumerate_gamma_strata(g, m, group, census=census)


def _after_group_line(fused):
    text = "".join(gamma_census_chunks(fused))
    return text[text.index('\n  "total": '):]


def _random_presentation(group, rng):
    """Random members of ``group``, drawn until they generate it."""
    gens = []
    while True:
        gens.append(rng.choice(group.elements))
        regenerated = group_from_generators(group.degree, gens)
        if regenerated.members == group.members:
            return regenerated


def _fuse(g, m, group, census):
    return enumerate_gamma_strata(g, m, group, census=census)


def _first_generator_fuse(g, m, group, census):
    """A planted fault: fusion under the closure of the first generator alone."""
    return _fuse(g, m, group_from_generators(m, group.generators[:1]), census)


def _presentation_faults(g, m, gens, seed, fuse=_fuse):
    """What changes when Γ is given by a random generating set, by ``fuse``."""
    census, group, fused = _setup(g, m, gens)
    rng = random.Random(seed)
    other = _random_presentation(group, rng)
    faults = []
    if _after_group_line(fuse(g, m, other, census)) != _after_group_line(fused):
        faults.append("gamma-census bytes")
    key = {x: cls.representative for cls in fused.all_classes() for x in cls.orbit}
    if any(gamma_canonical_form(x, other) != key[x] for x in census.all_graphs()):
        faults.append("gamma_canonical_form")
    classes = list(fused.all_classes())
    for _ in range(DRAWS):
        cls = rng.choice(classes)
        a = rng.choice(cls.orbit)
        for b in (rng.choice(cls.orbit), rng.choice(census.classes_by_nodes[cls.nodes])):
            verdicts = {gamma_equivalent(a, b, h) is None for h in (group, other)}
            if verdicts != {key[a] != key[b]}:
                faults.append(f"gamma_equivalent {a} {b}")
    return faults


def _conjugated(group, sigma):
    inverse = sigma.inverse()
    return group_from_generators(group.degree, [sigma * s * inverse for s in group.generators])


def _conjugation_faults(fused, sigma, image):
    """Where ``image``, the fusion under σΓσ⁻¹, is not σ times ``fused``."""
    faults = []
    inverse = sigma.inverse()
    for nodes, level in fused.classes_by_nodes.items():
        found = {frozenset(cls.orbit): cls for cls in image.classes_by_nodes.get(nodes, ())}
        for cls in level:
            moved = found.get(frozenset(canonical_form(x, sigma) for x in cls.orbit))
            if moved is None:
                faults.append(f"orbit of {cls.representative}")
                continue
            start = canonical_form(cls.representative, sigma)
            tau = next(t for t in image.group if canonical_form(start, t) == moved.representative)
            conjugate = {(tau * sigma * s * inverse * tau.inverse()).images for s in cls.stabilizer}
            if conjugate != moved.stabilizer.members:
                faults.append(f"stabilizer of {moved.representative}")
        if len(found) != len(level):
            faults.append(f"classes at {nodes} nodes")
    return faults


def _sigma(m, seed):
    images = list(range(1, m + 1))
    random.Random(seed).shuffle(images)
    return Permutation(tuple(images))


def _conjugation_image(g, m, gens, seed):
    census, group, fused = _setup(g, m, gens)
    sigma = _sigma(m, seed)
    return fused, sigma, _fuse(g, m, _conjugated(group, sigma), census)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("g, m, gens", CASES)
def test_fusion_is_independent_of_the_presentation(g, m, gens, seed):
    assert _presentation_faults(g, m, gens, seed) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("g, m, gens", CASES)
def test_fusion_moves_with_a_conjugation(g, m, gens, seed):
    assert _conjugation_faults(*_conjugation_image(g, m, gens, seed)) == []


def test_presentation_check_catches_a_fusion_closed_from_one_generator():
    # Where the first drawn member generates Γ alone the fault changes
    # nothing; everywhere else the check must see it.
    caught = []
    for g, m, gens in CASES:
        group = _setup(g, m, gens)[1]
        first = _random_presentation(group, random.Random(SEEDS[0])).generators[:1]
        if group_from_generators(m, first).order < group.order:
            caught.append(_presentation_faults(g, m, gens, SEEDS[0], _first_generator_fuse))
    assert len(caught) >= 6
    assert all("gamma-census bytes" in faults for faults in caught)


def _with_a_conjugate_stabilizer(image):
    """A planted fault: the first stabilizer with another conjugate in S_m
    replaced by it; with the representative it belongs to."""
    for cls in image.all_classes():
        stab = cls.stabilizer
        for r in symmetric_group(image.m):
            members = frozenset((r * s * r.inverse()).images for s in stab)
            if members != stab.members:
                swapped = GammaClass(cls.nodes, cls.representative, cls.orbit,
                                     PermGroup(image.m, stab.generators, members))
                classes = {nodes: tuple(swapped if c is cls else c for c in level)
                           for nodes, level in image.classes_by_nodes.items()}
                return cls.representative, GammaCensus(image.g, image.m, image.group, classes)
    raise AssertionError("every stabilizer is normal in S_m")


def test_conjugation_check_catches_a_stabilizer_swapped_for_its_conjugate():
    fused, sigma, image = _conjugation_image(0, 5, "(1 2),(2 3),(4 5)", SEEDS[0])
    rep, faulty = _with_a_conjugate_stabilizer(image)
    assert _conjugation_faults(fused, sigma, faulty) == [f"stabilizer of {rep}"]
