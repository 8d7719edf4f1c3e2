"""The inputs that more than one Tier-1 module builds, each built one way.

- ``census(g, m)``: the labeled census of (g, m) to its full dimension,
  built once per session, and ``small_censuses()``.  A test that counts,
  times or re-checks a census build makes its own.
- ``shuffled(graph, rng)``: the same graph under a random vertex renaming,
  its edges listed in random order.
- ``conjugated(group, sigma)``: σΓσ⁻¹.
- ``random_group``, ``random_marking``, ``class_preserving_maps`` and
  ``random_presentation``: the seeded random groups, markings, fiber maps
  and generating sets of the descent and fusion checks.
- ``sympy_group(m, generators)``: the same generators as a
  ``sympy.combinatorics`` group, the group layer's oracle.
"""

import functools

from sympy.combinatorics import Permutation as SymPermutation, PermutationGroup

from graphstrata.descent import ChartedMarking, FiniteCover, class_function
from graphstrata.perm import Permutation, group_from_generators
from graphstrata.stablegraph import StableGraph, enumerate_stable_graphs


SMALL_SIGNATURES = ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 0))


@functools.cache
def census(g, m):
    return enumerate_stable_graphs(g, m, max_dim=3 * g - 3 + m)


def small_censuses():
    """The censuses of ``SMALL_SIGNATURES``, of 1 to 26 classes each."""
    return [census(g, m) for g, m in SMALL_SIGNATURES]


def shuffled(graph, rng):
    """The same graph with vertices renamed and edges listed in random order."""
    nv = graph.num_vertices
    perm = list(range(nv))
    rng.shuffle(perm)
    genera = [0] * nv
    for v in range(nv):
        genera[perm[v]] = graph.genera[v]
    edges = [(perm[a], perm[b]) for a, b in graph.edges]
    rng.shuffle(edges)
    return StableGraph(tuple(genera), tuple(edges), tuple(perm[v] for v in graph.legs))


def conjugated(group, sigma):
    """σΓσ⁻¹, generated by the conjugates of Γ's generators."""
    inverse = sigma.inverse()
    return group_from_generators(group.degree, [sigma * s * inverse for s in group.generators])


def random_group(rng, m):
    """The closure of up to two random permutations of degree m."""
    gens = []
    for _ in range(rng.randint(0, 2)):
        images = list(range(1, m + 1))
        rng.shuffle(images)
        gens.append(Permutation(tuple(images)))
    return group_from_generators(m, gens)


def random_presentation(group, rng):
    """Random members of ``group``, drawn until they generate it."""
    gens = []
    while True:
        gens.append(rng.choice(group.elements))
        regenerated = group_from_generators(group.degree, gens)
        if regenerated.members == group.members:
            return regenerated


def random_marking(rng, m, group, base_ids, prefix):
    """One to three charts over each base point, each a random member of
    ``group`` after one random ordering of the point's fiber."""
    base = tuple(base_ids)
    cover = []
    down = {}
    for s in base:
        for k in range(rng.randint(1, 3)):
            name = f"{s}c{k}"
            cover.append(name)
            down[name] = s
    fiber_points = {
        s: tuple(f"{prefix}{i}_{j}" for j in range(m))
        for i, s in enumerate(base)
    }
    sigma = {}
    for s in base:
        ordering = list(fiber_points[s])
        rng.shuffle(ordering)
        for name in (c for c in cover if down[c] == s):
            gamma = group.elements[rng.randrange(group.order)]
            sigma[name] = tuple(ordering[gamma(i) - 1] for i in range(1, m + 1))
    return ChartedMarking(
        cover=FiniteCover(base, tuple(cover), down),
        m=m,
        group=group,
        fiber_points=fiber_points,
        sigma=sigma,
    )


def class_preserving_maps(rng, source, target, base_map):
    """Random fiber maps that keep each point's class, or None where a
    class has too few points over the image."""
    classes1 = class_function(source)
    classes2 = class_function(target)
    fiber_maps = {}
    for s in source.cover.base:
        pools = {}
        for q in target.fiber_points[base_map[s]]:
            pools.setdefault(classes2[q], []).append(q)
        fm = {}
        for p in source.fiber_points[s]:
            pool = pools.get(classes1[p])
            if not pool:
                return None
            fm[p] = pool.pop(rng.randrange(len(pool)))
        fiber_maps[s] = fm
    return fiber_maps


def sympy_group(m, generators):
    """The group the generators generate, in ``sympy.combinatorics``: its
    points are 0-based, and it needs at least one generator."""
    return PermutationGroup(
        [SymPermutation([j - 1 for j in g.images]) for g in generators]
        or [SymPermutation(list(range(m)))]
    )
