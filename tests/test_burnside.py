"""The number of fused classes, counted by Burnside's lemma.

For a group Γ acting on the labeled classes by relabeling legs, the number
of orbits is (1/|Γ|)·Σ_γ fix(γ), where fix(γ) counts the classes that γ
carries to themselves.  Classes come from the brute-force ``oracle``, are
compared by ``iso_key``, and the group is closed by breadth-first search
over image tuples (``cycle_index.closure``), so nothing is shared with
``gamma.py``.
"""

import functools

import pytest

from graphstrata.gamma import enumerate_gamma_strata
from graphstrata.perm import group_from_generators, parse_generators
from cycle_index import closure
from oracle import brute_force_census, iso_key

_census = functools.cache(brute_force_census)


def _fixed(key, gamma):
    genera, edges, legs = key
    moved = [None] * len(legs)
    for i, vertex in enumerate(legs):
        moved[gamma[i] - 1] = vertex
    return iso_key(genera, edges, tuple(moved)) == key


CASES = [
    (0, 4, "(1 2)(3 4),(1 3)(2 4)"),
    (0, 4, "(1 2 3 4)"),
    (0, 4, "(1 2),(2 3),(3 4)"),
    (0, 5, "(1 2 3 4 5)"),
    (0, 5, "(1 2),(2 3),(4 5)"),
    (0, 5, "(1 2)(3 4),(1 3)(2 4)"),
    (0, 5, "(1 2)(3 4)"),
    (0, 5, ""),
    (0, 6, "(1 2 3 4 5 6)"),
    (0, 6, "(1 2)(3 4),(1 3)(2 4)"),
    (0, 6, "(1 2),(2 3),(4 5),(5 6)"),
    (1, 2, "(1 2)"),
    (1, 3, "(1 2 3)"),
    (1, 3, "(1 2),(2 3)"),
    (2, 1, ""),
]


@pytest.mark.parametrize("g, m, gens", CASES)
def test_fused_class_count_is_burnside_average(g, m, gens):
    elements = closure(m, gens)
    group = group_from_generators(m, parse_generators(gens, m))
    assert len(elements) == group.order
    fused = enumerate_gamma_strata(g, m, group).counts()
    census = _census(g, m)
    assert {n for n, count in fused.items() if count} <= set(census)
    for nodes, keys in census.items():
        total = sum(_fixed(key, gamma) for gamma in elements for key in keys)
        assert total % len(elements) == 0
        assert fused.get(nodes, 0) == total // len(elements), nodes
