"""The group layer on members and generators: equality, lazy elements, orbits."""

import random

from sympy.combinatorics import Permutation as SymPermutation, PermutationGroup

from graphstrata.perm import (
    Permutation,
    group_from_generators,
    label_orbits,
    parse_generators,
    symmetric_group,
    symmetric_group_on,
)


def test_equal_groups_ignore_generators():
    a = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    b = group_from_generators(4, parse_generators("(3 4),(1 2)", 4))
    c = group_from_generators(4, parse_generators("(1 2)(3 4),(1 2)", 4))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert symmetric_group(3) == group_from_generators(
        3, parse_generators("(1 2 3),(1 2)", 3)
    )
    assert a != group_from_generators(4, parse_generators("(1 2)", 4))
    assert group_from_generators(2, ()) != group_from_generators(3, ())


def test_elements_are_built_on_first_read_only():
    group = group_from_generators(5, parse_generators("(1 2 3 4 5),(1 2)", 5))
    assert "elements" not in vars(group)
    assert group.order == 120
    assert Permutation((2, 1, 3, 4, 5)) in group
    assert "elements" not in vars(group)
    first = group.elements
    assert group.elements is first
    assert [p.images for p in first] == sorted(group.members)


def test_label_orbits_agree_with_sympy():
    rng = random.Random(61)
    for _ in range(200):
        m = rng.randint(1, 7)
        gens = [
            Permutation(tuple(rng.sample(range(1, m + 1), m)))
            for _ in range(rng.randint(0, 3))
        ]
        group = group_from_generators(m, gens)
        oracle = PermutationGroup(
            [SymPermutation([j - 1 for j in g.images]) for g in gens]
            or [SymPermutation(list(range(m)))]
        )
        expected = {}
        for orbit in oracle.orbits():
            for i in orbit:
                expected[i + 1] = frozenset(j + 1 for j in orbit)
        assert label_orbits(group) == tuple(expected[i] for i in range(1, m + 1))
    sub = symmetric_group_on([2, 4], 5)
    assert label_orbits(sub) == (
        frozenset({1}),
        frozenset({2, 4}),
        frozenset({3}),
        frozenset({2, 4}),
        frozenset({5}),
    )
