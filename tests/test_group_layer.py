"""The group layer on members and generators: equality, lazy elements, orbits."""

import random

from graphstrata.perm import (
    Permutation,
    group_from_generators,
    label_orbits,
    parse_generators,
    symmetric_group,
    symmetric_group_on,
)

from inputs import sympy_group


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
    # Three fixed groups, then 200 seeded random ones, each with the
    # generators the oracle reads.
    fixed = (
        group_from_generators(4, parse_generators("(1 2),(3 4)", 4)),
        symmetric_group_on([2, 3], 4),
        symmetric_group(5),
    )
    cases = [(group, group.generators) for group in fixed]
    rng = random.Random(61)
    for _ in range(200):
        m = rng.randint(1, 7)
        gens = [
            Permutation(tuple(rng.sample(range(1, m + 1), m)))
            for _ in range(rng.randint(0, 3))
        ]
        cases.append((group_from_generators(m, gens), gens))
    for group, gens in cases:
        m = group.degree
        expected = {}
        for orbit in sympy_group(m, gens).orbits():
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
