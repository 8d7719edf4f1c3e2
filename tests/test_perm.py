import itertools
import random

import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation as SymPermutation, PermutationGroup

from graphstrata.limits import SizeLimitError
from graphstrata.perm import (
    PermGroup,
    Permutation,
    cycle_notation,
    group_from_generators,
    label_orbits,
    parse_generators,
    parse_permutation,
    symmetric_group,
    symmetric_group_on,
)


def perms(max_degree=6):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(
            lambda images: Permutation(tuple(images))
        )
    )


def test_images_define_the_map():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(2) == 3 and p(3) == 1


def test_composition_applies_right_factor_first():
    a = parse_permutation("(1 2)", 3)
    b = parse_permutation("(2 3)", 3)
    # (a*b)(3) = a(b(3)) = a(2) = 1
    assert (a * b)(3) == 1
    assert (a * b).images == (2, 3, 1)
    assert (b * a).images == (3, 1, 2)


def test_product_with_a_non_permutation_is_refused():
    p = parse_permutation("(1 2)", 3)
    for other in (3, (2, 1, 3), "x", None):
        assert p.__mul__(other) is NotImplemented
        for product in (lambda: p * other, lambda: other * p):
            with pytest.raises(TypeError):
                product()
    with pytest.raises(ValueError, match="degree 2 does not match m = 3"):
        p * parse_permutation("(1 2)", 2)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_from_cycles_validation():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 5)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


@pytest.mark.parametrize(
    "text,degree,images",
    [
        ("()", 3, (1, 2, 3)),
        ("(1 2)", 4, (2, 1, 3, 4)),
        ("(1 2)(3 4)", 4, (2, 1, 4, 3)),
        ("(1 2 3)", 3, (2, 3, 1)),
        ("  (2 3) ( 1 4 ) ", 4, (4, 3, 2, 1)),
    ],
)
def test_parse_permutation(text, degree, images):
    assert parse_permutation(text, degree).images == images


def test_zero_padded_labels_read_by_value_at_any_length():
    # Padding past the digit count int() converts changes nothing either.
    for zeros in (1, 5000):
        assert parse_permutation(f"({'0' * zeros}1 2)", 3).images == (2, 1, 3)


@pytest.mark.parametrize("text", ["", "1 2", "(1 2", "(1,2)", "(1 2)x"])
def test_parse_permutation_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_permutation(text, 4)


def _reference_cycle_notation(images):
    """Cycles by following each unvisited label, written least label first."""
    mapping = dict(enumerate(images, start=1))
    unvisited = set(mapping)
    cycles = []
    while unvisited:
        start = min(unvisited)
        cycle = [start]
        unvisited.discard(start)
        while mapping[cycle[-1]] != start:
            cycle.append(mapping[cycle[-1]])
            unvisited.discard(cycle[-1])
        if len(cycle) > 1:
            cycles.append("(" + " ".join(str(a) for a in cycle) + ")")
    return "".join(cycles) or "()"


def _cycle_notation_inputs():
    """Every permutation of degree at most 6, then a seeded sample of degrees 7-11."""
    for m in range(1, 7):
        yield from itertools.permutations(range(1, m + 1))
    rng = random.Random(11)
    for m in range(7, 12):
        for _ in range(200):
            yield tuple(rng.sample(range(1, m + 1), m))


def test_cycle_notation_matches_reference_walk():
    seen = 0
    two_digit = set()
    for images in _cycle_notation_inputs():
        expected = _reference_cycle_notation(images)
        assert cycle_notation(images) == expected
        p = Permutation(images)
        assert p.cycle_string() == str(p) == expected
        assert "".join(
            "(" + " ".join(map(str, c)) + ")" for c in p.cycles()
        ) == ("" if expected == "()" else expected)
        two_digit.update({"10", "11"} & set(expected.strip("()").replace(")(", " ").split()))
        seen += 1
    assert seen == 1 + 2 + 6 + 24 + 120 + 720 + 5 * 200
    assert two_digit == {"10", "11"}


def test_cycle_string_round_trip():
    for text in ["()", "(1 2)", "(1 2)(3 4)", "(1 3 2)", "(2 4)"]:
        p = parse_permutation(text, 4)
        assert parse_permutation(p.cycle_string(), 4) == p


@given(perms())
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms())
def test_cycle_string_parses_back(p):
    assert parse_permutation(p.cycle_string(), p.degree) == p


@given(perms(5), perms(5))
def test_inverse_reverses_products(a, b):
    if a.degree != b.degree:
        return
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_parse_generators_comma_separated():
    gens = parse_generators("(1 2), (3 4)", 4)
    assert [g.images for g in gens] == [(2, 1, 3, 4), (1, 2, 4, 3)]
    assert parse_generators("", 4) == ()


@pytest.mark.parametrize(
    "gens,order",
    [
        ("", 1),
        ("(1 2)", 2),
        ("(1 2),(3 4)", 4),
        ("(1 2 3)", 3),
        ("(1 2),(2 3),(3 4)", 24),
    ],
)
def test_group_closure_orders(gens, order):
    group = group_from_generators(4, parse_generators(gens, 4))
    assert group.order == order


def test_group_elements_sorted_and_identity_first():
    group = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    assert list(group.elements) == sorted(group.elements)
    assert group.elements[0].is_identity()


@pytest.mark.parametrize(
    "m,gens",
    [(3, "")]
    + [(n, ",".join(f"({i} {i + 1})" for i in range(1, n))) for n in range(1, 7)]
    + [(5, "(1 2 3 4 5)"), (5, "(1 2),(2 3),(4 5)")],
)
def test_group_elements_are_the_sorted_members(m, gens):
    # ``elements`` builds its members past the bijection check; they must
    # equal what the checking constructor builds from the same tuples.
    group = group_from_generators(m, parse_generators(gens, m))
    assert group.elements == tuple(Permutation(c) for c in sorted(group.members))
    assert all(type(p) is Permutation for p in group.elements)


def test_permutation_constructor_still_checks_bijections():
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((1, 1))


@pytest.mark.parametrize(
    "images", [(2.0, 1.0), (True,), (2, True), (1, "2"), ("1",)], ids=repr
)
def test_permutation_images_are_ints(images):
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(images)


@pytest.mark.parametrize("label", [True, 1.0, "1"], ids=repr)
def test_cycle_labels_are_ints(label):
    with pytest.raises(ValueError, match=f"label {label!r} outside 1..3"):
        Permutation.from_cycles(3, [(label, 2)])


@pytest.mark.parametrize(
    "cycles, images", [([()], (1, 2, 3)), ([(), (1, 2)], (2, 1, 3))], ids=["()", "(),(1 2)"]
)
def test_empty_cycle_moves_nothing(cycles, images):
    # Cycle notation writes the identity as "()", as parse_permutation reads it.
    assert Permutation.from_cycles(3, cycles).images == images


def test_group_is_closed():
    group = group_from_generators(4, parse_generators("(1 2),(2 3)", 4))
    for a in group:
        assert a.inverse() in group
        for b in group:
            assert a * b in group


def test_group_closure_agrees_with_sympy():
    rng = random.Random(20061107)
    for _ in range(120):
        m = rng.randint(1, 6)
        gens = [
            Permutation(tuple(rng.sample(range(1, m + 1), m)))
            for _ in range(rng.randint(0, 3))
        ]
        group = group_from_generators(m, gens)
        # sympy is 0-based and wants at least one generator
        oracle = PermutationGroup(
            [SymPermutation([j - 1 for j in g.images]) for g in gens]
            or [SymPermutation(list(range(m)))]
        )
        assert group.order == oracle.order()
        assert list(group.elements) == sorted(group.elements)
        for images in itertools.permutations(range(1, m + 1)):
            p = Permutation(images)
            expected = oracle.contains(SymPermutation([j - 1 for j in images]))
            assert (p in group) == expected, (m, gens, images)


def test_group_bounds():
    with pytest.raises(SizeLimitError):
        group_from_generators(11, ())
    with pytest.raises(SizeLimitError):
        group_from_generators(
            5, parse_generators("(1 2),(2 3),(3 4),(4 5)", 5), max_order=10
        )


def test_symmetric_group_order():
    assert symmetric_group(4).order == 24
    assert symmetric_group(1).order == 1


def test_symmetric_group_on_subset():
    group = symmetric_group_on([2, 3, 4], 4)
    assert group.order == 6
    assert all(g(1) == 1 for g in group)
    assert label_orbits(group)[1] == frozenset({2, 3, 4})


def test_orbits():
    v4 = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    assert label_orbits(v4) == (
        frozenset({1, 2}),
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({3, 4}),
    )
    assert label_orbits(symmetric_group(4))[1] == frozenset({1, 2, 3, 4})


def test_label_orbits_match_sympy():
    v4 = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    for group in (v4, symmetric_group_on([2, 3], 4), symmetric_group(5)):
        oracle = PermutationGroup(
            [SymPermutation([j - 1 for j in g.images]) for g in group.generators]
        )
        orbit_of = {
            i + 1: frozenset(j + 1 for j in orbit)
            for orbit in oracle.orbits()
            for i in orbit
        }
        assert label_orbits(group) == tuple(
            orbit_of[i] for i in range(1, group.degree + 1)
        )


def test_generator_string():
    assert group_from_generators(3, ()).generator_string() == "()"
    v4 = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    assert v4.generator_string() == "(1 2),(3 4)"


def test_group_membership():
    v4 = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
    assert parse_permutation("(1 2)(3 4)", 4) in v4
    assert parse_permutation("(1 3)", 4) not in v4


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        PermGroup(2, (), ())


@pytest.mark.parametrize(
    "labels,degree",
    [([], 5), ([3], 5), ([2, 4], 5), ([1, 2, 3, 4, 5], 5), ([1, 2, 3, 4, 5, 6], 6)],
)
def test_symmetric_group_on_matches_reference(labels, degree):
    group = symmetric_group_on(labels, degree)
    expected = set()
    for images in itertools.permutations(labels):
        arr = list(range(1, degree + 1))
        for slot, img in zip(labels, images):
            arr[slot - 1] = img
        expected.add(tuple(arr))
    assert group.members == expected
    assert group.generators == tuple(
        parse_permutation(f"({a} {b})", degree) for a, b in zip(labels, labels[1:])
    )


@pytest.mark.parametrize(
    "labels,degree,error,message",
    [
        ([1], 0, ValueError, "degree must be positive"),
        ([1], 11, SizeLimitError, "degree 11 exceeds bound 10"),
        ([7], 4, ValueError, "label 7 outside 1..4"),
        ([0, 1], 5, ValueError, "label 0 outside 1..5"),
        ([1, 2, 2], 5, ValueError, "label 2 repeated across cycles"),
    ],
)
def test_symmetric_group_on_refusals(labels, degree, error, message):
    with pytest.raises(error) as caught:
        symmetric_group_on(labels, degree)
    assert type(caught.value) is error and str(caught.value) == message
