import itertools

import pytest

from graphstrata.gamma import (
    GammaMarkedGraph,
    enumerate_gamma_strata,
    gamma_automorphisms,
    gamma_canonical_form,
    gamma_census_to_doc,
    gamma_equivalent,
    quotient_fibers,
    relabel_legs,
)
from graphstrata.perm import (
    group_from_generators,
    parse_generators,
    parse_permutation,
    symmetric_group,
)
from graphstrata.stablegraph import StableGraph, canonical_form

from inputs import census, small_censuses

SPLIT_12_34 = StableGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
SPLIT_13_24 = StableGraph((0, 0), ((0, 1),), (0, 1, 0, 1))
SPLIT_14_23 = StableGraph((0, 0), ((0, 1),), (0, 1, 1, 0))


TRIVIAL = group_from_generators(4, ())
SWAP12 = group_from_generators(4, parse_generators("(1 2)", 4))
V4 = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))
S4 = symmetric_group(4)


def test_relabel_legs_moves_labels():
    gamma = parse_permutation("(1 3)", 4)
    moved = relabel_legs(SPLIT_12_34, gamma)
    # label 1 now sits where label 3 did and vice versa
    assert moved.legs == (1, 0, 0, 1)


def test_relabel_is_a_left_action():
    a = parse_permutation("(1 2 3)", 4)
    b = parse_permutation("(2 4)", 4)
    for graph in (SPLIT_12_34, SPLIT_13_24):
        assert relabel_legs(relabel_legs(graph, a), b) == relabel_legs(
            graph, b * a
        )


def test_relabel_legs_refuses_other_degree():
    with pytest.raises(ValueError) as excinfo:
        relabel_legs(SPLIT_12_34, parse_permutation("(1 2)", 3))
    assert str(excinfo.value) == "degree 3 does not match m = 4"


def test_relabel_identity():
    assert relabel_legs(SPLIT_12_34, parse_permutation("()", 4)) == SPLIT_12_34


def test_relabel_legs_agrees_with_the_definition():
    # The leg labeled i moves to label gamma(i), for every element of S4.
    for graph in (SPLIT_12_34, SPLIT_13_24):
        for gamma in symmetric_group(4):
            legs = [None] * 4
            for i, v in enumerate(graph.legs, 1):
                legs[gamma(i) - 1] = v
            assert relabel_legs(graph, gamma).legs == tuple(legs)


def test_relabel_legs_of_one_leg():
    graph = StableGraph((1,), (), (0,))
    assert relabel_legs(graph, parse_permutation("()", 1)) == graph
    with pytest.raises(ValueError, match="degree 1 does not match m = 2"):
        relabel_legs(StableGraph((0,), ((0, 0),), (0, 0)), parse_permutation("()", 1))


def test_gamma_equivalent_examples():
    # {1,3}|{2,4} vs {2,3}|{1,4}: swapping labels 1 and 2 suffices
    a = StableGraph((0, 0), ((0, 1),), (0, 1, 0, 1))
    b = StableGraph((0, 0), ((0, 1),), (1, 0, 0, 1))
    witness = gamma_equivalent(a, b, SWAP12)
    assert witness is not None
    assert witness.gamma == parse_permutation("(1 2)", 4)

    witness = gamma_equivalent(SPLIT_12_34, SPLIT_12_34, TRIVIAL)
    assert witness is not None
    assert witness.gamma.is_identity()

    assert gamma_equivalent(SPLIT_12_34, SPLIT_13_24, V4) is None


def test_gamma_equivalent_rejects_degree_mismatch():
    swap = group_from_generators(3, parse_generators("(1 2)", 3))
    with pytest.raises(ValueError):
        gamma_equivalent(SPLIT_12_34, SPLIT_13_24, swap)


def test_gamma_canonical_form_trivial_group_is_plain():
    for graph in census(0, 4).all_graphs():
        assert gamma_canonical_form(graph, TRIVIAL) == canonical_form(graph)


def test_gamma_canonical_form_fuses_04_boundary():
    splits = [SPLIT_12_34, SPLIT_13_24, SPLIT_14_23]
    under_s4 = {gamma_canonical_form(s, S4).encoding() for s in splits}
    assert len(under_s4) == 1
    under_v4 = {gamma_canonical_form(s, V4).encoding() for s in splits}
    assert len(under_v4) == 2
    # 13|24 and 14|23 merge, 12|34 stays alone
    assert gamma_canonical_form(SPLIT_13_24, V4) == gamma_canonical_form(
        SPLIT_14_23, V4
    )
    assert gamma_canonical_form(SPLIT_12_34, V4) != gamma_canonical_form(
        SPLIT_13_24, V4
    )


def test_gamma_canonical_form_idempotent():
    for graph in (SPLIT_12_34, SPLIT_13_24, SPLIT_14_23):
        for grp in (TRIVIAL, SWAP12, V4, S4):
            c = gamma_canonical_form(graph, grp)
            assert gamma_canonical_form(c, grp) == c


@pytest.mark.parametrize("gens", ["", "(1 2)", "(1 2),(3 4)"])
def test_equivalence_laws_on_04_census(gens):
    grp = group_from_generators(4, parse_generators(gens, 4))
    graphs = list(census(0, 4).all_graphs())
    for a in graphs:
        w = gamma_equivalent(a, a, grp)
        assert w is not None and w.gamma.is_identity()
    for a, b in itertools.permutations(graphs, 2):
        fwd = gamma_equivalent(a, b, grp)
        back = gamma_equivalent(b, a, grp)
        assert (fwd is None) == (back is None)
        if fwd is not None:
            # the inverse group element carries b back to a
            assert fwd.gamma.inverse() in grp
    for a, b, c in itertools.permutations(graphs, 3):
        ab = gamma_equivalent(a, b, grp)
        bc = gamma_equivalent(b, c, grp)
        if ab is not None and bc is not None:
            assert gamma_equivalent(a, c, grp) is not None


@pytest.mark.parametrize("gens,m", [("", 2), ("(1 2)", 2)])
def test_equivalence_matches_canonical_form_12(gens, m):
    grp = group_from_generators(m, parse_generators(gens, m))
    graphs = list(census(1, 2).all_graphs())
    for a in graphs:
        for b in graphs:
            same = gamma_canonical_form(a, grp) == gamma_canonical_form(b, grp)
            assert same == (gamma_equivalent(a, b, grp) is not None)


def test_gamma_automorphisms_smooth():
    smooth = StableGraph((0,), (), (0, 0, 0, 0))
    pairs = gamma_automorphisms(smooth, TRIVIAL)
    assert len(pairs) == 1
    gamma, iso = pairs[0]
    assert gamma.is_identity()
    assert iso.vertex_map == (0,)


def test_gamma_automorphisms_vertex_swap():
    crossgroup = group_from_generators(4, parse_generators("(1 3)(2 4)", 4))
    pairs = gamma_automorphisms(SPLIT_12_34, crossgroup)
    gammas = {g.cycle_string() for g, _ in pairs}
    assert "(1 3)(2 4)" in gammas
    swap = next(
        iso for g, iso in pairs if g == parse_permutation("(1 3)(2 4)", 4)
    )
    assert swap.vertex_map == (1, 0)


def test_gamma_automorphisms_label_swap_fixing_graph():
    pairs = gamma_automorphisms(SPLIT_12_34, SWAP12)
    assert len(pairs) == 2
    gammas = {g.cycle_string() for g, _ in pairs}
    assert gammas == {"()", "(1 2)"}


def test_gamma_automorphisms_form_a_group():
    for grp in (SWAP12, V4, S4):
        pairs = gamma_automorphisms(SPLIT_12_34, grp)
        gammas = [g for g, _ in pairs]
        assert parse_permutation("()", 4) in gammas
        for a in gammas:
            assert a.inverse() in gammas
            for b in gammas:
                assert a * b in gammas


def test_enumerate_gamma_strata_counts():
    fused = enumerate_gamma_strata(0, 4, S4, census=census(0, 4))
    assert fused.total == 2
    assert fused.counts() == {0: 1, 1: 1}
    fused = enumerate_gamma_strata(0, 4, V4, census=census(0, 4))
    assert fused.total == 3
    assert fused.counts() == {0: 1, 1: 2}


def test_enumerate_gamma_strata_trivial_matches_labeled():
    for labeled in small_censuses():
        if labeled.m == 0:
            continue
        trivial = group_from_generators(labeled.m, ())
        fused = enumerate_gamma_strata(
            labeled.g, labeled.m, trivial, census=labeled
        )
        assert fused.counts() == labeled.counts()
        for i, classes in fused.classes_by_nodes.items():
            reps = [cls.representative for cls in classes]
            assert reps == list(labeled.classes_by_nodes[i])


@pytest.mark.parametrize(
    "g,m,gens",
    [
        (0, 4, "(1 2),(2 3),(3 4)"),
        (0, 5, "(1 2),(2 3),(3 4)"),
        (0, 5, "(1 2),(2 3),(4 5)"),
        (1, 3, "(1 2),(2 3)"),
        (1, 3, "(1 2 3)"),
    ],
)
def test_fusion_keys_each_orbit_by_its_least_member_in_census_order(g, m, gens):
    # Fusion takes the first member it meets as the orbit's key, which is
    # the least only because each census level is sorted by encoding.
    grp = group_from_generators(m, parse_generators(gens, m))
    fused = enumerate_gamma_strata(g, m, grp, census=census(g, m))
    for i, level in census(g, m).classes_by_nodes.items():
        keys = [graph.encoding() for graph in level]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        position = {graph: n for n, graph in enumerate(level)}
        firsts = []
        for cls in fused.classes_by_nodes[i]:
            for member in cls.orbit:
                assert gamma_canonical_form(member, grp) == cls.representative
            assert cls.representative == cls.orbit[0]
            places = [position[member] for member in cls.orbit]
            assert places == sorted(set(places))
            firsts.append(places[0])
        assert firsts == sorted(firsts)


def test_orbit_stabilizer_products():
    for grp in (TRIVIAL, SWAP12, V4, S4):
        for cls in quotient_fibers(0, 4, grp, census=census(0, 4)):
            assert cls.orbit_size * cls.stabilizer.order == grp.order


def test_orbit_partition():
    fused = enumerate_gamma_strata(0, 4, V4, census=census(0, 4))
    for i, labeled in census(0, 4).classes_by_nodes.items():
        orbits = [cls.orbit for cls in fused.classes_by_nodes[i]]
        flattened = sorted(g.encoding() for orbit in orbits for g in orbit)
        assert flattened == sorted(g.encoding() for g in labeled)


def test_degree_of_s4_on_smooth_04():
    fused = enumerate_gamma_strata(0, 4, S4, census=census(0, 4))
    smooth = fused.classes_by_nodes[0][0]
    assert smooth.orbit_size == 1
    assert smooth.stabilizer.order == 24
    boundary = fused.classes_by_nodes[1][0]
    assert boundary.orbit_size == 3
    assert boundary.stabilizer.order == 8


def test_marked_graph_wrapper():
    marked = GammaMarkedGraph.of(SPLIT_13_24, V4)
    other = GammaMarkedGraph.of(SPLIT_14_23, V4)
    assert marked.equivalent_to(other)
    assert marked.canonical == other.canonical
    assert marked.class_labels() == (
        frozenset({1, 2}),
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({3, 4}),
    )
    with pytest.raises(ValueError):
        marked.equivalent_to(GammaMarkedGraph.of(SPLIT_14_23, SWAP12))


def test_class_labels_rejects_group_of_other_degree():
    swap = group_from_generators(5, parse_generators("(1 2)", 5))
    marked = GammaMarkedGraph(SPLIT_13_24, swap, SPLIT_13_24)
    with pytest.raises(ValueError):
        marked.class_labels()


def test_gamma_census_doc():
    fused = enumerate_gamma_strata(0, 4, V4, census=census(0, 4))
    doc = gamma_census_to_doc(fused)
    assert doc["format"] == "gamma-census/1"
    assert doc["group"] == ["(1 2)", "(3 4)"]
    assert doc["total"] == 3
    rows = doc["classes_by_nodes"]["1"]
    assert [r["orbit_size"] for r in rows] == [1, 2]
    assert all(
        r["orbit_size"] * r["stabilizer_order"] == 4 for r in rows
    )
