import pytest

from graphstrata.perm import group_from_generators, parse_generators, symmetric_group
from graphstrata.stablegraph import StableGraph, check_stability
from graphstrata.strata import (
    build_quotient_table,
    component_census,
    render_quotient_table,
)

from inputs import census, small_censuses

V4 = group_from_generators(4, parse_generators("(1 2),(3 4)", 4))


def test_table_04_full_symmetric():
    table = build_quotient_table(0, 4, symmetric_group(4), census=census(0, 4))
    rows = {row.nodes: row for row in table.rows}
    assert (rows[0].labeled, rows[0].gamma) == (1, 1)
    assert (rows[1].labeled, rows[1].gamma) == (3, 1)
    assert rows[1].orbit_sizes == (3,)
    assert table.total_gamma == 2


def test_table_04_double_swap():
    table = build_quotient_table(0, 4, V4, census=census(0, 4))
    rows = {row.nodes: row for row in table.rows}
    assert (rows[1].labeled, rows[1].gamma) == (3, 2)
    assert sorted(rows[1].orbit_sizes) == [1, 2]
    assert table.total_gamma == 3


def test_table_trivial_group_rows_agree():
    for labeled in small_censuses():
        if labeled.m == 0:
            continue
        table = build_quotient_table(
            labeled.g, labeled.m, group_from_generators(labeled.m, ()), census=labeled
        )
        for row in table.rows:
            assert row.labeled == row.gamma
            assert all(size == 1 for size in row.orbit_sizes)


def test_orbit_sizes_sum_to_labeled():
    cases = [
        (0, 4, "(1 2),(3 4)"),
        (0, 4, "(1 2),(2 3),(3 4)"),
        (0, 5, "(1 2),(2 3)"),
        (1, 2, "(1 2)"),
    ]
    for g, m, gens in cases:
        table = build_quotient_table(
            g, m, group_from_generators(m, parse_generators(gens, m)), census=census(g, m)
        )
        for row in table.rows:
            assert sum(row.orbit_sizes) == row.labeled


def test_quotient_counts_monotone_under_bigger_groups():
    chain = [
        group_from_generators(4, ()),
        group_from_generators(4, parse_generators("(1 2)", 4)),
        V4,
        symmetric_group(4),
    ]
    tables = [
        build_quotient_table(0, 4, grp, census=census(0, 4)) for grp in chain
    ]
    for smaller, bigger in zip(tables, tables[1:]):
        for row_s, row_b in zip(smaller.rows, bigger.rows):
            assert row_b.gamma <= row_s.gamma


def test_render_table():
    table = build_quotient_table(0, 4, V4, census=census(0, 4))
    text = render_quotient_table(table)
    lines = text.splitlines()
    assert lines[0] == "g=0 m=4 group=(1 2),(3 4)"
    assert lines[1] == "i=0: labeled=1 gamma=1 orbits=[1]"
    assert lines[2] == "i=1: labeled=3 gamma=2 orbits=[1, 2]"
    assert text.endswith("\n")


def test_component_census_two_vertex():
    graph = StableGraph((1, 2), ((0, 1), (0, 1)), ())
    pieces = component_census(graph)
    assert [(p.genus, p.marks, p.stable) for p in pieces] == [
        (1, 2, True),
        (2, 2, True),
    ]


def test_component_census_loop_with_leg():
    graph = StableGraph((0,), ((0, 0),), (0,))
    pieces = component_census(graph)
    assert [(p.genus, p.marks, p.stable) for p in pieces] == [(0, 3, True)]


def test_component_census_smooth_is_identity():
    graph = StableGraph((2,), (), ())
    (piece,) = component_census(graph)
    assert piece.graph == graph
    assert piece.stable


def test_all_census_splits_are_stable():
    for labeled in small_censuses():
        for graph in labeled.all_graphs():
            for piece in component_census(graph):
                assert piece.stable
                assert check_stability(piece.graph).valid


def test_table_respects_bounds():
    from graphstrata.limits import SizeLimitError

    with pytest.raises(SizeLimitError):
        build_quotient_table(3, 0, group_from_generators(1, ()), max_dim=5)
