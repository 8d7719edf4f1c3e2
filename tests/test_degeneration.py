"""Census shapes are closed under edge contraction, level by level.

A shape forgets which labels a class carries and keeps, per vertex, its
genus and its number of legs.  The shapes are read off the public census;
contraction is decided here, and isomorphism by ``oracle.iso_key``'s brute
force over (genus, leg count) vertex decorations, so nothing is shared
with the generator.
Contracting an edge of a stable graph gives a stable graph with one edge
fewer, and every stable graph that is not trivalent is such a
contraction; the census must agree with both facts.
"""

import functools

import pytest

from inputs import census
from oracle import iso_key

SIGNATURES = (
    [(0, m) for m in range(3, 8)]
    + [(1, m) for m in range(1, 6)]
    + [(2, m) for m in range(0, 4)]
    + [(3, 0), (3, 1)]
)


def contract(shape, j):
    """The shape with edge j contracted: a loop adds one to its vertex's
    genus; an edge a-b merges b into a, adding genera and leg counts."""
    decorations, edges, _ = shape
    a, b = edges[j]
    rest = edges[:j] + edges[j + 1:]
    if a == b:
        genus, legs = decorations[a]
        return iso_key(decorations[:a] + ((genus + 1, legs),) + decorations[a + 1:], rest, ())
    keep = [v for v in range(len(decorations)) if v != b]
    index = {v: i for i, v in enumerate(keep)}
    index[b] = index[a]
    (ga, la), (gb, lb) = decorations[a], decorations[b]
    merged = [(ga + gb, la + lb) if v == a else decorations[v] for v in keep]
    return iso_key(merged, [(index[u], index[w]) for u, w in rest], ())


@functools.lru_cache(maxsize=None)
def census_shapes(g, m):
    """Edge count -> set of shape keys of the census classes: ``iso_key``
    over (genus, leg count) vertex decorations, with no legs."""
    out = {}
    for e, graphs in census(g, m).classes_by_nodes.items():
        raw = {
            (tuple(zip(gr.genera, map(gr.legs.count, range(gr.num_vertices)))), gr.edges)
            for gr in graphs
        }
        out[e] = {iso_key(decorations, edges, ()) for decorations, edges in raw}
    return out


@pytest.mark.parametrize("g,m", SIGNATURES)
def test_every_contraction_lies_one_level_down(g, m):
    shapes = census_shapes(g, m)
    for e in range(1, 3 * g - 3 + m + 1):
        for shape in shapes[e]:
            for j in range(e):
                assert contract(shape, j) in shapes[e - 1], (e, shape, j)


@pytest.mark.parametrize("g,m", SIGNATURES)
def test_every_non_trivalent_shape_is_a_contraction(g, m):
    shapes = census_shapes(g, m)
    for e in range(3 * g - 3 + m):
        contractions = {contract(s, j) for s in shapes[e + 1] for j in range(e + 1)}
        assert shapes[e] <= contractions, (e, shapes[e] - contractions)


def test_genus_four_census_has_379_classes():
    # The Maggiolo-Pagani count of stable graphs of genus 4 without legs.
    assert census(4, 0).total == 379
