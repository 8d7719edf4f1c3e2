"""Census shapes are closed under edge contraction, level by level.

A shape forgets which labels a class carries and keeps, per vertex, its
genus and its number of legs.  The shapes are read off the public census,
and contraction and isomorphism are decided here by brute force in the
style of ``oracle.iso_key``, so nothing is shared with the generator.
Contracting an edge of a stable graph gives a stable graph with one edge
fewer, and every stable graph that is not trivalent is such a
contraction; the census must agree with both facts.
"""

import functools
import itertools

import pytest

from graphstrata.stablegraph import enumerate_stable_graphs

SIGNATURES = (
    [(0, m) for m in range(3, 8)]
    + [(1, m) for m in range(1, 6)]
    + [(2, m) for m in range(0, 4)]
    + [(3, 0), (3, 1)]
)


def shape_key(genera, counts, edges):
    """Least relabeled (genera, leg counts, edges) over all vertex permutations."""
    nv = len(genera)
    best = None
    for perm in itertools.permutations(range(nv)):
        new_genera = [0] * nv
        new_counts = [0] * nv
        for v in range(nv):
            new_genera[perm[v]] = genera[v]
            new_counts[perm[v]] = counts[v]
        new_edges = sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
        )
        key = (tuple(new_genera), tuple(new_counts), tuple(new_edges))
        if best is None or key < best:
            best = key
    return best


def contract(shape, j):
    """The shape with edge j contracted: a loop adds one to its vertex's
    genus; an edge a-b merges b into a, adding genera and leg counts."""
    genera, counts, edges = shape
    a, b = edges[j]
    rest = edges[:j] + edges[j + 1:]
    if a == b:
        genera = list(genera)
        genera[a] += 1
        return shape_key(genera, counts, rest)
    keep = [v for v in range(len(genera)) if v != b]
    index = {v: i for i, v in enumerate(keep)}
    index[b] = index[a]
    new_genera = [genera[v] + (genera[b] if v == a else 0) for v in keep]
    new_counts = [counts[v] + (counts[b] if v == a else 0) for v in keep]
    return shape_key(
        new_genera, new_counts, [(index[u], index[w]) for u, w in rest]
    )


@functools.lru_cache(maxsize=None)
def census_shapes(g, m):
    """Edge count -> set of shape keys of the census classes."""
    census = enumerate_stable_graphs(g, m, max_dim=3 * g - 3 + m)
    out = {}
    for e, graphs in census.classes_by_nodes.items():
        raw = {
            (gr.genera, tuple(map(gr.legs.count, range(gr.num_vertices))), gr.edges)
            for gr in graphs
        }
        out[e] = {shape_key(*shape) for shape in raw}
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
    assert enumerate_stable_graphs(4, 0, max_dim=9).total == 379
