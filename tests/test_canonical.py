"""Canonical forms checked against code that shares none of the library's.

``networkx`` decides label-respecting multigraph isomorphism on its own,
and ``reference_canonical_form`` is a standalone copy of the
refine-then-enumerate algorithm: it refines the vertex invariant by
neighbor classes and minimizes the encoding over every ordering the
refined cells allow, with no shortcut for a discrete invariant.  The
library must pick exactly the same least encoding.

The library keys each vertex by one integer, genus * (2E + 1) * (m + 1)
+ degree * (m + 1) + least leg label, where the reference keys it by the
tuple (genus, degree, all its labels).  A test checks on random graphs
that the least label ties and orders vertices as all labels do; another
compares with the reference on presentations at the edges of the integer
packing (a degree of 2E, genera up to 3, m = 0, leg-free vertices); and
the fusion-traffic test compares every group image of the census with the
reference.  The reference form of each random input is computed once and
read by every test that needs it.

``canonical_form`` returns a graph already in order itself, after one
pass over its signatures; a test checks that it does so exactly when the
reference leaves the graph unchanged.  Fused keys and stabilizers are
checked against the least reference form over every relabeling and a
reference scan of the group.  ``canonical_form(graph, gamma)`` must equal
the form of ``relabel_legs(graph, gamma)`` on every reference input under
seeded relabelings, and refuse a ``gamma`` of another degree as
``relabel_legs`` does.

``canonical_form`` and ``relabel_legs`` build their results without
running the constructor's checks; the last tests rebuild results through
the constructor and assert nothing changes, and check that a graph
already in canonical form comes back as the same object.
"""

import itertools
import random

import networkx as nx
import pytest

from graphstrata.gamma import enumerate_gamma_strata, gamma_canonical_form, relabel_legs
from graphstrata.perm import Permutation, group_from_generators, parse_generators
from graphstrata.stablegraph import StableGraph, canonical_form, graph_isomorphism

from inputs import census, shuffled


def _norm(u, v):
    return (u, v) if u <= v else (v, u)


def _signatures(genera, edges, legs):
    nv = len(genera)
    deg = [0] * nv
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    at = [tuple(k + 1 for k, x in enumerate(legs) if x == v) for v in range(nv)]
    return [(genera[v], deg[v], at[v]) for v in range(nv)]


def reference_canonical_form(genera, edges, legs):
    """(genera, edges, legs) of the least encoding over refined orderings."""
    nv = len(genera)
    sig = _signatures(genera, edges, legs)
    ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
    cur = [ranks[sig[v]] for v in range(nv)]
    while True:
        nbr = [[] for _ in range(nv)]
        for u, v in edges:
            nbr[u].append(cur[v])
            nbr[v].append(cur[u])
        new_sig = [(cur[v], tuple(sorted(nbr[v]))) for v in range(nv)]
        ranks = {s: r for r, s in enumerate(sorted(set(new_sig)))}
        new = [ranks[new_sig[v]] for v in range(nv)]
        if new == cur:
            break
        cur = new
    cells = {}
    for v in range(nv):
        cells.setdefault(cur[v], []).append(v)
    best = None
    for choice in itertools.product(
        *(itertools.permutations(cells[r]) for r in sorted(cells))
    ):
        order = tuple(itertools.chain.from_iterable(choice))
        pos = {old: new for new, old in enumerate(order)}
        enc = (
            tuple(genera[old] for old in order),
            tuple(sorted(_norm(pos[u], pos[v]) for u, v in edges)),
            tuple(pos[v] for v in legs),
        )
        if best is None or enc < best:
            best = enc
    return best


def _to_networkx(graph):
    out = nx.MultiGraph()
    for v, g in enumerate(graph.genera):
        labels = frozenset(k + 1 for k, x in enumerate(graph.legs) if x == v)
        out.add_node(v, genus=g, legs=labels)
    out.add_edges_from(graph.edges)
    return out


def networkx_isomorphic(a, b):
    return nx.is_isomorphic(
        _to_networkx(a), _to_networkx(b), node_match=lambda x, y: x == y
    )


def _triple(graph):
    return (graph.genera, graph.edges, graph.legs)


def _random_graph(rng):
    """Connected, with loops and multi-edges; often with equal genus-0 vertices."""
    shape = rng.random()
    nv = rng.randint(1, 7)
    if shape < 0.25:
        # a cycle, possibly doubled: every vertex looks alike until legs land
        edges = [(v, (v + 1) % nv) for v in range(nv)] if nv > 1 else [(0, 0)]
        if rng.random() < 0.5:
            edges = edges * 2
        genera = [0] * nv
        m = rng.randint(0, 2)
    else:
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        for _ in range(rng.randint(0, nv + 1)):
            u = rng.randrange(nv)
            edges.append((u, u) if rng.random() < 0.3 else (u, rng.randrange(nv)))
        if edges and rng.random() < 0.5:
            edges.append(rng.choice(edges))
        genera = [rng.choice((0, 0, 0, 1, 2)) for _ in range(nv)]
        m = rng.randint(0, 6)
    legs = [rng.randrange(nv) for _ in range(m)]
    return StableGraph(tuple(genera), tuple(edges), tuple(legs))


def _mutated(graph, rng):
    """A nearby graph that may or may not be isomorphic to ``graph``."""
    genera, edges, legs = (list(x) for x in _triple(graph))
    nv = len(genera)
    kind = rng.randrange(4)
    if kind == 0 and legs:
        legs[rng.randrange(len(legs))] = rng.randrange(nv)
    elif kind == 1 and len(legs) > 1:
        i, j = rng.sample(range(len(legs)), 2)
        legs[i], legs[j] = legs[j], legs[i]
    elif kind == 2:
        genera[rng.randrange(nv)] = rng.choice((0, 1))
    elif edges:
        j = rng.randrange(len(edges))
        edges[j] = (edges[j][0], rng.randrange(nv))
    return StableGraph(tuple(genera), tuple(edges), tuple(legs))


def _complete(n):
    return [(u, v) for v in range(n) for u in range(v)]


def _petals(n):
    """A hub, vertex 0, joined to both ends of each of n petal edges."""
    return [e for p in range(1, 2 * n, 2) for e in ((0, p), (0, p + 1), (p, p + 1))]


# Multigraphs with many automorphisms, where a wrong cut or tie rule in the
# search would pick another minimum; random graphs rarely reach them.  No
# cell has more than 8 vertices, so the reference still enumerates every
# ordering.
SYMMETRIC = {
    "twins with loops": ((0, 0, 0), [(0, 1), (0, 2), (1, 1), (2, 2)]),
    "twins with doubled edges": ((1, 0, 0, 1), [(0, 1), (0, 2), (1, 2), (1, 2), (3, 1), (3, 2)]),
    "twins with loops and doubled edges": (
        (0, 1, 1), [(0, 1), (0, 1), (0, 2), (0, 2), (1, 1), (2, 2)],
    ),
    # one cell: 0 and 1 are twins, 2 has their neighbours but other counts
    "twins and a look-alike": ((0, 0, 0), [(0, 1), (0, 1), (0, 1), (0, 2), (1, 2), (2, 2)]),
    "K_4": ((0,) * 4, _complete(4)),
    "K_5": ((1,) * 5, _complete(5)),
    "K_3,3": ((0,) * 6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "8-cycle": ((1,) * 8, [(v, (v + 1) % 8) for v in range(8)]),
    "cube": ((0,) * 8, [(v, v | b) for v in range(8) for b in (1, 2, 4) if not v & b]),
    "triangular prism": (
        (0,) * 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    ),
    "3-petal hub": ((1,) * 7, _petals(3)),
    "4-petal hub": ((1,) * 9, _petals(4)),
}
SYMMETRIC_RELABELINGS = 3

RANDOM_PAIRS = 600


@pytest.fixture(scope="module")
def random_pairs():
    rng = random.Random(20061)
    pairs = []
    for _ in range(RANDOM_PAIRS):
        a = _random_graph(rng)
        b = a if rng.random() < 0.4 else _mutated(a, rng)
        pairs.append((a, shuffled(b, rng)))
    return pairs


@pytest.fixture(scope="module")
def symmetric_inputs():
    rng = random.Random(1014)
    return [
        shuffled(StableGraph(genera, edges, ()), rng)
        for genera, edges in SYMMETRIC.values()
        for _ in range(SYMMETRIC_RELABELINGS)
    ]


@pytest.fixture(scope="module")
def reference_forms(random_pairs, symmetric_inputs):
    """Each random and symmetric input with its reference form."""
    return [
        (graph, reference_canonical_form(*_triple(graph)))
        for graph in itertools.chain(*random_pairs, symmetric_inputs)
    ]


def test_networkx_counts_loops_and_multi_edges():
    two_loops = StableGraph((0, 0), ((0, 0), (0, 1), (1, 1)), ())
    triple = StableGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
    assert not networkx_isomorphic(two_loops, triple)
    assert networkx_isomorphic(triple, triple)


def test_random_pairs_cover_both_verdicts_and_both_paths(random_pairs):
    verdicts = [networkx_isomorphic(a, b) for a, b in random_pairs]
    assert 100 < sum(verdicts) < len(verdicts) - 100
    discrete = [
        len(set(sig)) == len(sig)
        for sig in (_signatures(*_triple(a)) for a, _ in random_pairs)
    ]
    assert 100 < sum(discrete) < len(discrete) - 100


def test_canonical_form_agrees_with_networkx(random_pairs):
    for a, b in random_pairs:
        same = canonical_form(a) == canonical_form(b)
        assert same == networkx_isomorphic(a, b), (a, b)
        assert (graph_isomorphism(a, b) is not None) == same, (a, b)


def test_canonical_form_matches_reference_on_random_graphs(reference_forms):
    for graph, expected in reference_forms:
        assert _triple(canonical_form(graph)) == expected, graph


@pytest.mark.parametrize("g,m", [(0, 6), (1, 4)])
def test_canonical_form_matches_reference_on_census(g, m):
    rng = random.Random(100 * g + m)
    for graph in census(g, m).all_graphs():
        assert reference_canonical_form(*_triple(graph)) == _triple(graph)
        other = shuffled(graph, rng)
        assert _triple(canonical_form(other)) == _triple(graph)
        assert reference_canonical_form(*_triple(other)) == _triple(graph)


def test_canonical_form_returns_its_input_exactly_when_it_is_canonical(reference_forms):
    # The exit for a graph already in order must not fire on tied
    # signatures: the symmetric inputs tie every vertex.
    for graph, expected in reference_forms:
        unchanged = expected == _triple(graph)
        assert (canonical_form(graph) is graph) == unchanged, graph


def _label_permutations(graph, rng):
    """The identity, a swap of two labels on one vertex if there is one, and
    two seeded random permutations of the labels."""
    m = graph.m
    found = [tuple(range(1, m + 1))]
    legs = graph.legs
    shared = [(i, j) for i, j in itertools.combinations(range(m), 2) if legs[i] == legs[j]]
    if shared:
        i, j = rng.choice(shared)
        swap = list(found[0])
        swap[i], swap[j] = j + 1, i + 1
        found.append(tuple(swap))
    for _ in range(2):
        found.append(tuple(rng.sample(found[0], m)))
    return [Permutation(images) for images in found]


def test_canonical_form_of_a_relabeling_is_that_of_the_relabeled_graph(reference_forms):
    rng = random.Random(4507)
    seen = set()
    for graph, expected in reference_forms:
        for gamma in _label_permutations(graph, rng) if graph.m else ():
            moved = relabel_legs(graph, gamma)
            found = canonical_form(graph, gamma)
            assert found == canonical_form(moved), (graph, gamma)
            _assert_as_constructed(found)
            # The graph itself comes back exactly when gamma moves no leg and
            # the graph is canonical.
            still = _relabeled(graph, gamma.images)[2] == graph.legs
            assert (found is graph) == (still and expected == _triple(graph)), (graph, gamma)
            seen.add((still, gamma.is_identity(), found is graph))
    assert seen >= {(True, True, True), (True, False, True), (False, False, False)}


def test_canonical_form_refuses_a_relabeling_of_another_degree():
    graph = StableGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
    for images in ((2, 1), (2, 3, 4, 5, 1)):
        gamma = Permutation(images)
        with pytest.raises(ValueError) as relabeled:
            relabel_legs(graph, gamma)
        with pytest.raises(ValueError) as canonical:
            canonical_form(graph, gamma)
        assert str(canonical.value) == str(relabeled.value)


def _relabeled(graph, images):
    """(genera, edges, legs) with the leg labeled i moved to label images[i - 1]."""
    legs = [None] * len(images)
    for label, vertex in zip(images, graph.legs):
        legs[label - 1] = vertex
    return graph.genera, graph.edges, tuple(legs)


# The (1,4) images have alike leg-free vertices and so take the search.
GROUP_CASES = [
    (0, 5, "(1 2),(2 3),(3 4)"),
    (0, 5, "(1 2),(2 3),(4 5)"),
    (1, 4, "(1 2),(2 3),(3 4)"),
]


@pytest.mark.parametrize("g,m,gens", GROUP_CASES)
def test_gamma_canonical_form_is_the_least_reference_form(g, m, gens):
    group = group_from_generators(m, parse_generators(gens, m))
    for labeled in census(g, m).all_graphs():
        least = min(
            reference_canonical_form(*_relabeled(labeled, gamma.images)) for gamma in group
        )
        assert _triple(gamma_canonical_form(labeled, group)) == least, labeled


@pytest.mark.parametrize("g,m,gens", GROUP_CASES)
def test_stabilizers_are_a_reference_scan_in_group_order(g, m, gens):
    group = group_from_generators(m, parse_generators(gens, m))
    for cls in enumerate_gamma_strata(g, m, group, census=census(g, m)).all_classes():
        rep = _triple(cls.representative)
        scan = tuple(
            gamma
            for gamma in group
            if reference_canonical_form(*_relabeled(cls.representative, gamma.images)) == rep
        )
        assert cls.stabilizer.generators == scan, cls.representative


def _least_label_keys(genera, edges, legs):
    """(genus, degree, least leg label or 0) per vertex."""
    return [(g, d, min(at, default=0)) for g, d, at in _signatures(genera, edges, legs)]


# Every group image of every labeled class, as orbit fusion canonicalizes
# them, with whether some image has a leg-free vertex (least label 0) and
# whether some image has two alike vertices and so takes the search path.
# The leg-free central vertices of (0,6) differ in degree; (1,4) has alike
# leg-free vertices.
FUSION_CASES = [
    (0, 5, "(1 2),(1 2 3 4 5)", False, False),
    (1, 3, "(1 2),(1 2 3)", True, False),
    (1, 4, "(1 2),(1 2 3 4)", True, True),
    (0, 6, "(1 2),(2 3),(4 5),(5 6)", True, False),
]


@pytest.mark.parametrize("g,m,gens,leg_free,searched", FUSION_CASES)
def test_canonical_form_matches_reference_on_fusion_images(g, m, gens, leg_free, searched):
    group = group_from_generators(m, parse_generators(gens, m))
    seen_leg_free = seen_search = False
    for labeled in census(g, m).all_graphs():
        for gamma in group:
            image = relabel_legs(labeled, gamma)
            expected = reference_canonical_form(*_triple(image))
            assert _triple(canonical_form(image)) == expected, (labeled, gamma)
            keys = _least_label_keys(*_triple(image))
            seen_leg_free |= any(least == 0 for _, _, least in keys)
            seen_search |= len(set(keys)) < len(keys)
    assert (seen_leg_free, seen_search) == (leg_free, searched)


def test_least_label_keys_tie_and_order_like_label_tuples(random_pairs):
    for graph in itertools.chain(*random_pairs):
        full = _signatures(*_triple(graph))
        least = _least_label_keys(*_triple(graph))
        nv = graph.num_vertices
        for v, w in itertools.combinations(range(nv), 2):
            assert (full[v] == full[w]) == (least[v] == least[w]), graph
        by_full = sorted(range(nv), key=full.__getitem__)
        assert by_full == sorted(range(nv), key=least.__getitem__), graph


def _packing_edge(rng):
    """A presentation at the edges of the integer key's fields, not
    necessarily connected: often vertex 0 carries every edge as a loop, so
    its degree is 2E; genera up to 3 differ by at most one, so the degree
    field alone may order two vertices; m is often 0, and legs leave some
    vertices bare."""
    nv = rng.randint(1, 5)
    if rng.random() < 0.5:
        edges = [(0, 0)] * rng.randint(1, 3)
    else:
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 4))]
    low = rng.randint(0, 2)
    genera = [low + rng.randint(0, 1) for _ in range(nv)]
    legs = [rng.randrange(nv) for _ in range(rng.choice((0, 0, 1, 2, 3, 5)))]
    return StableGraph(tuple(genera), tuple(edges), tuple(legs))


PACKING_EDGES = 500


def test_canonical_form_matches_reference_at_the_edges_of_the_key():
    rng = random.Random(3403)
    seen = set()
    for _ in range(PACKING_EDGES):
        graph = _packing_edge(rng)
        assert _triple(canonical_form(graph)) == reference_canonical_form(*_triple(graph)), graph
        sig = _signatures(*_triple(graph))
        for v, (g, d, labels) in enumerate(sig):
            for w, (h, e, _) in enumerate(sig):
                if d == 2 * graph.num_edges > 0 and h == g + 1:
                    seen.add("degree 2E beside genus one higher")
                if g == 3 and d == e and w != v:
                    seen.add("genus 3 beside an equal degree")
            if graph.m and not labels:
                seen.add("leg-free vertex")
        seen.add("m = 0" if graph.m == 0 else "m > 0")
    assert seen == {
        "degree 2E beside genus one higher", "genus 3 beside an equal degree",
        "m = 0", "m > 0", "leg-free vertex",
    }


def _random_presentation(rng):
    """Up to 6 vertices, loops and parallel edges, edges listed either way
    round and in any order, up to 5 legs; not necessarily connected."""
    nv = rng.randint(1, 6)
    edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randrange(9))]
    if edges and rng.random() < 0.5:
        edges.append(rng.choice(edges)[::-1])
    genera = [rng.choice((0, 0, 1, 2)) for _ in range(nv)]
    legs = [rng.randrange(nv) for _ in range(rng.randrange(6))]
    return StableGraph(tuple(genera), tuple(edges), tuple(legs))


def _assert_as_constructed(graph):
    """``graph`` is what the validating constructor makes of its own fields."""
    rebuilt = StableGraph(graph.genera, graph.edges, graph.legs)
    assert graph == rebuilt and hash(graph) == hash(rebuilt), graph
    genera, edges, legs = _triple(graph)
    assert type(genera) is tuple and all(type(g) is int for g in genera), graph
    assert type(legs) is tuple and all(type(v) is int for v in legs), graph
    assert type(edges) is tuple, graph
    for edge in edges:
        assert type(edge) is tuple and len(edge) == 2, graph
        assert type(edge[0]) is int and type(edge[1]) is int and edge[0] <= edge[1], graph
    assert list(edges) == sorted(edges), graph


def test_derived_graphs_keep_constructor_invariants():
    rng = random.Random(1403)
    for _ in range(400):
        graph = _random_presentation(rng)
        canonical = canonical_form(graph)
        derived = [canonical]
        for _ in range(3 if graph.m else 0):
            images = list(range(1, graph.m + 1))
            rng.shuffle(images)
            gamma = Permutation(tuple(images))
            moved = relabel_legs(graph, gamma)
            derived += [moved, canonical_form(moved), relabel_legs(canonical, gamma)]
        for result in derived:
            _assert_as_constructed(result)


@pytest.mark.parametrize("g,m", [(0, 6), (1, 4), (2, 2)])
def test_census_graphs_are_their_own_canonical_form(g, m):
    for graph in census(g, m).all_graphs():
        assert canonical_form(graph) is graph, graph
        _assert_as_constructed(graph)


def test_canonical_forms_of_symmetric_graphs_are_returned_unbuilt(symmetric_inputs):
    for graph in symmetric_inputs:
        canonical = canonical_form(graph)
        assert canonical_form(canonical) is canonical, graph
        _assert_as_constructed(canonical)
