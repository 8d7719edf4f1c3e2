import itertools
import json
import random
from collections import Counter

import pytest

from graphstrata.limits import SizeLimitError
from graphstrata.stablegraph import (
    DisconnectedGraphError,
    _degenerations,
    _iter_label_assignments,
    _shapes_by_edges,
    StableGraph,
    canonical_form,
    census_to_doc,
    check_stability,
    dumps,
    enumerate_stable_graphs,
    genus,
    graph_from_doc,
    graph_isomorphism,
    graph_to_doc,
    hilbert_numerology,
    iter_graph_isomorphisms,
    num_nodes,
    split_component,
    stratum_dim,
)

from inputs import census, shuffled, small_censuses
from oracle import brute_force_census, iso_key

SMOOTH_G2 = StableGraph((2,), (), ())
TWO_G1_BRIDGE = StableGraph((1, 1), ((0, 1),), ())
LOOP = StableGraph((0,), ((0, 0),), ())
SPLIT_12_34 = StableGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
SPLIT_13_24 = StableGraph((0, 0), ((0, 1),), (0, 1, 0, 1))
SPLIT_14_23 = StableGraph((0, 0), ((0, 1),), (0, 1, 1, 0))


# ---------------------------------------------------------------------------
# construction and basic invariants


def test_constructor_normalizes_edges():
    g = StableGraph((0, 0), ((1, 0),), (0, 1, 1))
    assert g.edges == ((0, 1),)


def test_constructor_rejects_bad_indices():
    with pytest.raises(ValueError):
        StableGraph((), (), ())
    with pytest.raises(ValueError):
        StableGraph((0,), ((0, 1),), ())
    with pytest.raises(ValueError):
        StableGraph((0,), (), (1,))
    with pytest.raises(ValueError):
        StableGraph((-1,), (), ())


@pytest.mark.parametrize(
    "genera,edges,legs",
    [
        ((True,), (), (0, 0, 0)),
        ((0.0,), (), (0, 0, 0)),
        ((0, 0), ((0, 0.5),), (0, 0, 1, 1)),
        ((0, 0), ((0, True),), (0, 0, 1, 1)),
        ((0, 0), ((0, "1"),), (0, 0, 1, 1)),
        ((0, 0), (("0", 1),), (0, 0, 1, 1)),
        ((0, 0), ((0, 1),), (0, 0, 1, True)),
        ((0, 0), ((0, 1),), (0, 0, 1, 1.0)),
        ((0, 0), ((0, 1),), (0, 0, 1, "1")),
        ((0,), (5,), (0, 0, 0)),
        ((0,), ((0, 0, 0),), (0, 0, 0)),
    ],
)
def test_constructor_rejects_non_int_entries(genera, edges, legs):
    with pytest.raises(ValueError) as err:
        StableGraph(genera, edges, legs)
    # A malformed edge entry is named in the message.
    for edge in edges:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            assert repr(edge) in str(err.value)


def test_degree_counts_loops_twice():
    assert LOOP.degree(0) == 2
    g = StableGraph((0, 1), ((0, 0), (0, 1)), ())
    assert g.degree(0) == 3
    assert g.degree(1) == 1


def test_legs_at():
    assert SPLIT_13_24.legs_at(0) == (1, 3)
    assert SPLIT_13_24.legs_at(1) == (2, 4)


def test_genus_values():
    assert genus(SMOOTH_G2) == 2
    assert genus(TWO_G1_BRIDGE) == 2
    assert genus(LOOP) == 1


def test_genus_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        genus(StableGraph((1, 1), (), ()))


def test_stability_verdicts():
    assert check_stability(StableGraph((0,), (), (0, 0, 0))).valid
    report = check_stability(StableGraph((0,), (), (0, 0)))
    assert not report.valid
    assert report.violating_vertices == (0,)
    assert check_stability(StableGraph((1,), (), (0,))).valid


def test_stability_needs_positive_degree_sum():
    # bare loop: genus 1 with no marks, so 2g-2+m = 0; adding a leg fixes it
    assert not check_stability(LOOP).valid
    assert not check_stability(LOOP).stable_range
    assert check_stability(StableGraph((0,), ((0, 0),), (0,))).valid
    smooth_elliptic = StableGraph((1,), (), ())
    assert not check_stability(smooth_elliptic).valid
    assert not check_stability(smooth_elliptic).stable_range


def random_connected_multigraph(rng):
    """A connected graph with loops, multi-edges, legs and genera 0 or 1."""
    nv = rng.randint(1, 12)
    edges = [(rng.randrange(v), v) for v in range(1, nv)]  # a spanning tree
    edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, nv))]
    edges += [edges[rng.randrange(len(edges))] for _ in range(rng.randint(0, 2)) if edges]
    legs = [rng.randrange(nv) for _ in range(rng.randint(0, 2 * nv))]
    return StableGraph(tuple(rng.choice((0, 0, 1)) for _ in range(nv)), edges, legs)


def test_stability_counts_half_edges_and_legs_per_vertex():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(400):
        graph = random_connected_multigraph(rng)
        special = Counter(graph.legs)
        for u, v in graph.edges:  # a loop meets its vertex twice
            special[u] += 1
            special[v] += 1
        bad = tuple(v for v, h in enumerate(graph.genera) if h == 0 and special[v] < 3)
        report = check_stability(graph)
        assert report.violating_vertices == bad
        in_range = 2 * genus(graph) - 2 + graph.m > 0
        assert report.valid == (not bad and in_range)
        seen[report.valid, bool(bad)] += 1
    assert len(seen) == 3  # valid, invalid by a vertex, invalid by range alone


def test_nodes_and_dim():
    assert num_nodes(SMOOTH_G2) == 0 and stratum_dim(SMOOTH_G2) == 3
    four_legs = StableGraph((0,), (), (0, 0, 0, 0))
    assert num_nodes(four_legs) == 0 and stratum_dim(four_legs) == 1
    theta = StableGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
    assert genus(theta) == 2
    assert num_nodes(theta) == 3 and stratum_dim(theta) == 0


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphism_identity():
    iso = graph_isomorphism(SPLIT_12_34, SPLIT_12_34)
    assert iso is not None
    assert iso.vertex_map == (0, 1)


def test_isomorphism_respects_labels():
    assert graph_isomorphism(SPLIT_12_34, SPLIT_13_24) is None
    flipped = StableGraph((0, 0), ((0, 1),), (1, 1, 0, 0))
    iso = graph_isomorphism(SPLIT_12_34, flipped)
    assert iso is not None
    assert iso.vertex_map == (1, 0)


def test_isomorphism_ignoring_labels():
    iso = graph_isomorphism(SPLIT_12_34, SPLIT_13_24, respect_leg_labels=False)
    # leg-count profiles differ: 2+2 vs 2+2, both split evenly; witness exists
    assert iso is not None


def test_isomorphism_distinguishes_genus():
    a = StableGraph((1, 0), ((0, 1),), (1, 1, 1))
    b = StableGraph((0, 1), ((0, 1),), (1, 1, 1))
    assert graph_isomorphism(a, a) is not None
    assert graph_isomorphism(a, b) is None


def test_automorphisms_of_theta():
    theta = StableGraph((0, 0), ((0, 1), (0, 1), (0, 1)), ())
    autos = list(iter_graph_isomorphisms(theta, theta))
    # one witness per vertex bijection; parallel edges add none
    assert len(autos) == 2
    assert sorted(a.vertex_map for a in autos) == [(0, 1), (1, 0)]


def _random_multigraph(rng, nv):
    """Genera 0 or 1, up to eight edges with loops and repeats, up to four legs."""
    genera = tuple(rng.choice((0, 0, 0, 1)) for _ in range(nv))
    edges = tuple(
        (rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randrange(9))
    )
    legs = tuple(rng.randrange(nv) for _ in range(rng.randrange(5)))
    return StableGraph(genera, edges, legs)


def _brute_force_vertex_maps(a, b, respect_leg_labels):
    """Vertex permutations carrying genera, edges and legs of a onto b."""
    edges_b = Counter(b.edges)
    legs_b = b.legs if respect_leg_labels else Counter(b.legs)
    found = set()
    for phi in itertools.permutations(range(a.num_vertices)):
        legs = tuple(phi[v] for v in a.legs)
        if (
            all(b.genera[phi[v]] == g for v, g in enumerate(a.genera))
            and Counter(tuple(sorted((phi[u], phi[v]))) for u, v in a.edges) == edges_b
            and (legs if respect_leg_labels else Counter(legs)) == legs_b
        ):
            found.add(phi)
    return found


def _search_order(graph, respect_leg_labels):
    """Vertices by (genus, degree, leg labels or their number), then index."""

    def key(v):
        labels = graph.legs_at(v)
        extra = labels if respect_leg_labels else (len(labels),)
        return graph.genera[v], graph.degree(v), extra, v

    return sorted(range(graph.num_vertices), key=key)


@pytest.mark.parametrize("respect_leg_labels", [True, False])
def test_isomorphism_witnesses_match_brute_force(respect_leg_labels):
    # Each graph against itself, a vertex renaming, the renaming with its leg
    # labels shuffled, and an unrelated graph on as many vertices.  The
    # witnesses come once each, ordered by their images along the search
    # order of the first graph's vertices.
    rng = random.Random(20261018)
    for _ in range(300):
        nv = rng.randint(1, 6)
        a = _random_multigraph(rng, nv)
        b = shuffled(a, rng)
        labels = list(range(a.m))
        rng.shuffle(labels)
        b_relabeled = StableGraph(b.genera, b.edges, tuple(b.legs[k] for k in labels))
        for other in (a, b, b_relabeled, _random_multigraph(rng, nv)):
            witnessed = [
                iso.vertex_map
                for iso in iter_graph_isomorphisms(a, other, respect_leg_labels)
            ]
            order = _search_order(a, respect_leg_labels)
            expected = sorted(
                _brute_force_vertex_maps(a, other, respect_leg_labels),
                key=lambda phi: [phi[v] for v in order],
            )
            assert witnessed == expected
        assert _brute_force_vertex_maps(a, b, respect_leg_labels)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_form_idempotent_on_fixtures():
    for g in [SMOOTH_G2, TWO_G1_BRIDGE, LOOP, SPLIT_12_34, SPLIT_13_24]:
        c = canonical_form(g)
        assert canonical_form(c) == c


def test_canonical_form_constant_on_presentations():
    rng = random.Random(7)
    base = StableGraph((0, 1, 0), ((0, 1), (1, 2), (2, 2)), (0, 0, 2))
    expect = canonical_form(base)
    for _ in range(25):
        assert canonical_form(shuffled(base, rng)) == expect


def test_canonical_form_separates_classes():
    graphs = list(census(0, 4).all_graphs())
    for a in graphs:
        for b in graphs:
            same = canonical_form(a) == canonical_form(b)
            assert same == (graph_isomorphism(a, b) is not None)


# ---------------------------------------------------------------------------
# census


def test_census_small_counts():
    assert census(0, 3).total == 1
    assert census(0, 4).total == 4
    assert census(0, 4).counts() == {0: 1, 1: 3}
    assert census(1, 1).total == 2
    assert census(1, 1).counts() == {0: 1, 1: 1}
    assert census(0, 5).total == 26
    assert census(0, 5).counts() == {0: 1, 1: 10, 2: 15}


def test_census_deeper_counts():
    assert census(1, 2).counts() == {0: 1, 1: 2, 2: 2}
    assert census(2, 0).counts() == {0: 1, 1: 2, 2: 2, 3: 2}


def test_census_04_boundary_is_the_three_leg_splits():
    boundary = census(0, 4).classes_by_nodes[1]
    keys = {iso_key(g.genera, g.edges, g.legs) for g in boundary}
    expect = {
        iso_key(s.genera, s.edges, s.legs)
        for s in (SPLIT_12_34, SPLIT_13_24, SPLIT_14_23)
    }
    assert keys == expect


@pytest.mark.parametrize(
    "g,m", [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (1, 3), (2, 1)]
)
def test_census_matches_brute_force(g, m):
    labeled = census(g, m)
    oracle = brute_force_census(g, m)
    # Each stable vertex adds 2g_v - 2 + n_v >= 1 to 2g - 2 + m, so no
    # class has more vertices; the trivalent genus-0 graphs reach the bound.
    bound = 2 * g - 2 + m
    assert max(len(key[0]) for keys in oracle.values() for key in keys) == bound
    assert max(gr.num_vertices for gr in labeled.all_graphs()) == bound
    ours = {
        e: {iso_key(gr.genera, gr.edges, gr.legs) for gr in graphs}
        for e, graphs in labeled.classes_by_nodes.items()
    }
    assert ours == oracle
    # per-bucket sizes agree, so dedup lost nothing
    for e, graphs in labeled.classes_by_nodes.items():
        assert len(graphs) == len(oracle[e])


@pytest.mark.parametrize("counts", [(), (3,), (0, 2, 3), (1, 1, 1, 1, 1), (2, 2, 2, 2)])
def test_label_placements_come_once_each_in_increasing_order(counts):
    # Label k + 1 sits on vertex legs[k], so the placements are the distinct
    # arrangements of the multiset holding counts[v] copies of v.
    multiset = [v for v, c in enumerate(counts) for _ in range(c)]
    expected = sorted(set(itertools.permutations(multiset)))
    assert list(_iter_label_assignments(counts, len(multiset))) == expected


def reference_degenerations(shape, v):
    """Every split of v, filtered afterwards: the generator before it
    visited only the stable ones, kept as the reference."""
    genera, counts, edges = shape
    h, n = genera[v], counts[v]
    if h > 0:
        yield genera[:v] + (h - 1,) + genera[v + 1:], counts, edges + ((v, v),)
    w = len(genera)
    loops = edges.count((v, v))
    rest = [(a, b) for a, b in edges if v not in (a, b)]
    away = sorted(Counter(a + b - v for a, b in edges if (a == v) != (b == v)).items())
    for h1, n1 in itertools.product(range(h + 1), range(n + 1)):
        h2, n2 = h - h1, n - n1
        if (h1, n1) > (h2, n2):
            continue
        new_genera = genera[:v] + (h1,) + genera[v + 1:] + (h2,)
        new_counts = counts[:v] + (n1,) + counts[v + 1:] + (n2,)
        for kept in itertools.product(*(range(k + 1) for _, k in away)):
            excess_v = 2 * h1 - 1 + n1 + loops + sum(kept)
            excess_w = 2 * h2 - 1 + n2 + loops + sum(k for _, k in away) - sum(kept)
            shares = [(a, b) for a in range(loops + 1) for b in range(loops - a + 1)
                      if excess_v + a - b > 0 and excess_w + b - a > 0]
            if not shares:
                continue
            moved = list(rest)
            for (u, k), j in zip(away, kept):
                moved += [(min(u, v), max(u, v))] * j + [(u, w)] * (k - j)
            for a, b in shares:
                yield new_genera, new_counts, tuple(
                    moved + [(v, v)] * a + [(w, w)] * b + [(v, w)] * (loops - a - b + 1)
                )


def mirror_key(shape, v, w):
    """The shape with its edges sorted.  A split of v into v and w with
    (h1, n1) = (h2, n2) is the same shape as its mirror, v and w swapped,
    so it takes the lesser of its sorted edges and its mirror's."""
    genera, counts, edges = shape
    key = sorted(edges)
    if len(genera) > w and (genera[v], counts[v]) == (genera[w], counts[w]):
        swap = {v: w, w: v}
        key = min(key, sorted(tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges))
    return genera, counts, tuple(key)


def assert_same_degenerations(shape):
    # The reference yields both twins of each mirror pair and counts the
    # one its key names; a twin that is its own mirror is counted once.
    w = len(shape[0])
    for v in range(w):
        expected = Counter()
        for split in reference_degenerations(shape, v):
            key = mirror_key(split, v, w)
            expected[key] += key[2] == tuple(sorted(split[2]))
        found = Counter(mirror_key(split, v, w) for split in _degenerations(shape, v))
        assert found == +expected, (shape, v)


def test_degenerations_match_the_reference_on_every_census_shape():
    signatures = [
        (g, m) for g in range(4) for m in range(10)
        if 2 * g - 2 + m > 0 and 3 * g - 3 + m <= 6
    ]
    assert len(signatures) == 18
    for g, m in signatures:
        for level in _shapes_by_edges(g, m, 3 * g - 3 + m):
            for shape in level:
                assert_same_degenerations(shape)


def test_degenerations_match_the_reference_on_random_shapes():
    # Loop shares and repeated neighbours beyond what the small censuses
    # reach; the shapes need be neither connected nor stable.
    rng = random.Random(20260)
    for _ in range(2000):
        nv = rng.randint(1, 3)
        genera = tuple(rng.randint(0, 2) for _ in range(nv))
        counts = tuple(rng.randint(0, 3) for _ in range(nv))
        edges = []
        for u in range(nv):
            edges += [(u, u)] * rng.choice((0, 0, 0, 1, 2, 3))
            for w in range(u + 1, nv):
                edges += [(u, w)] * rng.choice((0, 0, 0, 1, 2, 3))
        assert_same_degenerations((genera, counts, tuple(sorted(edges))))


def test_census_entries_are_stable_and_in_range():
    for labeled in small_censuses():
        for e, graphs in labeled.classes_by_nodes.items():
            for graph in graphs:
                assert check_stability(graph).valid
                assert genus(graph) == labeled.g
                assert graph.m == labeled.m
                assert graph.num_edges == e
                assert stratum_dim(graph) >= 0
                if stratum_dim(graph) == 0:
                    assert e == 3 * labeled.g - 3 + labeled.m


def test_census_entries_canonical():
    for labeled in small_censuses():
        for graph in labeled.all_graphs():
            assert canonical_form(graph) == graph


def test_census_rejects_bad_signatures():
    with pytest.raises(ValueError):
        enumerate_stable_graphs(0, 2)
    with pytest.raises(ValueError):
        enumerate_stable_graphs(1, 0)
    with pytest.raises(ValueError):
        enumerate_stable_graphs(-1, 5)


def test_census_respects_bounds():
    with pytest.raises(SizeLimitError):
        enumerate_stable_graphs(3, 0, max_dim=5)
    with pytest.raises(SizeLimitError):
        enumerate_stable_graphs(0, 5, max_legs=4)
    assert enumerate_stable_graphs(3, 0, max_dim=6).g == 3


def test_census_deterministic():
    a = enumerate_stable_graphs(1, 2)
    b = enumerate_stable_graphs(1, 2)
    assert a.classes_by_nodes == b.classes_by_nodes


# ---------------------------------------------------------------------------
# splitting a vertex


def test_split_two_vertex_graph():
    graph = StableGraph((1, 2), ((0, 1), (0, 1)), ())
    piece = split_component(graph, 0)
    assert (piece.genus, piece.marks, piece.stable) == (1, 2, True)
    piece = split_component(graph, 1)
    assert (piece.genus, piece.marks, piece.stable) == (2, 2, True)


def test_split_loop_with_leg():
    graph = StableGraph((0,), ((0, 0),), (0,))
    piece = split_component(graph, 0)
    assert (piece.genus, piece.marks, piece.stable) == (0, 3, True)
    assert piece.graph.num_edges == 0
    # original leg keeps label 1, the loop contributes labels 2 and 3
    assert piece.group is not None
    assert all(g(1) == 1 for g in piece.group)
    assert piece.group.order == 2


def test_split_smooth_graph_is_identity_shaped():
    graph = StableGraph((0,), (), (0, 0, 0))
    piece = split_component(graph, 0)
    assert piece.graph == graph
    assert piece.group.order == 1
    assert piece.stable


def test_split_vertex_out_of_range():
    with pytest.raises(ValueError):
        split_component(SMOOTH_G2, 1)


# ---------------------------------------------------------------------------
# numerology


@pytest.mark.parametrize(
    "g,n,m,poly,ambient,rank",
    [
        (2, 3, 0, "6t-1", 4, 5),
        (1, 3, 1, "3t", 2, 3),
        (0, 3, 4, "6t+1", 6, 7),
    ],
)
def test_hilbert_values(g, n, m, poly, ambient, rank):
    data = hilbert_numerology(g, n, m)
    assert data.polynomial_str() == poly
    assert data.ambient_dim == ambient
    assert data.rank == rank
    assert data.rank == data.ambient_dim + 1


def test_hilbert_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hilbert_numerology(2, 2, 0)
    with pytest.raises(ValueError):
        hilbert_numerology(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_numerology(-1, 3, 4)


# ---------------------------------------------------------------------------
# documents


def test_graph_doc_round_trip():
    for graph in census(1, 2).all_graphs():
        assert graph_from_doc(graph_to_doc(graph)) == graph


def test_graph_doc_shape():
    doc = graph_to_doc(SPLIT_12_34)
    assert doc["format"] == "stable-graph/1"
    assert [v["genus"] for v in doc["vertices"]] == [0, 0]
    assert doc["edges"] == [["v0.h0", "v1.h0"]]
    assert doc["legs"][0] == {"label": 1, "vertex": "v0"}


def test_graph_doc_rejects_malformed():
    good = graph_to_doc(SPLIT_12_34)
    for mutate in [
        lambda d: d.pop("format"),
        lambda d: d.update(format="stable-graph/2"),
        lambda d: d.update(vertices=[]),
        lambda d: d["edges"].append(["v0.h1", "v0.h1"]),
        lambda d: d["legs"].append({"label": 4, "vertex": "v0"}),
        lambda d: d["legs"][0].update(label=9),
        lambda d: d["legs"][0].update(vertex="v9"),
    ]:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            graph_from_doc(doc)


def test_census_doc_shape():
    doc = census_to_doc(census(0, 4))
    assert doc["format"] == "stable-graph-census/1"
    assert doc["total"] == 4
    assert set(doc["classes_by_nodes"]) == {"0", "1"}
    assert len(doc["classes_by_nodes"]["1"]) == 3


def test_dumps_stable():
    doc = census_to_doc(census(0, 4))
    assert dumps(doc) == dumps(json.loads(dumps(doc)))
    assert dumps(doc).endswith("\n")
