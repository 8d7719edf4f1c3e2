"""Stable dual graphs of nodal curves with labeled marked points.

A graph records one vertex per irreducible component (decorated with its
geometric genus), one edge per node (loops allowed, endpoints unordered),
and one leg per marked point.  Legs carry labels 1..m and attach to
vertices.  The graph is stable when every genus-0 vertex meets at least
three special points (edge ends, loops counted twice, plus legs) and
2g - 2 + m > 0 for the total genus g.

Total genus is the sum of vertex genera plus the first Betti number of the
graph, so ``genus`` is only defined for connected graphs.  The number of
edges is the number of nodes of the curve; a stratum with i nodes has
dimension 3g - 3 + m - i.

``enumerate_stable_graphs`` lists all isomorphism classes up to a bound
on 3g - 3 + m, placing labels by a lexicographic walk on unlabeled shapes
built by degeneration.  Every search keys a vertex by one signature,
(genus, degree, decoration).  Isomorphisms preserve genera, the edge
multiset, and (when asked) leg labels, and come in (signature, index)
order of the first graph's vertices.  ``canonical_form`` picks a fixed
representative of each class by minimizing an encoding over the vertex
orderings that sort the signature decorated by the least leg label,
packed into one integer per vertex, and returns a graph already so
ordered itself.  A discrete invariant fixes the ordering; otherwise it is
refined by neighbor classes and a pruned depth-first search finds the
least one.
"""

from __future__ import annotations

import functools
import itertools
from operator import lt
from typing import Iterable, Iterator, Sequence

from ._record import record
from .limits import DEFAULT_MAX_DIM, MAX_PERM_DEGREE, SizeLimitError
from .perm import PermGroup, Permutation, adjacent_transpositions, check_acts_on, check_degree
from .perm import symmetric_group_on

__all__ = [
    "StableGraph",
    "DisconnectedGraphError",
    "StabilityReport",
    "GraphIsomorphism",
    "StratumCensus",
    "SplitComponent",
    "HilbertNumerology",
    "genus",
    "check_stability",
    "num_nodes",
    "stratum_dim",
    "graph_isomorphism",
    "iter_graph_isomorphisms",
    "canonical_form",
    "relabel_legs",
    "enumerate_stable_graphs",
    "split_component",
    "hilbert_numerology",
    "graph_to_doc",
    "graph_from_doc",
    "census_chunks",
    "census_to_doc",
    "dumps",
    "GRAPH_FORMAT",
    "CENSUS_FORMAT",
]

GRAPH_FORMAT = "stable-graph/1"
CENSUS_FORMAT = "stable-graph-census/1"


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs a connected graph."""


@record
class StableGraph:
    """A genus-decorated multigraph with labeled legs.

    ``genera[v]`` is the genus of vertex ``v`` (vertices are 0-indexed),
    ``edges`` is a sorted tuple of unordered endpoint pairs ``(u, v)`` with
    ``u <= v`` (a loop has ``u == v``), and ``legs[k]`` is the vertex
    carrying the leg labeled ``k + 1``.
    """

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def __post_init__(self) -> None:
        genera = tuple(self.genera)
        if not genera:
            raise ValueError("a graph has at least one vertex")
        nv = len(genera)
        # ``type(x) is int``, not isinstance: bool is a subclass of int.
        for g in genera:
            if type(g) is not int or g < 0:
                raise ValueError(f"vertex genus must be a nonnegative integer, got {g!r}")
        edges = []
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"an edge must be a pair of endpoints, got {edge!r}") from None
            if not (type(u) is int and type(v) is int and 0 <= u < nv and 0 <= v < nv):
                raise ValueError(f"edge endpoints must be integers in 0..{nv - 1}, got {(u, v)!r}")
            edges.append((u, v) if u <= v else (v, u))
        legs = tuple(self.legs)
        for v in legs:
            if type(v) is not int or not 0 <= v < nv:
                raise ValueError(f"leg vertex must be an integer in 0..{nv - 1}, got {v!r}")
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "legs", legs)

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def m(self) -> int:
        return len(self.legs)

    def degree(self, v: int) -> int:
        """Incident half-edges at ``v``; a loop contributes two."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def legs_at(self, v: int) -> tuple[int, ...]:
        return tuple(k + 1 for k, vert in enumerate(self.legs) if vert == v)

    def is_connected(self) -> bool:
        return _connected(self.num_vertices, self.edges)

    def encoding(self) -> tuple:
        """A total-order key determining the graph up to equality."""
        return (len(self.genera), len(self.legs), self.genera, self.edges, self.legs)


def _carried(genera: tuple, edges: tuple, legs: tuple) -> StableGraph:
    """A graph built from a validated one's fields, not checked again.

    The fields must be as ``__post_init__`` leaves them: tuples of ints in
    range, each edge with ``u <= v``, edges sorted.
    """
    graph = object.__new__(StableGraph)
    graph.__dict__.update(genera=genera, edges=edges, legs=legs)
    return graph


def _connected(nv: int, edges: Sequence[tuple[int, int]]) -> bool:
    adj: list[set[int]] = [set() for _ in range(nv)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def genus(graph: StableGraph) -> int:
    """Sum of vertex genera plus the first Betti number of the graph."""
    if not graph.is_connected():
        raise DisconnectedGraphError("genus is undefined for disconnected graphs")
    return sum(graph.genera) + graph.num_edges - graph.num_vertices + 1


@record
class StabilityReport:
    """The unstable vertices, genus, and mark and node counts; the verdict derives from them."""

    violating_vertices: tuple[int, ...]
    graph_genus: int
    marks: int
    nodes: int

    @property
    def slack(self) -> int:
        return 2 * self.graph_genus - 2 + self.marks

    @property
    def stable_range(self) -> bool:
        return self.slack > 0

    @property
    def valid(self) -> bool:
        return not self.violating_vertices and self.stable_range

    @property
    def dim(self) -> int:
        return 3 * self.graph_genus - 3 + self.marks - self.nodes


def check_stability(graph: StableGraph) -> StabilityReport:
    """Check the three-special-points rule and 2g - 2 + m > 0, in time linear in
    the graph: one pass over the edges and legs gives every degree and leg count."""
    sig = _signature(graph.genera, graph.edges, _leg_extras(graph, False))
    bad = tuple(v for v, (h, deg, (legs,)) in enumerate(sig) if h == 0 and deg + legs < 3)
    return StabilityReport(bad, genus(graph), graph.m, graph.num_edges)


def num_nodes(graph: StableGraph) -> int:
    """One node of the curve per edge of the graph."""
    return graph.num_edges


def stratum_dim(graph: StableGraph) -> int:
    return check_stability(graph).dim


# ---------------------------------------------------------------------------
# isomorphism and canonical form


def _signature(
    genera: Sequence[int], edges: Sequence[tuple[int, int]], decoration: Sequence
) -> list[tuple]:
    """Per vertex: genus, degree (a loop counts twice) and decoration."""
    deg = [0] * len(genera)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return list(zip(genera, deg, decoration))


@record
class GraphIsomorphism:
    """Where each vertex goes; parallel edges are interchangeable, so none is matched."""

    vertex_map: tuple[int, ...]


def _leg_extras(graph: StableGraph, respect: bool) -> list[tuple]:
    """Per vertex, its leg labels (or only their number) in one pass."""
    at: list[list[int]] = [[] for _ in range(len(graph.genera))]
    for k, v in enumerate(graph.legs, 1):
        at[v].append(k)
    if respect:
        return [tuple(labels) for labels in at]
    return [(len(labels),) for labels in at]


def iter_graph_isomorphisms(
    a: StableGraph, b: StableGraph, respect_leg_labels: bool = True
) -> Iterator[GraphIsomorphism]:
    """Every vertex bijection of a onto b preserving signatures and edge counts,
    in increasing order of the images of a's vertices in (signature, index) order."""
    sig_a = _signature(a.genera, a.edges, _leg_extras(a, respect_leg_labels))
    sig_b = _signature(b.genera, b.edges, _leg_extras(b, respect_leg_labels))
    if sorted(sig_a) != sorted(sig_b):  # equal degree sums, so edge counts
        return
    nv = len(sig_a)
    mult_a = [[0] * nv for _ in range(nv)]
    mult_b = [[0] * nv for _ in range(nv)]
    for mult, edges in ((mult_a, a.edges), (mult_b, b.edges)):
        for u, v in edges:
            mult[u][v] += 1
            mult[v][u] += 1  # so a loop counts twice on both sides
    order = sorted(range(nv), key=lambda v: (sig_a[v], v))
    images = [[w for w in range(nv) if sig_b[w] == sig_a[v]] for v in order]
    mapping = [0] * nv
    used = [False] * nv

    def rec(k: int) -> Iterator[GraphIsomorphism]:
        if k == nv:
            yield GraphIsomorphism(tuple(mapping))
            return
        v, placed = order[k], order[:k + 1]  # v is the last placed: its loops
        for w in images[k]:
            if used[w]:
                continue
            mapping[v] = w
            row_a, row_b = mult_a[v], mult_b[w]
            for prev in placed:
                if row_a[prev] != row_b[mapping[prev]]:
                    break
            else:
                used[w] = True
                yield from rec(k + 1)
                used[w] = False

    yield from rec(0)


def graph_isomorphism(
    a: StableGraph, b: StableGraph, respect_leg_labels: bool = True
) -> GraphIsomorphism | None:
    """First isomorphism in a deterministic search order, or None."""
    return next(iter_graph_isomorphisms(a, b, respect_leg_labels), None)


def _refined_cells(
    sig: Sequence[tuple], edges: Sequence[tuple[int, int]]
) -> list[list[int]]:
    """Partition vertices by an isomorphism-invariant key, finest first.

    Starts from the initial signature (genus, degree, decoration) and
    refines by the multiset of neighbor classes until stable.  Cell order
    is part of the invariant.
    """
    nv = len(sig)
    ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
    cur = [ranks[sig[v]] for v in range(nv)]
    while True:
        nbr: list[list[int]] = [[] for _ in range(nv)]
        for u, v in edges:
            nbr[u].append(cur[v])
            nbr[v].append(cur[u])
        new_sig = [(cur[v], tuple(sorted(nbr[v]))) for v in range(nv)]
        ranks = {s: r for r, s in enumerate(sorted(set(new_sig)))}
        new = [ranks[new_sig[v]] for v in range(nv)]
        if new == cur:
            break
        cur = new
    cells: dict[int, list[int]] = {}
    for v in range(nv):
        cells.setdefault(cur[v], []).append(v)
    return [cells[r] for r in sorted(cells)]


_SEARCH_BUDGET = 500_000  # edge relabelings: each search node relabels every edge


def _relabeled(pos: Sequence[int], edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The sorted edge list with each end v renamed pos[v]."""
    moved = []
    for u, v in edges:
        u, v = pos[u], pos[v]
        moved.append((u, v) if u <= v else (v, u))
    moved.sort()
    return moved


def _sorted_order(
    sig: Sequence, edges: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """``_least_order``'s result when the signatures are pairwise distinct."""
    nv = len(sig)
    order = sorted(range(nv), key=sig.__getitem__)
    pos = [0] * nv
    for new, old in enumerate(order):
        pos[old] = new
    return order, pos, _relabeled(pos, edges)


def _least_order(
    sig: Sequence, edges: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The allowed vertex order whose relabeled, sorted edge list is least,
    with each vertex's position in it and that edge list, which callers
    take instead of relabeling again.

    ``sig[v]`` is (genus, degree, decoration) of v, the decoration being the
    least leg label (0 if none), or a shape's leg count; or any key that
    ties and orders the vertices as that signature does.  Allowed orders
    take the refined cells in turn, so each puts the same genus and
    decoration at each position.  A discrete invariant fixes the ordering:
    when the signatures are pairwise distinct, refinement would stop after
    one round with the same ranks and leave one ordering, so the vertices
    are sorted by signature.  Otherwise a depth-first search places one
    vertex per position.  With k placed, counting each unplaced end as
    position k bounds every completion from below, and a branch whose bound
    is not below the best so far is cut.  Of twins (one signature, equal
    edge counts to every other vertex) only the least unplaced is tried:
    swapping two twins is an automorphism.
    """
    nv = len(sig)
    if len(set(sig)) == nv:
        return _sorted_order(sig, edges)
    nbr: list[dict[int, int]] = [{} for _ in range(nv)]
    for u, v in edges:
        if u != v:
            nbr[u][v] = nbr[u].get(v, 0) + 1
            nbr[v][u] = nbr[v].get(u, 0) + 1
    prev, last = [], {}  # the next smaller twin of each vertex, or -1
    for u in range(nv):
        key = (sig[u], frozenset(nbr[u].items()))  # twins with no edge between
        joined = [w for w in nbr[u] if w < u and sig[w] == sig[u]
                  and {**nbr[u], u: 0, w: 0} == {**nbr[w], u: 0, w: 0}]
        prev.append(max(joined, default=last.get(key, -1)))
        last[key] = u
    slots = [cell for cell in _refined_cells(sig, edges) for _ in cell]
    best, result, work = [(nv, nv)], ((), ()), 0  # above every bound
    stack: list[tuple[int, ...]] = [()]
    while stack:
        order = stack.pop()
        k = len(order)
        pos = [k] * nv
        for i, v in enumerate(order):
            pos[v] = i
        bound = _relabeled(pos, edges)
        if k == nv and bound < best:
            best, result = bound, (order, pos)
        if bound >= best:  # cut, or a leaf just taken as the best
            continue
        candidates = [w for w in slots[k] if pos[w] == k and (prev[w] < 0 or pos[prev[w]] < k)]
        work += len(candidates) * len(edges)
        if work > _SEARCH_BUDGET:
            raise SizeLimitError(
                f"canonical form search exceeds its budget of {_SEARCH_BUDGET} edge relabelings"
            )
        stack += [order + (w,) for w in reversed(candidates)]
    return list(result[0]), result[1], best


def canonical_form(graph: StableGraph, gamma: Permutation | None = None) -> StableGraph:
    """A fixed representative of the labeled isomorphism class.

    Idempotent, and equal for any two isomorphic presentations; a graph
    already in its least order is returned itself.  Label sets are disjoint,
    so a vertex's least label ties and orders it as all its labels would.
    One pass over the edges and legs gives each vertex one integer key,
    genus * (2E + 1) * (m + 1) + degree * (m + 1) + least label (0 if
    none), for E edges and m legs.  A degree is at most 2E and a least
    label at most m, so the key ties and orders vertices exactly as the
    signature (genus, degree, least label) does.  Keys that strictly
    increase along the vertices are discrete and already sorted, and the
    graph is returned; distinct keys are sorted; only ties go to the search.

    With ``gamma``, the result is that of ``relabel_legs(graph, gamma)``:
    the legs are pulled along gamma as the keys are built, so the relabeled
    graph is built only when it is the result.
    """
    genera, edges, legs = graph.genera, graph.edges, graph.legs
    if gamma is not None:
        if len(gamma.images) != len(legs):
            check_acts_on(gamma, len(legs))
        legs = gamma._pull(legs)
    nv = len(genera)
    step = len(legs) + 1
    top = (2 * len(edges) + 1) * step
    key = [g * top for g in genera]
    for u, v in edges:
        key[u] += step
        key[v] += step
    label = 1
    for v in legs:  # a key is a multiple of step until its vertex's first (least) label
        if key[v] % step == 0:
            key[v] += label
        label += 1
    if all(map(lt, key, key[1:])):
        return graph if legs == graph.legs else _carried(genera, edges, legs)
    if len(set(key)) == nv:
        order, pos, moved = _sorted_order(key, edges)
    else:
        order, pos, moved = _least_order(key, edges)
        if order == list(range(nv)):
            return graph if legs == graph.legs else _carried(genera, edges, legs)
    return _carried(tuple(map(genera.__getitem__, order)), tuple(moved),
                    tuple(map(pos.__getitem__, legs)))


def relabel_legs(graph: StableGraph, gamma: Permutation) -> StableGraph:
    """Send the leg labeled i to the label gamma(i); an unchanged graph is returned itself."""
    old = graph.legs
    if len(gamma.images) != len(old):
        check_acts_on(gamma, len(old))
    # gamma was checked to be a bijection of 1..m when it was built.
    legs = gamma._pull(old)
    return graph if legs == old else _carried(graph.genera, graph.edges, legs)


# ---------------------------------------------------------------------------
# census enumeration


def _shape_key(shape: tuple) -> tuple:
    """The least (genera, leg counts, edges) of the shape's class."""
    genera, counts, edges = shape
    order, _, relabeled = _least_order(_signature(genera, edges, counts), edges)
    return tuple(genera[v] for v in order), tuple(counts[v] for v in order), tuple(relabeled)


def _degenerations(shape: tuple, v: int) -> Iterator[tuple]:
    """Stable shapes with one more edge, whose new edge contracts onto v.

    A self-node adds a loop at v and lowers its genus by one.  A split
    adds a vertex w joined to v, shares v's genus and legs between v and
    w, sends each edge from v to another vertex to v or to w, and keeps
    each loop at v, moves it to w, or turns it into another v-w edge.
    Its mirror (v and w swapped) is isomorphic, so only the shares with
    (h1, n1) <= (h - h1, n - n1) are tried.  When the two are equal, the
    mirror is another split of the same share, and only one of each pair
    is yielded: the one whose kept counts per neighbor precede its
    mirror's, or, with the same counts, the one with no more loops at v
    than at w.

    Only stable splits are visited.  Say ``stay`` of the K edges from v
    to other vertices stay at v, and of its L loops a stay at v and b
    move to w.  Then 2h - 2 + valence is ev + stay + (a - b) at v and
    ew - stay - (a - b) at w, with ev = 2h1 - 1 + n1 + L and
    ew = 2h2 - 1 + n2 + L + K.  Every d with |d| <= L is some a - b, so
    both are positive for some share exactly when ev + stay + L >= 1,
    ew - stay + L >= 1 and ev + ew >= 2.  The first two bound ``stay``.
    The last is 2h - 2 + valence of v itself, the same for every split.
    A split outside these bounds has no stable share, so skipping it
    loses no shape.
    """
    genera, counts, edges = shape
    h, n = genera[v], counts[v]
    if h > 0:  # 2h - 2 + valence is unchanged, so v stays stable
        yield genera[:v] + (h - 1,) + genera[v + 1:], counts, edges + ((v, v),)
    loops, rest, off = 0, [], {}
    for a, b in edges:
        if a != v and b != v:
            rest.append((a, b))
        elif a == b:
            loops += 1
        else:
            off[a + b - v] = off.get(a + b - v, 0) + 1
    total = len(edges) - len(rest) - loops
    if 2 * h + n + 2 * loops + total < 4:  # v's own 2h - 2 + valence is below 2
        return
    w = len(genera)
    away = sorted(off.items())
    by_stay = [[] for _ in range(total + 1)]
    for kept in itertools.product(*(range(k + 1) for _, k in away)):
        moved = list(rest)
        for (u, k), j in zip(away, kept):
            moved += [(min(u, v), max(u, v))] * j + [(u, w)] * (k - j)
        back = tuple(k - j for (_, k), j in zip(away, kept))
        by_stay[sum(kept)].append((tuple(moved), (kept > back) - (kept < back)))
    shares = [(a - b, ((v, v),) * a + ((w, w),) * b + ((v, w),) * (loops - a - b + 1))
              for a in range(loops + 1) for b in range(loops - a + 1)]
    for h1 in range(h // 2 + 1):
        h2 = h - h1
        for n1 in range(n + 1 if h1 < h2 else n // 2 + 1):
            new_genera = genera[:v] + (h1,) + genera[v + 1:] + (h2,)
            new_counts = counts[:v] + (n1,) + counts[v + 1:] + (n - n1,)
            ev = 2 * h1 - 1 + n1 + loops
            ew = 2 * h2 - 1 + n - n1 + loops + total
            even = h1 == h2 and 2 * n1 == n
            for stay in range(max(0, 1 - loops - ev), min(total, ew + loops - 1) + 1):
                tails = [(d, tail) for d, tail in shares if -ev - stay < d < ew - stay]
                for moved, side in by_stay[stay]:
                    if even and side > 0:  # its mirror is yielded
                        continue
                    for d, tail in tails:
                        if d <= 0 or side or not even:
                            yield new_genera, new_counts, moved + tail


def _shapes_by_edges(g: int, m: int, top: int) -> list[list[tuple]]:
    """Shapes of (g, m) with 0..top edges, each level degenerated from the last.

    A stable shape contracts along any edge to one with an edge fewer, so
    no shape is missed; each is connected and stable by construction.
    """
    levels = [[((g,), (m,), ())]]
    for _ in range(top):
        found = {
            _shape_key(shape)
            for old in levels[-1]
            for v in range(len(old[0]))
            for shape in _degenerations(old, v)
        }
        levels.append(sorted(found))
    return levels


def _iter_label_assignments(
    counts: Sequence[int], m: int
) -> Iterator[tuple[int, ...]]:
    """All ways to place labels 1..m so vertex v gets counts[v] of them.

    ``legs[k]`` is the vertex of label k + 1.  The placements are the
    arrangements of the multiset with counts[v] copies of v, walked from the
    sorted one by next permutation, so each comes once, in increasing order.
    """
    legs = [v for v, c in enumerate(counts) for _ in range(c)]
    while True:
        yield tuple(legs)
        i = m - 2
        while i >= 0 and legs[i] >= legs[i + 1]:
            i -= 1
        if i < 0:
            return
        j = m - 1
        while legs[j] <= legs[i]:
            j -= 1
        legs[i], legs[j] = legs[j], legs[i]
        legs[i + 1:] = legs[:i:-1]


@record
class StratumCensus:
    """All isomorphism classes for fixed (g, m), grouped by node count."""

    g: int
    m: int
    classes_by_nodes: dict[int, tuple[StableGraph, ...]]

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.classes_by_nodes.values())

    def counts(self) -> dict[int, int]:
        return {i: len(v) for i, v in self.classes_by_nodes.items()}

    def all_graphs(self) -> Iterator[StableGraph]:
        for i in sorted(self.classes_by_nodes):
            yield from self.classes_by_nodes[i]


def enumerate_stable_graphs(
    g: int,
    m: int,
    *,
    max_dim: int | None = None,
    max_legs: int | None = None,
) -> StratumCensus:
    """Census of stable graph classes of genus g with m legs.

    Degenerates the shapes with one node fewer, places the labels on each
    shape, one placement per orbit of its automorphisms, and takes its
    ``canonical_form``.  Output order: by node count, then by encoding.
    Each shape is checked once, with its first placement; the others are
    carried from it, since a placement only puts legs on its vertices.
    """
    if g < 0 or m < 0:
        raise ValueError("g and m must be nonnegative")
    if 2 * g - 2 + m <= 0:
        raise ValueError(f"no stable curves with g={g}, m={m}")
    bound = DEFAULT_MAX_DIM if max_dim is None else max_dim
    dim = 3 * g - 3 + m
    if dim > bound:
        raise SizeLimitError(f"3g-3+m = {dim} exceeds bound {bound}")
    check_degree(m, MAX_PERM_DEGREE if max_legs is None else max_legs)
    classes: dict[int, tuple[StableGraph, ...]] = {}
    for e, shapes in enumerate(_shapes_by_edges(g, m, dim)):
        bucket: list[StableGraph] = []
        for genera, counts, edges in shapes:
            placements = _iter_label_assignments(counts, m)
            first = StableGraph(genera, edges, next(placements))  # sorted: no map moves it lower
            genera, edges = first.genera, first.edges
            bucket.append(canonical_form(first))
            sig = _signature(genera, edges, counts)
            if len(set(sig)) == len(sig) or max(counts) == m:  # one map, or one placement
                bucket += [canonical_form(_carried(genera, edges, legs)) for legs in placements]
                continue
            # The identity comes first among the maps and never moves a placement lower.
            autos = iter_graph_isomorphisms(first, first, False)
            moves = [iso.vertex_map.__getitem__ for iso in autos][1:]
            for legs in placements:
                if not any(tuple(map(move, legs)) < legs for move in moves):
                    bucket.append(canonical_form(_carried(genera, edges, legs)))
        bucket.sort(key=StableGraph.encoding)
        assert len(set(bucket)) == len(bucket), "census produced duplicate classes"
        classes[e] = tuple(bucket)
    return StratumCensus(g, m, classes)


# ---------------------------------------------------------------------------
# splitting off one vertex


@record
class SplitComponent:
    """One vertex viewed as a curve of its own.

    Original legs keep their relative order and are relabeled 1..a; every
    incident half-edge (two per loop) becomes a fresh leg with a label
    above a.  The fresh labels are mutually interchangeable: ``generators``
    are their adjacent transpositions, and ``group`` is the full symmetric
    group on them (None when there are no marks), closed on first read.
    """

    vertex: int
    genus: int
    marks: int
    graph: StableGraph
    interchangeable: tuple[int, ...]
    report: StabilityReport

    @property
    def stable(self) -> bool:
        return self.report.valid

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return adjacent_transpositions(self.interchangeable, self.marks)

    @functools.cached_property
    def group(self) -> PermGroup | None:
        return symmetric_group_on(self.interchangeable, self.marks) if self.marks else None


def split_component(graph: StableGraph, vertex: int) -> SplitComponent:
    if not 0 <= vertex < graph.num_vertices:
        raise ValueError(f"vertex {vertex} outside 0..{graph.num_vertices - 1}")
    kept = len(graph.legs_at(vertex))
    marks = kept + graph.degree(vertex)
    check_degree(marks)
    component = StableGraph((graph.genera[vertex],), (), (0,) * marks)
    return SplitComponent(vertex, graph.genera[vertex], marks, component,
                          tuple(range(kept + 1, marks + 1)), check_stability(component))


# ---------------------------------------------------------------------------
# Hilbert numerology for the pluricanonical embedding


@record
class HilbertNumerology:
    """Degree data of an n-canonical embedding of a stable marked curve.

    The Hilbert polynomial is ``leading * t + constant`` with
    ``leading = (2g - 2 + m) * n`` and ``constant = 1 - g``; the ambient
    projective space has dimension ``(2g - 2 + m) * n - g`` and the
    pushforward sheaf has rank one more than that.
    """

    g: int
    n: int
    m: int
    leading: int
    constant: int
    ambient_dim: int
    rank: int

    def polynomial_str(self) -> str:
        if self.constant == 0:
            return f"{self.leading}t"
        sign = "+" if self.constant > 0 else "-"
        return f"{self.leading}t{sign}{abs(self.constant)}"


def hilbert_numerology(g: int, n: int, m: int) -> HilbertNumerology:
    if g < 0 or m < 0:
        raise ValueError("g and m must be nonnegative")
    if n < 3:
        raise ValueError("n must be at least 3")
    if 2 * g - 2 + m <= 0:
        raise ValueError(f"no stable curves with g={g}, m={m}")
    leading = (2 * g - 2 + m) * n
    ambient = leading - g
    return HilbertNumerology(
        g=g,
        n=n,
        m=m,
        leading=leading,
        constant=1 - g,
        ambient_dim=ambient,
        rank=ambient + 1,
    )


# ---------------------------------------------------------------------------
# JSON documents


def dumps(doc: dict) -> str:
    """Serialize with fixed key order and a trailing newline."""
    import json

    return json.dumps(doc, indent=2) + "\n"


def _read_back(chunks: Iterable[str]):
    """The JSON value of a writer's text, given as its chunks."""
    import json

    return json.loads("".join(chunks))


def graph_to_doc(graph: StableGraph) -> dict:
    """The graph document as a JSON value, read back from ``_graph_writer``."""
    return _read_back([_graph_writer("")(graph)])


def _graph_id(text: object, prefix: str) -> int | None:
    """``n`` of an id ``<prefix><n>``, ``n`` ASCII digits with no leading zero; else None."""
    digits = text[len(prefix):] if isinstance(text, str) and text.startswith(prefix) else ""
    if digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _parse_half_edge(text: object, nv: int, where: str) -> tuple[int, int]:
    vertex, _, half = text.partition(".") if isinstance(text, str) else ("", "", "")
    v, h = _graph_id(vertex, "v"), _graph_id(half, "h")
    if v is None or h is None:
        raise ValueError(f"{where}: expected 'v<i>.h<k>', got {text!r}")
    if not 0 <= v < nv:
        raise ValueError(f"{where}: vertex v{v} does not exist")
    return v, h


def _is_json_int(value: object) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_doc(doc: object) -> StableGraph:
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    if doc.get("format") != GRAPH_FORMAT:
        raise ValueError(f"format: expected {GRAPH_FORMAT!r}, got {doc.get('format')!r}")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("vertices: expected a nonempty list")
    genera = []
    for i, rec in enumerate(vertices):
        if not isinstance(rec, dict) or not _is_json_int(rec.get("genus")):
            raise ValueError(f"vertices[{i}]: expected an object with integer 'genus'")
        genera.append(rec["genus"])
    nv = len(genera)
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("edges: expected a list")
    seen_halves: set[tuple[int, int]] = set()
    edges = []
    for j, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"edges[{j}]: expected a pair of half-edge ids")
        ends = []
        for part in pair:
            v, h = _parse_half_edge(part, nv, f"edges[{j}]")
            if (v, h) in seen_halves:
                raise ValueError(f"edges[{j}]: half-edge {part} used twice")
            seen_halves.add((v, h))
            ends.append(v)
        edges.append((ends[0], ends[1]))
    raw_legs = doc.get("legs", [])
    if not isinstance(raw_legs, list):
        raise ValueError("legs: expected a list")
    by_label: dict[int, int] = {}
    for j, rec in enumerate(raw_legs):
        if not isinstance(rec, dict):
            raise ValueError(f"legs[{j}]: expected an object")
        label = rec.get("label")
        vtx = rec.get("vertex")
        if not _is_json_int(label) or label < 1:
            raise ValueError(f"legs[{j}]: 'label' must be a positive integer")
        if label in by_label:
            raise ValueError(f"legs[{j}]: label {label} repeated")
        v = _graph_id(vtx, "v")
        if v is None:
            raise ValueError(f"legs[{j}]: 'vertex' must look like 'v<i>'")
        if not 0 <= v < nv:
            raise ValueError(f"legs[{j}]: vertex {vtx} does not exist")
        by_label[label] = v
    m = len(by_label)
    if by_label and sorted(by_label) != list(range(1, m + 1)):
        raise ValueError(f"legs: labels must be exactly 1..{m}")
    legs = tuple(by_label[k] for k in range(1, m + 1))
    return StableGraph(tuple(genera), tuple(edges), legs)


def _json_list(items: list[str], pad: str) -> str:
    """A JSON list of rendered items, each already indented, closed at ``pad``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _graph_writer(pad: str):
    """A function writing a graph's ``stable-graph/1`` text as ``dumps`` would, at nesting ``pad``.

    Half-edge ids are ``v<i>.h<k>``, with k counting up per vertex in edge
    order, so the document is a pure function of the graph.  ``pad`` is
    the indent of the line each object opens on; its closing brace gets
    the same indent and no newline follows it.  The text up to
    the legs depends only on the genera and edges, and a census lists the
    graphs of one shape in a row, so that text is rendered again only when
    the shape changes.  Each leg is rendered once per (label, vertex).
    The text is built without ``json``, so a census command never loads it.
    """
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    shape, start = None, ""
    leg_items: dict[tuple[int, int], str] = {}

    def head(genera: tuple, edges: tuple) -> str:
        vertices = [f'{p2}{{\n{p3}"genus": {g}\n{p2}}}' for g in genera]
        counters = [0] * len(genera)
        pairs = []
        for u, v in edges:
            hu = counters[u]
            counters[u] += 1
            hv = counters[v]
            counters[v] += 1
            pairs.append(f'{p2}[\n{p3}"v{u}.h{hu}",\n{p3}"v{v}.h{hv}"\n{p2}]')
        return (
            f'{{\n{p1}"format": "{GRAPH_FORMAT}",\n{p1}"vertices": {_json_list(vertices, p1)},\n'
            f'{p1}"edges": {_json_list(pairs, p1)},\n{p1}"legs": '
        )

    def text(graph: StableGraph) -> str:
        nonlocal shape, start
        if (graph.genera, graph.edges) != shape:
            shape = (graph.genera, graph.edges)
            start = head(*shape)
        legs = []
        for kv in enumerate(graph.legs, 1):
            item = leg_items.get(kv)
            if item is None:
                item = leg_items[kv] = f'{p2}{{\n{p3}"label": {kv[0]},\n{p3}"vertex": "v{kv[1]}"\n{p2}}}'
            legs.append(item)
        return start + _json_list(legs, p1) + "\n" + pad + "}"

    return text


def _by_nodes_chunks(classes_by_nodes: dict, item_text) -> Iterator[str]:
    """The ``"classes_by_nodes"`` value of a census document, a chunk per class.

    ``item_text`` renders one class as an object opening at a six-space
    indent.  Node counts come in increasing order.
    """
    sep = "{"
    for i in sorted(classes_by_nodes):
        items = classes_by_nodes[i]
        if not items:
            yield f'{sep}\n    "{i}": []'
        else:
            head = f'{sep}\n    "{i}": [\n      '
            for item in items:
                yield head + item_text(item)
                head = ",\n      "
            yield "\n    ]"
        sep = ","
    yield "\n  }" if classes_by_nodes else "{}"


def census_chunks(census: StratumCensus) -> Iterator[str]:
    """The ``stable-graph-census/1`` document as ``dumps`` writes it, in pieces.

    This writer is the one serializer of the format: joined, the chunks are
    the document text, trailing newline included.
    """
    yield (
        f'{{\n  "format": "{CENSUS_FORMAT}",\n  "g": {census.g},\n  "m": {census.m},\n'
        f'  "total": {census.total},\n  "classes_by_nodes": '
    )
    yield from _by_nodes_chunks(census.classes_by_nodes, _graph_writer("      "))
    yield "\n}\n"


def census_to_doc(census: StratumCensus) -> dict:
    """The census document as a JSON value, read back from ``census_chunks``."""
    return _read_back(census_chunks(census))
