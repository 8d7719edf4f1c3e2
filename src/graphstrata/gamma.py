"""Marking classes of stable graphs under a permutation group.

A subgroup of the symmetric group on the leg labels declares which labels
are interchangeable.  Two labeled graphs represent the same marked curve
class when some group element carries one onto the other; the census of
such classes is the orbit fusion of the labeled census.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Iterator

from ._record import record
from .perm import PermGroup, Permutation, check_acts_on, label_orbits
from .stablegraph import (
    GraphIsomorphism,
    StableGraph,
    StratumCensus,
    _by_nodes_chunks,
    _graph_writer,
    _json_list,
    _read_back,
    canonical_form,
    enumerate_stable_graphs,
    iter_graph_isomorphisms,
    relabel_legs,
)

__all__ = [
    "relabel_legs",
    "GammaWitness",
    "gamma_equivalent",
    "gamma_canonical_form",
    "GammaMarkedGraph",
    "gamma_automorphisms",
    "GammaClass",
    "GammaCensus",
    "enumerate_gamma_strata",
    "quotient_fibers",
    "gamma_census_chunks",
    "gamma_census_to_doc",
    "GAMMA_CENSUS_FORMAT",
]

GAMMA_CENSUS_FORMAT = "gamma-census/1"


@record
class GammaWitness:
    """A relabeling in the group and an isomorphism of the relabeled graph onto the other."""

    gamma: Permutation
    isomorphism: GraphIsomorphism


def gamma_equivalent(
    a: StableGraph, b: StableGraph, group: PermGroup
) -> GammaWitness | None:
    """A relabeling in the group plus a label-respecting isomorphism, if any.

    Searches group elements in their lexicographic order, so the witness is
    deterministic.
    """
    check_acts_on(group, a.m)
    if b.m != a.m:
        raise ValueError(f"marks differ: {a.m} vs {b.m}")
    first = next(_gamma_isomorphisms(a, b, group), None)
    return None if first is None else GammaWitness(*first)


def _gamma_isomorphisms(
    a: StableGraph, b: StableGraph, group: PermGroup
) -> Iterator[tuple[Permutation, GraphIsomorphism]]:
    """Each (gamma, iso) with iso carrying ``relabel_legs(a, gamma)`` onto b, gamma in order."""
    for gamma in group:
        for iso in iter_graph_isomorphisms(relabel_legs(a, gamma), b, True):
            yield gamma, iso


# Relabelings keep the vertex and leg counts, so images of one graph order
# by these fields as by ``StableGraph.encoding``.
_fields = attrgetter("genera", "edges", "legs")


def gamma_canonical_form(graph: StableGraph, group: PermGroup) -> StableGraph:
    """Least canonical form over all relabelings in the group."""
    check_acts_on(group, graph.m)
    return min(map(canonical_form, repeat(graph), group), key=_fields)


@record
class GammaMarkedGraph:
    """A stable graph considered up to the group's relabelings."""

    graph: StableGraph
    group: PermGroup
    canonical: StableGraph

    @classmethod
    def of(cls, graph: StableGraph, group: PermGroup) -> "GammaMarkedGraph":
        return cls(graph, group, gamma_canonical_form(graph, group))

    def equivalent_to(self, other: "GammaMarkedGraph") -> bool:
        if self.group != other.group:
            raise ValueError("marked graphs carry different groups")
        return self.canonical == other.canonical

    def class_labels(self) -> tuple[frozenset[int], ...]:
        """Per leg label, the set of labels it is interchangeable with."""
        check_acts_on(self.group, self.graph.m)
        return label_orbits(self.group)


def gamma_automorphisms(
    graph: StableGraph, group: PermGroup
) -> tuple[tuple[Permutation, GraphIsomorphism], ...]:
    """All pairs (gamma, iso) with iso carrying leg i to leg gamma(i).

    The pairs form a group under componentwise composition.
    """
    check_acts_on(group, graph.m)
    return tuple(_gamma_isomorphisms(graph, graph, group))


@record
class GammaClass:
    """One fused class: its orbit of labeled classes and the stabilizer."""

    nodes: int
    representative: StableGraph
    orbit: tuple[StableGraph, ...]
    stabilizer: PermGroup

    @property
    def orbit_size(self) -> int:
        return len(self.orbit)


@record
class GammaCensus:
    """All fused classes for fixed (g, m) under ``group``, grouped by node count."""

    g: int
    m: int
    group: PermGroup
    classes_by_nodes: dict[int, tuple[GammaClass, ...]]

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.classes_by_nodes.values())

    def counts(self) -> dict[int, int]:
        return {i: len(v) for i, v in self.classes_by_nodes.items()}

    def all_classes(self) -> Iterator[GammaClass]:
        for i in sorted(self.classes_by_nodes):
            yield from self.classes_by_nodes[i]


def enumerate_gamma_strata(
    g: int,
    m: int,
    group: PermGroup,
    *,
    max_dim: int | None = None,
    census: StratumCensus | None = None,
) -> GammaCensus:
    """Fuse the labeled census into group orbits, node count by node count.

    Classes come in census order, each keyed by its least member, which is
    its ``gamma_canonical_form``: a census level is sorted by encoding, and
    one orbit's members share vertex and leg counts.  |orbit| * |stabilizer|
    = |group| for each.  A given ``census`` must be the (g, m) census, and
    ``max_dim`` is not read then.
    """
    check_acts_on(group, m)
    if census is None:
        census = enumerate_stable_graphs(g, m, max_dim=max_dim)
    elif (census.g, census.m) != (g, m):
        raise ValueError(f"census is for (g, m) = ({census.g}, {census.m}), not ({g}, {m})")
    classes: dict[int, tuple[GammaClass, ...]] = {}
    for i, level in census.classes_by_nodes.items():
        orbits: dict[StableGraph, list[StableGraph]] = {}
        for labeled in level:
            orbits.setdefault(gamma_canonical_form(labeled, group), []).append(labeled)
        bucket = []
        for rep, members in orbits.items():
            fields = _fields(rep)
            stab = tuple(
                gamma
                for gamma in group
                if _fields(canonical_form(rep, gamma)) == fields
            )
            stabilizer = PermGroup(
                group.degree, stab, frozenset(g.images for g in stab)
            )
            assert len(members) * stabilizer.order == group.order
            bucket.append(
                GammaClass(
                    nodes=i,
                    representative=rep,
                    orbit=tuple(members),
                    stabilizer=stabilizer,
                )
            )
        classes[i] = tuple(bucket)
    return GammaCensus(g, m, group, classes)


def quotient_fibers(
    g: int,
    m: int,
    group: PermGroup,
    *,
    max_dim: int | None = None,
    census: StratumCensus | None = None,
) -> tuple[GammaClass, ...]:
    """Flat view of the fused census: every class with its orbit data."""
    fused = enumerate_gamma_strata(g, m, group, max_dim=max_dim, census=census)
    return tuple(fused.all_classes())


def gamma_census_chunks(fused: GammaCensus) -> Iterator[str]:
    """The ``gamma-census/1`` document as ``dumps`` writes it, in pieces.

    This writer is the one serializer of the format: joined, the chunks are
    the document text, trailing newline included.
    """
    group = [f'    "{g.cycle_string()}"' for g in fused.group.generators]
    yield (
        f'{{\n  "format": "{GAMMA_CENSUS_FORMAT}",\n  "g": {fused.g},\n  "m": {fused.m},\n'
        f'  "group": {_json_list(group, "  ")},\n  "total": {fused.total},\n'
        '  "classes_by_nodes": '
    )
    graph_text = _graph_writer("        ")

    def class_text(cls: GammaClass) -> str:
        return (
            '{\n        "representative": ' + graph_text(cls.representative)
            + f',\n        "orbit_size": {cls.orbit_size},'
            f'\n        "stabilizer_order": {cls.stabilizer.order}\n      }}'
        )

    yield from _by_nodes_chunks(fused.classes_by_nodes, class_text)
    yield "\n}\n"


def gamma_census_to_doc(fused: GammaCensus) -> dict:
    """The fused census document as a JSON value, read back from ``gamma_census_chunks``."""
    return _read_back(gamma_census_chunks(fused))
