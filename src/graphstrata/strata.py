"""Census tables for labeled strata and their group quotients.

For fixed (g, m) the labeled census lists one graph per isomorphism
class, grouped by node count.  A group of leg relabelings acts on that
census; fusing its orbits produces the quotient table, which records the
labeled count, the class count, and the orbit decomposition per node
count.  Orbit sizes multiply against stabilizer orders to the group
order, so a table doubles as a check of the covering-degree claim.

``component_census`` runs the vertex-splitting pipeline across a whole
graph: every vertex becomes a smooth piece whose detached half-edges turn
into interchangeable marks, and for a stable input every piece is stable.
"""

from __future__ import annotations

from ._record import record
from .gamma import enumerate_gamma_strata
from .perm import PermGroup
from .stablegraph import (
    SplitComponent,
    StableGraph,
    StratumCensus,
    enumerate_stable_graphs,
    split_component,
)

__all__ = [
    "QuotientRow",
    "QuotientTable",
    "build_quotient_table",
    "render_quotient_table",
    "component_census",
]


@record
class QuotientRow:
    """Per node count: labeled classes, fused classes, and the fused orbit sizes."""

    nodes: int
    labeled: int
    gamma: int
    orbit_sizes: tuple[int, ...]


@record
class QuotientTable:
    """The quotient rows of the (g, m) census under ``group``, by node count."""

    g: int
    m: int
    group: PermGroup
    rows: tuple[QuotientRow, ...]

    @property
    def total_gamma(self) -> int:
        return sum(row.gamma for row in self.rows)


def build_quotient_table(
    g: int,
    m: int,
    group: PermGroup,
    *,
    max_dim: int | None = None,
    census: StratumCensus | None = None,
) -> QuotientTable:
    if census is None:
        census = enumerate_stable_graphs(g, m, max_dim=max_dim)
    gamma_census = enumerate_gamma_strata(g, m, group, census=census)
    rows = []
    for nodes in sorted(census.classes_by_nodes):
        labeled = len(census.classes_by_nodes[nodes])
        classes = gamma_census.classes_by_nodes[nodes]
        orbit_sizes = tuple(cls.orbit_size for cls in classes)
        assert sum(orbit_sizes) == labeled
        rows.append(
            QuotientRow(
                nodes=nodes,
                labeled=labeled,
                gamma=len(classes),
                orbit_sizes=orbit_sizes,
            )
        )
    return QuotientTable(g=g, m=m, group=group, rows=tuple(rows))


def render_quotient_table(table: QuotientTable) -> str:
    lines = [f"g={table.g} m={table.m} group={table.group.generator_string()}"]
    for row in table.rows:
        orbits = ", ".join(str(n) for n in row.orbit_sizes)
        lines.append(
            f"i={row.nodes}: labeled={row.labeled} gamma={row.gamma} orbits=[{orbits}]"
        )
    return "\n".join(lines) + "\n"


def component_census(graph: StableGraph) -> tuple[SplitComponent, ...]:
    """Split every vertex of the graph into its own marked piece."""
    return tuple(
        split_component(graph, v) for v in range(graph.num_vertices)
    )
