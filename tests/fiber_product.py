"""Tests-only copy of the two-candidate fiber-product equivalence search.

``graphstrata.descent.equivalent`` decides by one match per chart.  This
is the construction it replaced, kept so the tests can check that the two
agree: build the fiber product of the two covers, pull back the first
marking and then the second, and accept the first candidate that passes
the star check and dominates both markings.  ``render_fiber_product``
prints the report that construction printed.
"""

from collections import namedtuple

from graphstrata.descent import (
    ChartedMarking,
    FiniteCover,
    _require_same_setting,
    dominates,
    verify_star,
)
from graphstrata.perm import cycle_notation

FiberProductWitness = namedtuple(
    "FiberProductWitness", "refinement to_first to_second dom_first dom_second"
)


def fiber_product_equivalent(c1, c2):
    """``(witness, candidate)``: candidate 0 or 1 is the winning pull-back.

    Both are ``None`` when neither candidate passes all three checks.
    """
    _require_same_setting(c1, c2)
    pairs = [
        (a, b)
        for a in c1.cover.cover
        for b in c2.cover.cover
        if c1.cover.down[a] == c2.cover.down[b]
    ]
    names = [f"{a}*{b}" for a, b in pairs]
    assert len(set(names)) == len(names), "cover point names collide"
    down = {name: c1.cover.down[a] for name, (a, b) in zip(names, pairs)}
    cover = FiniteCover(tuple(c1.cover.base), tuple(names), down)
    to_first = {name: a for name, (a, b) in zip(names, pairs)}
    to_second = {name: b for name, (a, b) in zip(names, pairs)}
    pulls = (
        {name: c1.sigma[a] for name, (a, b) in zip(names, pairs)},
        {name: c2.sigma[b] for name, (a, b) in zip(names, pairs)},
    )
    for candidate, pull in enumerate(pulls):
        refinement = ChartedMarking(
            cover=cover,
            m=c1.m,
            group=c1.group,
            fiber_points=dict(c1.fiber_points),
            sigma=pull,
        )
        if not verify_star(refinement).valid:
            continue
        dom1 = dominates(refinement, c1, to_first)
        if not dom1.valid:
            continue
        dom2 = dominates(refinement, c2, to_second)
        if not dom2.valid:
            continue
        return FiberProductWitness(refinement, to_first, to_second, dom1, dom2), candidate
    return None, None


def render_fiber_product(witness):
    """The equivalence report, one line per refinement point with its two witnesses."""
    if witness is None:
        return "NOT EQUIVALENT\n"
    points = witness.refinement.cover.cover
    left, right = witness.dom_first.witness_images, witness.dom_second.witness_images
    lines = [f"refinement: {len(points)} cover points\n"]
    lines += [
        f"({name}): left gamma = {cycle_notation(left[name])},"
        f" right gamma = {cycle_notation(right[name])}\n"
        for name in points
    ]
    return "".join(lines) + "EQUIVALENT\n"
