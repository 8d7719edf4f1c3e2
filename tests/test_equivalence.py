"""``equivalent`` against the fiber-product construction it replaced.

The library decides equivalence by one match per chart (the first marking
passes the star check and each chart of the second matches the first
chart of the first over its base point).  ``fiber_product.py`` keeps the
older search over both pull-backs and its report.  On seeded random
marking pairs the two must give the same verdict and the same report
bytes, and an equivalent pair the same witnesses.
"""

import itertools
import random

from graphstrata import descent
from graphstrata.descent import (
    ChartedMarking,
    FiniteCover,
    equivalent,
    render_equivalence,
    verify_star,
)
from graphstrata.perm import (
    Permutation,
    group_from_generators,
    parse_generators,
    symmetric_group,
)

from fiber_product import fiber_product_equivalent, render_fiber_product


def _groups(m):
    """S_m, C_m, the Klein four-group, every S_k x S_l, and the trivial group."""
    cycle = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
    groups = {
        f"S{m}": symmetric_group(m),
        f"C{m}": group_from_generators(m, [cycle]),
        "trivial": group_from_generators(m, ()),
    }
    if m >= 4:
        groups["Klein"] = group_from_generators(
            m, parse_generators("(1 2)(3 4),(1 3)(2 4)", m)
        )
    for k in range(1, m):
        gens = [
            Permutation.from_cycles(m, [(a, a + 1)])
            for a in itertools.chain(range(1, k), range(k + 1, m))
        ]
        groups[f"S{k}xS{m - k}"] = group_from_generators(m, gens)
    return groups


def _random_perm(rng, m):
    return Permutation(tuple(rng.sample(range(1, m + 1), m)))


def _marking_pair(rng, m, group):
    """Two markings of one fiber setting over 1-3 base points.

    Each marking has 1-4 charts per base point, each a shared ordering of
    the fiber twisted by a group element.  Planted defects: a chart
    twisted by an arbitrary permutation (usually outside the group), a
    fiber with one point more than m (so some point goes unmarked or a
    chart moves to another support), and a second marking whose ordering
    over a base point is shifted by an arbitrary permutation.
    """
    base = tuple(f"x{k}" for k in range(rng.randint(1, 3)))
    fiber_points, orders = {}, {}
    for k, s in enumerate(base):
        points = [f"p{k}_{j}" for j in range(m + (rng.random() < 0.08))]
        fiber_points[s] = tuple(points)
        rng.shuffle(points)
        orders[s] = points

    def marking(prefix, shifted):
        down, sigma = {}, {}
        for s in base:
            points = orders[s]
            shift = _random_perm(rng, m) if shifted and rng.random() < 0.25 else None
            for c in range(rng.randint(1, 4)):
                name = f"{prefix}{s}c{c}"
                down[name] = s
                if rng.random() < 0.06:
                    twist = _random_perm(rng, m)
                else:
                    twist = group.elements[rng.randrange(group.order)]
                if shift is not None:
                    twist = shift * twist
                moved = len(points) > m and rng.random() < 0.5
                support = points[1:] if moved else points[:m]
                sigma[name] = tuple(support[twist(i) - 1] for i in range(1, m + 1))
        return ChartedMarking(
            cover=FiniteCover(base, tuple(down), down),
            m=m,
            group=group,
            fiber_points=dict(fiber_points),
            sigma=sigma,
        )

    return marking("a", False), marking("b", True)


def _cross_matches_in_group(c1, c2):
    """Every chart of c1 matches every chart of c2 over its base point by
    a group element; written without the library's matching code."""
    for a, b in itertools.product(c1.cover.cover, c2.cover.cover):
        if c1.cover.down[a] != c2.cover.down[b]:
            continue
        sa, sb = c1.sigma[a], c2.sigma[b]
        if set(sa) != set(sb):
            return False
        images = tuple(sb.index(p) + 1 for p in sa)
        if images not in c1.group.members:
            return False
    return True


def test_reduced_equivalence_agrees_with_fiber_product_search():
    rng = random.Random(20061106)
    seen = {"equivalent": 0, "first invalid": 0, "both valid, not equivalent": 0}
    pairs = 0
    for m in range(2, 6):
        identity = tuple(range(1, m + 1))
        for name, group in _groups(m).items():
            for _ in range(48):
                c1, c2 = _marking_pair(rng, m, group)
                pairs += 1
                new = equivalent(c1, c2)
                old, candidate = fiber_product_equivalent(c1, c2)
                context = (m, name, c1, c2)
                assert (new is None) == (old is None), context
                assert "".join(render_equivalence(new)) == render_fiber_product(old), context
                valid1 = verify_star(c1).valid
                valid2 = verify_star(c2).valid
                reduced = valid1 and valid2 and _cross_matches_in_group(c1, c2)
                assert (new is not None) == reduced, context
                if new is not None:
                    seen["equivalent"] += 1
                    assert candidate == 0
                    assert new.first is c1 and new.second is c2
                    assert verify_star(old.refinement).valid
                    assert set(old.dom_first.witness_images.values()) == {identity}
                    assert dict(new.witness_images) == {
                        (old.to_first[point], old.to_second[point]): j
                        for point, j in old.dom_second.witness_images.items()
                    }, context
                elif not valid1:
                    seen["first invalid"] += 1
                elif valid2:
                    seen["both valid, not equivalent"] += 1
    assert pairs >= 1000
    assert min(seen.values()) >= 100, seen


def test_equivalent_checks_the_setting_once_and_never_searches_dominations(
    intro_marking, monkeypatch
):
    # Nor does it build the fiber product's cover or marking.
    calls = {"_require_same_setting": 0, "dominates": 0, "FiniteCover": 0, "ChartedMarking": 0}

    def counted(name):
        original = getattr(descent, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(descent, name, wrapper)

    for name in calls:
        counted(name)
    witness = equivalent(intro_marking, intro_marking)
    assert witness is not None
    assert witness.first is intro_marking and witness.second is intro_marking
    assert type(witness.witness_images) is descent._PairWitnesses
    assert calls == dict.fromkeys(calls, 0) | {"_require_same_setting": 1}
