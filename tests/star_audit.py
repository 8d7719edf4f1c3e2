"""Tests-only audit of descent reports, by exhaustive scans.

``graphstrata.descent.verify_star`` finds each witness as the position
match of two charts and decides compatibility by one match per chart;
``verify_morphism`` decides by one match per source chart, and
``dominates`` by one match per fine chart.  These scans share no code
with any of them: they move each chart by every group element
and look the other chart up among the results, and they walk every triple
of charts over a base point.  They hold for
any injective charts, so a disagreement means the report is wrong.
"""

import itertools


def _moved(group, m, seq):
    """Each element g of ``group`` by the chart seq o g, as a tuple: g's images by it."""
    moved = {tuple(seq[g(i) - 1] for i in range(1, m + 1)): g.images for g in group}
    assert len(moved) == group.order, "two group elements move one chart alike"
    return moved


def _over(cover, point):
    """The cover points over ``point``, in cover order."""
    return [c for c in cover.cover if cover.down[c] == point]


def _scan(pairs, source, target, group, m):
    """Witness images and missing keys of ``(a, b)`` pairs: the g with source[a] == target[b] o g."""
    moved, witnesses, missing = {}, {}, []
    for a, b in pairs:
        if b not in moved:
            moved[b] = _moved(group, m, target[b])
        j = moved[b].get(tuple(source[a]))
        if j is None:
            missing.append((a, b))
        else:
            witnesses[(a, b)] = j
    return witnesses, tuple(missing)


def scan_star(marking):
    """``(witness images, missing pairs, valid)`` of a marking, from every group element.

    The witnesses and missing pairs cover every ordered same-fiber pair in
    report order; valid means no pair is missing and every fiber point is
    marked by some chart.
    """
    pairs = [
        pair
        for s in marking.cover.base
        for pair in itertools.product(_over(marking.cover, s), repeat=2)
    ]
    sigma = marking.sigma
    witnesses, missing = _scan(pairs, sigma, sigma, marking.group, marking.m)
    marked = {p for seq in sigma.values() for p in seq}
    everything_marked = all(p in marked for pts in marking.fiber_points.values() for p in pts)
    return witnesses, missing, not missing and everything_marked


def scan_morphism(hm, source, target):
    """``(witness images, missing pairs)`` of a fiber map, from every group element.

    A pair (a, b) is a source chart a and a target chart b over the image
    of a's base point, in report order: source cover order, then target
    cover order.
    """
    home = {a: hm.base_map[source.cover.down[a]] for a in source.cover.cover}
    mapped = {
        a: [hm.fiber_maps[source.cover.down[a]][p] for p in seq] for a, seq in source.sigma.items()
    }
    pairs = [(a, b) for a in source.cover.cover for b in _over(target.cover, home[a])]
    return _scan(pairs, mapped, target.sigma, source.group, source.m)


def scan_domination(fine, coarse, down):
    """``(witness images, missing points)`` of a domination, from every group element.

    Each fine cover point c, in fine cover order, pairs with the coarse
    chart at ``down[c]``; its witness is the g with fine[c] == coarse[down[c]] o g.
    """
    pairs = [(c, down[c]) for c in fine.cover.cover]
    witnesses, missing = _scan(pairs, fine.sigma, coarse.sigma, fine.group, fine.m)
    return {c: j for (c, _), j in witnesses.items()}, tuple(c for c, _ in missing)


def audit_unique(marking, witnesses):
    """Each witnessed pair is matched by exactly one group element."""
    labels = range(1, marking.m + 1)
    return all(
        sum(
            all(marking.sigma[a][i - 1] == marking.sigma[b][g(i) - 1] for i in labels)
            for g in marking.group
        )
        == 1
        for a, b in witnesses
    )


def audit_coherent(marking, witnesses):
    """Diagonal witnesses are identities and witnesses compose over triples."""
    coherent = True
    for s in marking.cover.base:
        fiber = marking.cover.fiber(s)
        for a in fiber:
            w = witnesses.get((a, a))
            if w is not None and w != tuple(range(1, len(w) + 1)):
                coherent = False
        for a, b, c in itertools.product(fiber, repeat=3):
            wab, wbc, wac = witnesses.get((a, b)), witnesses.get((b, c)), witnesses.get((a, c))
            # sigma(a) = sigma(b) o w_ab forces w_ac = w_bc o w_ab.
            if None not in (wab, wbc, wac) and tuple(wbc[k - 1] for k in wab) != wac:
                coherent = False
    return coherent
