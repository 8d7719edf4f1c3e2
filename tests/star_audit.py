"""Tests-only audit of a star report's witnesses, by exhaustive scans.

``graphstrata.descent.verify_star`` finds each witness as the position
match of two charts and decides compatibility by one match per chart.
These scans share no code with it: one tries every group element on every
witnessed pair, the other walks every triple of charts over a base point.
Both hold for any injective charts, so a failure means the report is wrong.
"""

import itertools


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
