"""Every conjugacy class of subgroups of S4 and S5 fuses the genus-0 census right.

The paper's space [M_{0,m}/Gamma] depends on Gamma only as a subgroup of S_m
and, up to relabeling the marks, only on its conjugacy class.  So one
subgroup per class, from ``tests/subgroup_classes.json`` (written by
``tests/record_subgroups.py``), covers every Gamma in S4 and S5.  Each fused
census's class counts per node count must equal Burnside's count from the
cycle index of stable trees, ``tests/cycle_index.py``, which shares no code
with the fusion.  The list itself is checked against the numbers of
subgroups and of their conjugacy classes of S4 and S5.
"""

import json
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from cycle_index import closure, class_counts
from graphstrata.gamma import enumerate_gamma_strata
from graphstrata.perm import group_from_generators, parse_generators

SUBGROUPS = json.loads(
    (Path(__file__).parent / "subgroup_classes.json").read_text(encoding="utf-8")
)
ENTRIES = [(int(m), gens) for m, entries in SUBGROUPS.items() for gens in entries]


def _count_faults(m, generators, fused_under):
    """Node counts at which the census fused under ``fused_under`` differs
    from the cycle index of the group ``generators`` generate."""
    group = group_from_generators(m, parse_generators(fused_under, m))
    found = enumerate_gamma_strata(0, m, group).counts()
    expected = class_counts(m, generators)
    return {i: (found.get(i), n) for i, n in expected.items() if found.get(i) != n}


@pytest.mark.parametrize("m,generators", ENTRIES, ids=[f"S{m} {g or '()'}" for m, g in ENTRIES])
def test_fused_counts_match_the_cycle_index(m, generators):
    assert _count_faults(m, generators, generators) == {}


@pytest.mark.parametrize("m", [4, 5])
def test_count_check_catches_a_proper_subgroup(m):
    # The last entry is S_m; its first generator alone closes to a proper subgroup.
    whole = SUBGROUPS[str(m)][-1]
    assert len(closure(m, whole)) == factorial(m)
    assert _count_faults(m, whole, whole.split(",")[0]) != {}


def _conjugates(m, group):
    """Every subgroup s group s^-1 of S_m, each as a frozenset of image tuples."""
    out = set()
    for s in permutations(range(1, m + 1)):
        image = {tuple(s[h[s.index(x)] - 1] for x in range(1, m + 1)) for h in group}
        out.add(frozenset(image))
    return out


@pytest.mark.parametrize("m,classes,subgroups", [(4, 11, 30), (5, 19, 156)])
def test_the_list_holds_one_subgroup_per_conjugacy_class(m, classes, subgroups):
    # S4 has 30 subgroups in 11 classes and S5 156 in 19 (OEIS A005432 and
    # A000638).  Disjoint conjugate sets that cover that many subgroups
    # are pairwise non-conjugate and leave no class out.
    found = [_conjugates(m, closure(m, gens)) for gens in SUBGROUPS[str(m)]]
    assert len(found) == classes
    assert sum(map(len, found)) == len(set().union(*found)) == subgroups
