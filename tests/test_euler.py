"""Orbifold Euler characteristics of M̄_{g,m} and its quotients, summed over strata.

χ(M̄_{g,m}) = Σ_G Π_v χ(M_{g_v,n_v}) / |Aut G| over the stable graphs G of the
census, where n_v counts the legs and half-edges at v.  The open moduli spaces
have χ(M_{0,3}) = 1, χ(M_{g,1}) = −B_{2g}/(2g) for g ≥ 1 (Harer–Zagier, Invent.
Math. 85, 1986) and χ(M_{g,n+1}) = (2 − 2g − n)·χ(M_{g,n}).  |Aut G| counts the
vertex maps, found here by brute force over vertex permutations, times k! for
each bundle of k parallel edges and a further 2^k when they are loops.  The
arithmetic is exact, and nothing here shares code with the census's canonical
forms or isomorphism search, so a class missing, doubled or wrongly fused
breaks an identity.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from graphstrata.gamma import enumerate_gamma_strata
from graphstrata.perm import group_from_generators, parse_generators
from graphstrata.stablegraph import enumerate_stable_graphs


@functools.cache
def bernoulli(n):
    """B_n with B_1 = -1/2, from Σ_{k<=n} C(n+1, k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


@functools.cache
def chi_open(g, n):
    """χ(M_{g,n}) for 2g - 2 + n > 0."""
    if g == 0 and n == 3:
        return Fraction(1)
    if g > 0 and n == 1:
        return -bernoulli(2 * g) / (2 * g)
    if n == 0:  # g >= 2: χ(M_{g,1}) = (2 - 2g)·χ(M_{g,0})
        return chi_open(g, 1) / (2 - 2 * g)
    return (3 - 2 * g - n) * chi_open(g, n - 1)


@functools.cache
def census(g, m):
    return enumerate_stable_graphs(g, m, max_dim=3 * g - 3 + m)


def closure(m, text):
    """Image tuples of the group the cycle-notation generators generate."""
    gens = [g.images for g in parse_generators(text, m)]
    seen = {tuple(range(1, m + 1))}
    frontier = list(seen)
    while frontier:
        frontier = [tuple(s[x - 1] for x in a) for a in frontier for s in gens]
        frontier = [c for c in frontier if c not in seen and not seen.add(c)]
    return seen


def _norm(u, v):
    return (u, v) if u <= v else (v, u)


def edge_factor(graph):
    out = 1
    for (u, v), k in Counter(graph.edges).items():
        out *= factorial(k) * (2**k if u == v else 1)
    return out


def count_gamma_automorphisms(graph, group):
    """Pairs (γ, φ): φ a vertex bijection carrying each leg i to leg γ(i)."""
    nv = len(graph.genera)
    mult = Counter(graph.edges)
    labels = [frozenset(k + 1 for k, x in enumerate(graph.legs) if x == v) for v in range(nv)]
    degree = Counter(itertools.chain(*graph.edges))  # a loop counts twice
    loops = Counter(u for u, v in graph.edges if u == v)
    # φ keeps the genus, the degree and the loops and moves a vertex's labels
    # within their Γ-orbit, so it permutes the vertices within these classes.
    classes = {}
    for v in range(nv):
        orbit = min(sorted(gamma[k - 1] for k in labels[v]) for gamma in group)
        key = (graph.genera[v], degree[v], loops[v], tuple(orbit))
        classes.setdefault(key, []).append(v)
    maps = [
        dict(zip(itertools.chain(*classes.values()), itertools.chain(*choice)))
        for choice in itertools.product(*map(itertools.permutations, classes.values()))
    ]
    maps = [phi for phi in maps if Counter(_norm(phi[u], phi[v]) for u, v in graph.edges) == mult]
    count = 0
    for gamma in group:
        moved = [{gamma[k - 1] for k in labels[v]} for v in range(nv)]
        count += sum(all(labels[phi[v]] == moved[v] for v in range(nv)) for phi in maps)
    return count


def weight(graph):
    """Π_v χ(M_{g_v,n_v}): the open stratum's Euler characteristic before Aut."""
    valence = Counter(graph.legs)
    for u, v in graph.edges:
        valence[u] += 1
        valence[v] += 1
    out = Fraction(1)
    for v, g in enumerate(graph.genera):
        out *= chi_open(g, valence[v])
    return out


def stratum_chi(graph):
    trivial = {tuple(range(1, graph.m + 1))}
    return weight(graph) / (count_gamma_automorphisms(graph, trivial) * edge_factor(graph))


@functools.cache
def chi(g, m):
    """χ(M̄_{g,m}), summed over the strata of the census."""
    return sum(map(stratum_chi, census(g, m).all_graphs()), Fraction(0))


def test_open_moduli_values():
    assert chi_open(1, 1) == Fraction(-1, 12)
    assert chi_open(2, 0) == Fraction(-1, 240)
    assert chi_open(0, 5) == 2


@pytest.mark.parametrize(
    "m,expected", [(3, 1), (4, 2), (5, 7), (6, 34), (7, 213), (8, 1630)]
)
def test_genus_0_is_the_betti_sum_of_keel(m, expected):
    # M̄_{0,m} is a smooth variety (Keel, Trans. AMS 330, 1992), so its Euler
    # characteristic is an integer, the sum of its Betti numbers.
    assert chi(0, m) == expected


def test_m11():
    assert chi(1, 1) == Fraction(5, 12)


@pytest.mark.parametrize(
    "g,m",
    [(0, 4), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)],
)
def test_forgetful_map_fibers_are_the_curves(g, m):
    # M̄_{g,m+1} is the universal curve over M̄_{g,m}; over a curve with E
    # nodes the fiber is the curve itself, of Euler characteristic 2 - 2g + E.
    fibered = sum(
        (stratum_chi(gr) * (2 - 2 * g + gr.num_edges) for gr in census(g, m).all_graphs()),
        Fraction(0),
    )
    assert fibered == chi(g, m + 1)


@pytest.mark.parametrize(
    "g,m,generators",
    [
        (0, 5, "(1 2),(2 3),(3 4),(4 5)"),
        (1, 3, "(1 2 3)"),
        (0, 6, "(1 2),(3 4)"),
        (0, 4, "(1 2)(3 4),(1 3)(2 4)"),
        (0, 5, "(1 2 3 4 5)"),
        (0, 5, "(1 2),(2 3),(4 5)"),
        # the groups of the fusion golden runs
        (0, 6, "(1 2 3 4 5 6)"),
        (0, 7, "(1 2 3 4 5 6 7)"),
        (0, 6, "(1 2),(2 3),(4 5),(5 6)"),
        (1, 4, "(1 2),(2 3),(3 4)"),
        (2, 2, "(1 2)"),
    ],
)
def test_quotient_by_the_label_group(g, m, generators):
    # The strata of [M̄_{g,m}/Γ] are the fused classes, each with automorphism
    # group Aut_Γ G of pairs (γ, φ); the quotient has χ(M̄_{g,m}) / |Γ|.
    group = closure(m, generators)
    fused = enumerate_gamma_strata(
        g, m, group_from_generators(m, parse_generators(generators, m)), census=census(g, m)
    )
    total = Fraction(0)
    for cls in fused.all_classes():
        rep = cls.representative
        total += weight(rep) / (count_gamma_automorphisms(rep, group) * edge_factor(rep))
    assert total == chi(g, m) / len(group)
