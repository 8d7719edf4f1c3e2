"""Genus-0 class counts from the cycle-index series of stable trees, for the tests.

Independent of the library on purpose: no graph is built, and nothing is
imported from ``graphstrata``.  A genus-0 stable graph with m legs is a
tree whose vertices each meet at least three legs or edges, and its nodes
are its edges.  With t marking an edge, the cycle-index series of what
hangs from one end of an edge or leg slot (Z_R: a leg, or an edge to a
vertex carrying at least two more branches), of a vertex with at least two
branches (B) and of the trees themselves (Z_F) satisfy, by the
dissymmetry theorem for trees (Bergeron, Labelle and Leroux, *Combinatorial
Species and Tree-like Structures*, 1998),

    Z_R = p_1 + t * sum_{k>=2} h_k[Z_R],      B = sum_{k>=2} h_k[Z_R],
    Z_F = sum_{k>=3} h_k[Z_R] + t * (h_2[B] - B^2).

The plethysm p_j[F] is F with each p_i replaced by p_{ij} and t by t^j,
and h_k[F] = (1/k) sum_{i=1..k} p_i[F] h_{k-i}[F].  A series is a dict
from (degree, partition, edges) to an exact ``Fraction``, cut above the
degree asked for.  z_lambda times the coefficient of p_lambda t^i in Z_F
is the number of labeled trees with i edges that a permutation of cycle
type lambda fixes, and Burnside's lemma averages it over a group.
"""

import functools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

_ONE = {(0, (), 0): Fraction(1)}


def _add(*series, sign=1):
    """The first series plus ``sign`` times each of the others."""
    out = Counter()
    for k, s in enumerate(series):
        for key, c in s.items():
            out[key] += c if k == 0 else sign * c
    return {key: c for key, c in out.items() if c}


def _mul(a, b, top):
    out = Counter()
    for (da, la, ea), ca in a.items():
        for (db, lb, eb), cb in b.items():
            if da + db <= top:
                out[(da + db, tuple(sorted(la + lb, reverse=True)), ea + eb)] += ca * cb
    return dict(out)


def _power_sum(f, j, top):
    """p_j[f]: every p_i becomes p_{ij} and t becomes t^j."""
    return {
        (d * j, tuple(p * j for p in parts), e * j): c
        for (d, parts, e), c in f.items()
        if d * j <= top
    }


def _complete(f, top):
    """h_0[f], ..., h_top[f] for a series f without a constant term."""
    powers = [None] + [_power_sum(f, j, top) for j in range(1, top + 1)]
    h = [_ONE]
    for k in range(1, top + 1):
        total = _add(*(_mul(powers[i], h[k - i], top) for i in range(1, k + 1)))
        h.append({key: c / k for key, c in total.items()})
    return h


def _times_t(f):
    return {(d, parts, e + 1): c for (d, parts, e), c in f.items()}


@functools.cache
def _trees(top):
    """Z_F up to degree ``top``."""
    leg = {(1, (1,), 0): Fraction(1)}
    z_r = leg
    for d in range(2, top + 1):  # Z_R in degree d needs it only below d
        z_r = _add(leg, _times_t(_add(*_complete(z_r, d)[2:])))
    h = _complete(z_r, top)
    branches = _add(*h[2:])
    edge = _add(_complete(branches, top)[2], _mul(branches, branches, top), sign=-1)
    return _add(*h[3:], _times_t(edge))


def _z(parts):
    """z_lambda: the order of the centralizer of a permutation of cycle type ``parts``."""
    return prod(j**n * factorial(n) for j, n in Counter(parts).items())


def _fixed_trees(m):
    """{(cycle type, edges): labeled trees with m legs that the permutation fixes}."""
    out = {}
    for (d, parts, e), c in _trees(m).items():
        if d == m:
            fixed = c * _z(parts)
            assert fixed.denominator == 1
            out[(parts, e)] = int(fixed)
    return out


def closure(m, text):
    """Image tuples of every element generated by the cycle-notation text."""
    gens = []
    for part in filter(None, text.split(",")):
        images = list(range(1, m + 1))
        for cycle in part.strip()[1:-1].split(")("):
            labels = [int(a) for a in cycle.split()]
            for a, b in zip(labels, labels[1:] + labels[:1]):
                images[a - 1] = b
        gens.append(tuple(images))
    identity = tuple(range(1, m + 1))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [
            tuple(s[x - 1] for x in a) for a in frontier for s in gens
        ]
        frontier = [c for c in frontier if c not in seen and not seen.add(c)]
    return seen


def _cycle_type(images):
    """Cycle lengths of the permutation with these images, longest first."""
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        n, i = 0, start
        while i not in seen:
            seen.add(i)
            i, n = images[i - 1], n + 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def class_counts(m, generators=""):
    """Genus-0 classes with m legs up to the group, per node count 0..m-3."""
    elements = closure(m, generators)
    types = Counter(map(_cycle_type, elements))
    fixed = _fixed_trees(m)
    counts = {}
    for i in range(m - 2):
        total = sum(n * fixed.get((parts, i), 0) for parts, n in types.items())
        assert total % len(elements) == 0
        counts[i] = total // len(elements)
    return counts
