"""Permutations of {1, ..., m} and finite subgroups of the symmetric group.

Labels are 1-based throughout.  A permutation is stored as its image
sequence: ``p.images[i - 1]`` is the image of label ``i``.  Composition is
``(a * b)(i) = a(b(i))``, so ``b`` acts first.  A group holds the set of
its members' image sequences, closed from its generators coset by coset
(Dimino's algorithm), so order and membership need no ``Permutation``
per element.  Scans that need an order read ``PermGroup.elements``, the
members sorted lexicographically by image sequence and built on first
read; that fixed order is what makes every canonical form downstream
reproducible.  Label orbits come from the generators alone.

Cycle notation reads and writes strings like ``"(1 2)(3 4)"`` with the
identity written ``"()"``; ``cycle_notation`` writes it from an image
sequence, with no ``Permutation`` built, and ``Permutation`` prints by it.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ._record import record
from .limits import MAX_GROUP_ORDER, MAX_PERM_DEGREE, SizeLimitError

__all__ = [
    "Permutation",
    "PermGroup",
    "group_from_generators",
    "symmetric_group",
    "symmetric_group_on",
    "label_orbits",
    "cycle_notation",
    "parse_permutation",
    "parse_generators",
]


@record(order=True)
class Permutation:
    """A bijection of {1, ..., m}, stored as its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if m == 0:
            raise ValueError("permutation degree must be positive")
        # ``type(i) is int``, not isinstance: bool is a subclass of int.
        if {*map(type, self.images)} != {int} or sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a bijection of 1..{m}: {self.images!r}")

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, m + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                _check_label(a, m)
                if a in seen:
                    raise ValueError(f"label {a} repeated across cycles")
                seen.add(a)
            # An empty cycle, the identity's "()", moves nothing.
            for a, b in zip(cycle, tuple(cycle[1:]) + tuple(cycle[:1])):
                images[a - 1] = b
        # Each label was checked and met once, so a nonempty result is a
        # bijection; degree 0 goes to the check that refuses it.
        return _member(tuple(images)) if images else cls(())

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        _check_label(i, self.degree)
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a * b)(i) = a(b(i)); another operand is refused as the comparisons refuse it.
        if not isinstance(other, Permutation):
            return NotImplemented
        check_acts_on(other, self.degree)
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        return Permutation(self._pull(tuple(range(1, self.degree + 1))))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least label."""
        return _cycles(self.images)

    def cycle_string(self) -> str:
        return cycle_notation(self.images)

    __str__ = cycle_string

    @functools.cached_property
    def _pull(self):
        """Moves the values of a per-label tuple along the permutation.

        For ``s`` with entry ``i - 1`` at label i, the result has at label
        p(i) what ``s`` has at label i: an ``itemgetter`` of the inverse,
        derived on first use.  The only permutation of degree 1 is the
        identity, which ``tuple`` applies (``itemgetter`` of one index would
        return an item, not a tuple).
        """
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j - 1] = i
        return itemgetter(*inv) if len(inv) > 1 else tuple


def _check_label(a: object, m: int) -> None:
    """Refuse anything but an int label in 1..m; ``bool`` is not a label."""
    if type(a) is not int or not 1 <= a <= m:
        raise ValueError(f"label {a!r} outside 1..{m}")


def _cycles(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    out = []
    seen = [False] * (len(images) + 1)
    for start, j in enumerate(images, start=1):
        if seen[start] or j == start:
            continue
        cycle = [start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = images[j - 1]
        out.append(tuple(cycle))
    return tuple(out)


def cycle_notation(images: Sequence[int]) -> str:
    """Cycle notation of the bijection with image sequence ``images``, written as
    ``_cycles`` walks it, in one pass."""
    text = ""
    seen = set()
    for start, j in enumerate(images, start=1):
        if j != start and start not in seen:
            text += f"({start}"
            while j != start:
                seen.add(j)
                text += f" {j}"
                j = images[j - 1]
            text += ")"
    return text or "()"


def generator_text(generators: Iterable[Permutation]) -> str:
    """Generators in cycle notation, comma separated; ``"()"`` if none."""
    return ",".join([g.cycle_string() for g in generators]) or "()"


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``"(1 2)(3 4)"``; ``"()"`` is the identity."""
    rest = text.strip()
    if not rest:
        raise ValueError("empty permutation literal")
    cycles: list[tuple[int, ...]] = []
    while rest:
        body, closed, after = rest[1:].partition(")")
        labels = body.split()
        if rest[0] != "(" or not closed or "".join(labels).strip("0123456789"):
            raise ValueError(f"bad cycle notation: {text!r}")
        try:
            cycles.append(tuple(int(tok.lstrip("0") or "0") for tok in labels))
        except ValueError:  # more digits than int() converts, so outside 1..degree
            longest = max(len(tok.lstrip("0")) for tok in labels)
            raise ValueError(f"label with {longest} digits outside 1..{degree}") from None
        rest = after.lstrip()
    return Permutation.from_cycles(degree, cycles)


def parse_generators(text: str, degree: int) -> tuple[Permutation, ...]:
    """Parse a comma-separated list of permutations in cycle notation."""
    if not text.strip():
        return ()
    return tuple(parse_permutation(part, degree) for part in text.split(","))


@record(uncompared=("generators",))
class PermGroup:
    """A subgroup of the symmetric group, held as the set of its members.

    ``members`` holds the image sequence of every element, and
    ``generators`` generate it.  Two groups are equal when they have the
    same degree and the same members, whatever their generators.
    ``elements`` lists the members as ``Permutation`` values sorted
    lexicographically by image sequence; it is built on first read.
    """

    degree: int
    generators: tuple[Permutation, ...]
    members: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a group has at least the identity")

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(_member, sorted(self.members)))

    @property
    def order(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, Permutation) and p.images in self.members

    def generator_string(self) -> str:
        """The generators as ``generator_text`` writes them."""
        return generator_text(self.generators)


def _member(images: tuple[int, ...]) -> Permutation:
    """The ``Permutation`` of a closed group's member, not checked again.

    Closure composes bijections, so every member is one already.
    """
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def check_degree(m: int, bound: int = MAX_PERM_DEGREE) -> None:
    if m > bound:
        raise SizeLimitError(f"degree {m} exceeds bound {bound}")


def check_label_count(m: int, bound: int = MAX_PERM_DEGREE) -> None:
    """Refuse a label count outside 1..bound; a label group needs a label."""
    if m < 1:
        raise ValueError("m must be positive")
    check_degree(m, bound)


def check_acts_on(x: Permutation | PermGroup, m: int) -> None:
    """Refuse a permutation or group that does not act on the labels 1..m."""
    if x.degree != m:
        raise ValueError(f"degree {x.degree} does not match m = {m}")


def group_from_generators(
    m: int,
    generators: Iterable[Permutation],
    *,
    max_degree: int = MAX_PERM_DEGREE,
    max_order: int = MAX_GROUP_ORDER,
) -> PermGroup:
    """Close a generating set by cosets (Dimino's algorithm), on image tuples.

    Each generator s outside the group H of the ones before it is adjoined
    by whole left cosets x∘H, found by multiplying coset representatives
    on the left by the generators so far.  The bound is checked after each
    coset, so at most one coset past it is ever held.
    """
    check_label_count(m, max_degree)
    gens = tuple(generators)
    for g in gens:
        check_acts_on(g, m)
    # A tuple x padded with a leading 0 maps label j to x(j) by plain
    # indexing, so the product x∘a has image tuple ``itemgetter(*a)(padded_x)``
    # (a tuple: the loop body runs only for m > 1, where a generator can
    # lie outside the identity group).
    padded = [(0,) + g.images for g in gens]
    members = {tuple(range(1, m + 1))}
    for k, s in enumerate(gens):
        if s.images in members:
            continue
        subgroup = [itemgetter(*h) for h in members]
        so_far = padded[: k + 1]
        reps = [s.images]  # searched breadth-first: grows while it is read
        for x in reps:
            if x in members:
                continue
            left = (0,) + x
            members.update([h(left) for h in subgroup])
            if len(members) > max_order:
                raise SizeLimitError(f"group order exceeds bound {max_order}")
            right = itemgetter(*x)
            reps.extend([right(t) for t in so_far])
    return PermGroup(m, gens, frozenset(members))


def symmetric_group(m: int) -> PermGroup:
    return symmetric_group_on(range(1, m + 1), m)


def symmetric_group_on(labels: Iterable[int], degree: int) -> PermGroup:
    """All permutations of ``labels`` inside degree ``degree``, rest fixed."""
    if degree < 1:
        raise ValueError("degree must be positive")
    check_degree(degree)
    return group_from_generators(degree, adjacent_transpositions(labels, degree))


def adjacent_transpositions(labels: Iterable[int], degree: int) -> tuple[Permutation, ...]:
    """The transpositions of neighbours in sorted ``labels``; no group is closed."""
    moved = sorted(labels)
    for a in moved:
        _check_label(a, degree)
    return tuple(Permutation.from_cycles(degree, [ab]) for ab in zip(moved, moved[1:]))


def label_orbits(group: PermGroup) -> tuple[frozenset[int], ...]:
    """The orbit of every label: entry ``i - 1`` is label i's.

    Orbits are the classes of labels joined by the generators' cycles, so
    no group element is visited.
    """
    orbit = [frozenset({i}) for i in range(group.degree + 1)]
    for g in group.generators:
        for i, j in enumerate(g.images, start=1):
            if j not in orbit[i]:
                joined = orbit[i] | orbit[j]
                for k in joined:
                    orbit[k] = joined
    return tuple(orbit[1:])
