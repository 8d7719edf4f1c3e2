"""Finite models of marked-point data spread over a covering.

A marking that is only well defined up to a group of label swaps cannot,
in general, be written as honest sections of a family; it exists as
charts over a finite cover of the base, compatible up to the group.  This
module models the situation with finite sets:

* a ``FiniteCover`` is a surjection u from a cover set onto a base set;
* a ``ChartedMarking`` attaches to each base point s its distinguished
  fiber points D_s, and to each cover point s' an injective sequence
  sigma(s') of m of those points, the chart at s'.

The compatibility condition asks, for every pair s', s'' over the same
base point, for a group element gamma with sigma_i(s') = sigma_{gamma(i)}(s'')
for all i.  Charts are injective, so the only candidate is the position
match j of the two charts, an image tuple looked up in the group's member
set; the same positions make it unique and make matches compose,
j_ab = j_rb * j_ar.  So one match per chart decides the condition: every
pair matches inside the group exactly when every chart matches the first
chart r over its base point, since the group is closed; and then all
charts mark the same m points, so none is unmarked exactly when the fiber
has m points.  ``verify_star`` decides by this rule, and
``class_function``, ``equivalent`` and ``globalize_trivial_group`` read
its verdict.  A report's ``witness_images`` matches a pair when it is read,
and every verdict reads that view, one pair per chart; it is the module's
one chart matcher.  A star or morphism report's ``missing`` is read from
that view too, the pairs it cannot match, and is built only when asked.
When the condition holds, each distinguished point acquires a well-defined
class: the orbit of its chart index (``class_function``).  Witnesses are
image tuples; a report's ``witnesses`` builds ``Permutation`` values.

Charted markings over richer covers can restate the same data
(``dominates``); two markings are the same marking class when a chart on
the fiber product restates both (``equivalent``).  The pull-back of the
first marking is one exactly when that marking is compatible and every
cross pair (a, b) matches inside the group; the second's pull-back never
decides otherwise, as match(sigma1(a), sigma1(a')) = j(a', b)^-1 * j(a, b)
for the cross matches j.  Matches compose, so one match per chart of the
second marking, against the first chart of the first, decides all pairs.

A fiberwise map between two such objects is a morphism when, at every
point of a common refinement, it carries charts to charts up to a group
element (``verify_morphism``); one match per source chart decides this, as
the target is compatible: a source chart's matches over one target point
differ by group elements, so all or none lie in the group, and ``missing``
pairs each failed source chart with its target fiber.  The report also
evaluates the coarser criterion that classes of distinguished points are
preserved, and says whether the two verdicts agree.  They agree whenever
the group is the full product of symmetric groups on its label orbits; for
smaller groups the chart criterion is strictly finer, and the report makes
the disagreement visible rather than hiding it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from functools import partial
from typing import Any

from ._record import record
from .perm import PermGroup, Permutation, check_acts_on, check_label_count, cycle_notation
from .perm import group_from_generators, label_orbits, parse_generators

__all__ = [
    "FiniteCover",
    "ChartedMarking",
    "FiberMorphism",
    "StarReport",
    "DominationReport",
    "EquivalenceWitness",
    "MorphismReport",
    "verify_star",
    "class_function",
    "dominates",
    "equivalent",
    "verify_morphism",
    "globalize_trivial_group",
    "FormatError",
    "parse_marking_document",
    "parse_morphism_document",
    "format_marking",
    "render_star_report",
    "render_morphism_report",
    "render_equivalence",
    "orbit_label",
]


@record
class FiniteCover:
    """A surjection ``down`` from the cover set onto the base set."""

    base: tuple[str, ...]
    cover: tuple[str, ...]
    down: dict[str, str]

    def __post_init__(self) -> None:
        if not self.base:
            raise ValueError("base must be nonempty")
        if len(set(self.base)) != len(self.base):
            raise ValueError("base points must be distinct")
        if len(set(self.cover)) != len(self.cover):
            raise ValueError("cover points must be distinct")
        fibers: dict[str, list[str]] = {s: [] for s in self.base}
        down = self.down
        for c in self.cover:
            if c not in down:
                raise ValueError(f"cover point {c} has no image")
            if down[c] not in fibers:
                raise ValueError(f"cover point {c} maps outside the base")
            fibers[down[c]].append(c)
        if len(down) != len(self.cover):  # it holds every cover point, each once
            raise ValueError("down map keys must be exactly the cover points")
        if not all(fibers.values()):
            raise ValueError("cover must surject onto the base")
        # Each fiber in cover order, kept off the fields: equality, hash and repr ignore it.
        object.__setattr__(self, "_fibers", {s: tuple(f) for s, f in fibers.items()})

    def fiber(self, s: str) -> tuple[str, ...]:
        return self._fibers.get(s, ())


@record
class ChartedMarking:
    """Charts sigma over a finite cover, one injective m-sequence per point."""

    cover: FiniteCover
    m: int
    group: PermGroup
    fiber_points: dict[str, tuple[str, ...]]
    sigma: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        check_acts_on(self.group, self.m)
        if set(self.fiber_points) != set(self.cover.base):
            raise ValueError("fiber_points must cover exactly the base points")
        seen: dict[str, str] = {}
        fiber_sets: dict[str, set[str]] = {}
        for s, points in self.fiber_points.items():
            fiber_sets[s] = fiber = set(points)
            if len(fiber) != len(points):
                raise ValueError(f"fiber over {s} repeats a point")
            for p in points:
                if p in seen:
                    raise ValueError(
                        f"point id {p} appears over both {seen[p]} and {s}"
                    )
                seen[p] = s
        if set(self.sigma) != set(self.cover.cover):
            raise ValueError("sigma must be defined on exactly the cover points")
        m, down = self.m, self.cover.down
        for c, seq in self.sigma.items():
            if len(seq) != m:
                raise ValueError(f"sigma({c}) must list m = {m} points")
            if len(set(seq)) != m:
                raise ValueError(f"sigma({c}) must be injective")
            if not fiber_sets[down[c]].issuperset(seq):
                p = next(p for p in seq if p not in fiber_sets[down[c]])
                raise ValueError(f"sigma({c}) uses {p}, not a fiber point over {down[c]}")


Images = tuple[int, ...]


class _PairWitnesses(Mapping):
    """Witness images of chart pairs, each matched when read: a read-only
    stand-in, equal to and printed as the dict of matched pairs, pickled as itself.

    A key ``(a, b)`` pairs the chart ``charts[a]`` with ``sigma[b]``; its witness
    is the position match j with charts[a][i-1] == sigma[b][j(i)-1], if j is in
    ``members``.  ``rows()`` yields each chart a with its charts b in report
    order, the first b the first chart over its point.  Charts over different
    base points never match.  This is the module's one chart matcher.
    """

    def __init__(self, rows, charts, sigma, members) -> None:
        self.rows, self._charts, self._sigma = rows, charts, sigma
        self._members, self._pos = members, {}  # positions of each chart b read so far

    def pairs(self) -> Iterator[tuple[str, str]]:
        return ((a, b) for a, targets in self.rows() for b in targets)

    def get(self, key, default=None):
        try:
            a, b = key if type(key) is tuple else ()
            pos = self._pos.get(b) or self._pos.setdefault(
                b, {p: k for k, p in enumerate(self._sigma[b], start=1)})
            images = tuple(map(pos.__getitem__, self._charts[a]))
        except (ValueError, KeyError):  # no pair, a chart the report does not hold, no match
            hash(key)  # an unhashable key is refused as a dict refuses it
            return default
        return images if images in self._members else default

    def __getitem__(self, key):
        if (j := self.get(key)) is None:
            raise KeyError(key)
        return j

    def __iter__(self):
        return (key for key in self.pairs() if self.get(key) is not None)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(dict(self))


class _Witnessed:
    """A report whose ``witness_images`` hold relabelings as image tuples."""

    @property
    def witnesses(self) -> dict:
        """The same relabelings as ``Permutation`` values, built when read."""
        return {key: Permutation(j) for key, j in self.witness_images.items()}


class _PairReport(_Witnessed):
    """A report whose ``witness_images`` view also answers its failed pairs."""

    @property
    def missing(self) -> tuple[tuple[str, str], ...]:
        """The pairs ``witness_images`` cannot match, in report order; ``()`` when valid.

        Only the view a check builds lists its pairs: an invalid report built
        around any other mapping raises ``TypeError``.
        """
        if self.valid:
            return ()
        view = self.witness_images
        if not isinstance(view, _PairWitnesses):
            raise TypeError(f"missing needs the report's pair view, not a {type(view).__name__}")
        return tuple(key for key in view.pairs() if view.get(key) is None)


@record
class StarReport(_PairReport):
    """Outcome of the chart compatibility check.

    ``witness_images`` maps each ordered same-fiber pair to its
    relabeling; ``unmarked`` lists declared fiber points no chart ever
    marks.  ``missing``, read from the view, lists pairs with no
    relabeling in the group.
    """

    valid: bool
    witness_images: Mapping[tuple[str, str], Images]
    unmarked: dict[str, tuple[str, ...]]


def _star_rows(marking: ChartedMarking) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Each cover point with its fiber, the charts it pairs with, in report order."""
    for s in marking.cover.base:
        fiber = marking.cover.fiber(s)
        for a in fiber:
            yield a, fiber


def verify_star(marking: ChartedMarking) -> StarReport:
    """Chart compatibility by one match per chart (module docstring); witnesses read lazily."""
    cover, sigma = marking.cover, marking.sigma
    witnesses = _PairWitnesses(partial(_star_rows, marking), sigma, sigma, marking.group.members)
    matched = all(witnesses.get((a, targets[0])) for a, targets in witnesses.rows())
    fibers = marking.fiber_points
    big = [s for s in cover.base if len(fibers[s]) > marking.m]  # any chart marks a fiber of m
    hit = set().union(*sigma.values()) if big else ()  # fibers are disjoint
    unmarked = {s: extra for s in big if (extra := tuple(p for p in fibers[s] if p not in hit))}
    return StarReport(valid=matched and not unmarked, witness_images=witnesses, unmarked=unmarked)


def class_function(marking: ChartedMarking) -> dict[str, frozenset[int]]:
    """Orbit of the chart index, per distinguished point.

    Defined only when the compatibility condition holds; then the orbit
    does not depend on which chart exhibits the point, as ``verify_star``
    decides it.
    """
    if not verify_star(marking).valid:
        raise ValueError("charts are incompatible; classes are undefined")
    return _chart_classes(marking)


def _chart_classes(marking: ChartedMarking) -> dict[str, frozenset[int]]:
    """``class_function`` for a marking already known to be compatible."""
    orbits = label_orbits(marking.group)
    classes: dict[str, frozenset[int]] = {}
    sigma = marking.sigma
    for c in marking.cover.cover:
        for p, orbit in zip(sigma[c], orbits):
            if (known := classes.setdefault(p, orbit)) is not orbit and known != orbit:
                raise AssertionError(f"class of {p} depends on the chart")
    return classes


def orbit_label(orbit: frozenset[int]) -> str:
    return f"[{min(orbit)}]"


@record
class DominationReport(_Witnessed):
    """Per fine cover point, the relabeling onto the coarse chart."""

    valid: bool
    witness_images: dict[str, Images]
    missing: tuple[str, ...]


def _require_same_group(a: ChartedMarking, b: ChartedMarking) -> None:
    if a.m != b.m:
        raise ValueError("markings have different m")
    if a.group != b.group:
        raise ValueError("markings carry different groups")


def _require_same_setting(a: ChartedMarking, b: ChartedMarking) -> None:
    if set(a.cover.base) != set(b.cover.base):
        raise ValueError("markings live over different bases")
    _require_same_group(a, b)
    for s in a.cover.base:
        if set(a.fiber_points[s]) != set(b.fiber_points[s]):
            raise ValueError(f"markings disagree on the fiber over {s}")


def dominates(
    fine: ChartedMarking, coarse: ChartedMarking, down: Mapping[str, str]
) -> DominationReport:
    """Check that ``fine`` restates ``coarse`` through the cover map ``down``."""
    _require_same_setting(fine, coarse)
    if set(down) != set(fine.cover.cover):
        raise ValueError("down map must be defined on exactly the fine cover")
    if set(down.values()) != set(coarse.cover.cover):
        raise ValueError("down map must surject onto the coarse cover")
    for c in fine.cover.cover:
        if coarse.cover.down[down[c]] != fine.cover.down[c]:
            raise ValueError(f"down map does not commute over {c}")
    view = _PairWitnesses(None, fine.sigma, coarse.sigma, fine.group.members)  # rows unread
    witnesses = {c: j for c in fine.cover.cover if (j := view.get((c, down[c]))) is not None}
    missing = tuple(c for c in fine.cover.cover if c not in witnesses)
    return DominationReport(valid=not missing, witness_images=witnesses, missing=missing)


@record
class EquivalenceWitness(_Witnessed):
    """Two markings of one class, restated by the pull-back of the first.

    ``witness_images`` maps each point (a, b) of the fiber product to the
    match of sigma1(a) onto sigma2(b), read when asked; the pull-back's
    match onto the first marking is the identity.
    """

    first: ChartedMarking
    second: ChartedMarking
    witness_images: Mapping[tuple[str, str], Images]


def _refinement_rows(
    c1: ChartedMarking, c2: ChartedMarking, base_map: Mapping[str, str]
) -> Iterator[tuple[str, tuple[str, ...]]]:
    """The common refinement over ``base_map``: each chart a with the fiber over its image."""
    for a in c1.cover.cover:
        yield a, c2.cover.fiber(base_map[c1.cover.down[a]])


def equivalent(
    c1: ChartedMarking, c2: ChartedMarking
) -> EquivalenceWitness | None:
    """The witness that one marking class holds both markings, if it does.

    A chart on the fiber product restates both exactly when ``c1`` is
    compatible (``verify_star``) and each chart of ``c2`` matches, inside
    the group, the first chart r of ``c1`` over its base point: matches
    compose, so every pair (a, b) then matches, by j(b, r)^-1 * j(a, r).
    That is one read of the witness view per chart b of ``c2``, at (r, b), the
    inverse of b's match onto r; each pair's match is read when asked.
    """
    _require_same_setting(c1, c2)
    if not verify_star(c1).valid:
        return None
    rows = partial(_refinement_rows, c1, c2, {s: s for s in c1.cover.base})
    witnesses = _PairWitnesses(rows, c1.sigma, c2.sigma, c1.group.members)
    firsts = ((c1.cover.fiber(s)[0], c2.cover.fiber(s)) for s in c1.cover.base)
    if not all(witnesses.get((r, b)) for r, fiber in firsts for b in fiber):
        return None
    return EquivalenceWitness(c1, c2, witnesses)


@record
class FiberMorphism:
    """A base map with one bijection of distinguished fibers per base point."""

    base_map: dict[str, str]
    fiber_maps: dict[str, dict[str, str]]


@record
class MorphismReport(_PairReport):
    """Chart verdict, class verdict, and whether they agree.

    ``valid`` is the chart criterion: at every point of the common
    refinement the fiber map carries the source chart onto the target
    chart up to a group element.  ``classes_preserved`` is the coarser
    criterion that each distinguished point keeps its class.  ``missing``,
    read from the view, lists the pairs of each source chart that fails.
    """

    valid: bool
    witness_images: Mapping[tuple[str, str], Images]
    classes_preserved: bool
    class_violations: tuple[tuple[str, str], ...]
    verdicts_agree: bool


def verify_morphism(
    hm: FiberMorphism, c1: ChartedMarking, c2: ChartedMarking
) -> MorphismReport:
    _require_same_group(c1, c2)
    try:
        classes1 = class_function(c1)
        classes2 = class_function(c2)
    except ValueError:
        raise ValueError("both markings must pass the compatibility check") from None
    if set(hm.base_map) != set(c1.cover.base):
        raise ValueError("base map must be defined on exactly the source base")
    for s, t in hm.base_map.items():
        if t not in c2.fiber_points:  # keyed by exactly the target base
            raise ValueError(f"base map sends {s} outside the target base")
    if set(hm.fiber_maps) != set(c1.cover.base):
        raise ValueError("fiber maps must be defined on exactly the source base")
    for s in c1.cover.base:
        fm = hm.fiber_maps[s]
        if fm.keys() != set(c1.fiber_points[s]):
            raise ValueError(f"fiber map over {s} must be defined on its fiber")
        image = set(fm.values())
        if len(image) != len(fm) or image != set(c2.fiber_points[hm.base_map[s]]):
            raise ValueError(f"fiber map over {s} must biject onto the target fiber")
    down, maps = c1.cover.down, hm.fiber_maps
    mapped = {a: tuple(map(maps[down[a]].__getitem__, seq)) for a, seq in c1.sigma.items()}
    rows = partial(_refinement_rows, c1, c2, hm.base_map)
    witnesses = _PairWitnesses(rows, mapped, c2.sigma, c1.group.members)
    # One match per source chart, against the first target chart, decides all its pairs.
    valid = all(witnesses.get((a, targets[0])) for a, targets in rows())
    arrows = ((p, hm.fiber_maps[s][p]) for s in c1.cover.base for p in c1.fiber_points[s])
    violations = tuple((p, q) for p, q in arrows if classes2.get(q) != classes1[p])
    preserved = not violations
    return MorphismReport(
        valid=valid,
        witness_images=witnesses,
        classes_preserved=preserved,
        class_violations=violations,
        verdicts_agree=valid == preserved,
    )


def globalize_trivial_group(marking: ChartedMarking) -> ChartedMarking:
    """With a trivial group, valid charts glue to one chart over the base."""
    if marking.group.order != 1:
        raise ValueError("globalization needs the trivial group")
    if not verify_star(marking).valid:
        raise ValueError("charts are incompatible; nothing globalizes")
    base = marking.cover.base
    sigma = {s: marking.sigma[marking.cover.fiber(s)[0]] for s in base}
    assert all(marking.sigma[c] == sigma[marking.cover.down[c]] for c in marking.cover.cover)
    return ChartedMarking(
        cover=FiniteCover(base, base, {s: s for s in base}),
        m=marking.m,
        group=marking.group,
        fiber_points=dict(marking.fiber_points),
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# text documents


class FormatError(ValueError):
    """Parse failure anchored to a file and line."""

    def __init__(self, filename: str, line: int, message: str) -> None:
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line
        self.message = message


_ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.+-"


def _ids(tokens: Sequence[str]) -> tuple[str, ...]:
    """``tokens`` if all are identifiers; else a ``ValueError`` naming the first bad one.

    An identifier is a nonempty run of ``_ID_CHARS``, so the tokens are all
    identifiers exactly when none is empty and their concatenation strips to
    nothing; only a failure looks at the tokens one by one.
    """
    if not all(tokens) or "".join(tokens).strip(_ID_CHARS):
        bad = next(tok for tok in tokens if not tok or tok.strip(_ID_CHARS))
        raise ValueError(f"bad identifier {bad!r}")
    return tuple(tokens)


def _read_int(key: str, value: str) -> int:
    """``value`` as ASCII digits after an optional minus; the CLI's integers too."""
    digits = value[1:] if value.startswith("-") else value
    if digits.isascii() and digits.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _read_text(key: str, value: str) -> str:
    return value


def _read_ids(key: str, value: str) -> tuple[str, ...]:
    tokens = value.split()
    if "".join(tokens).strip(_ID_CHARS):
        _ids(tokens)
    return tuple(tokens)


def _read_arrows(key: str, value: str) -> dict[str, str]:
    """The map the arrows write, in their order; a source with two arrows is
    refused, so no later arrow silently replaces an earlier one.  A list is read
    as its tokens ``a -> b , c -> d ...``, and entry by entry only to name a fault."""
    tokens = value.replace(",", " , ").replace("->", " -> ").split()
    n = len(tokens) // 4 + 1
    ends = tokens[::2]
    if (len(tokens) != 4 * n - 1 or tokens[1::4] != ["->"] * n
            or tokens[3::4] != [","] * (n - 1) or "".join(ends).strip(_ID_CHARS)):
        parts = [part.strip() for part in value.split(",")]
        pairs = [part.split("->") for part in parts]
        # Entries before the first malformed one are checked first, in order.
        k = next((k for k, pair in enumerate(pairs) if len(pair) != 2), len(pairs))
        _ids([end.strip() for pair in pairs[:k] for end in pair])
        message = f"expected 'a -> b', got {parts[k]!r}" if parts[k] else "empty entry in list"
        raise ValueError(message)
    arrows = dict(zip(ends[::2], ends[1::2]))
    if len(arrows) < n:
        sources = ends[::2]
        a = next(a for k, a in enumerate(sources) if a in sources[:k])
        raise ValueError(f"two arrows from {a}")
    return arrows


# Per section kind, each key's value reader, the form a missing-key error
# names for a required key, and its number of key words.  A named key
# (``fiber x = ...``) takes one identifier after the key word, and each name
# may appear once.
_MARKING_KEYS = {
    "m": (_read_int, "m = <int>", 1),
    "base": (_read_ids, "base = <points>", 1),
    "cover": (_read_arrows, "cover = <point> -> <base>, ...", 1),
    "group": (_read_text, None, 1),
    "fiber": (_read_ids, None, 2),
    "sigma": (_read_ids, None, 2),
}
_MORPHISM_KEYS = {
    "h": (_read_arrows, "h = <base> -> <base>, ...", 1),
    "map": (_read_arrows, None, 2),
}


def _split_sections(
    text: str, filename: str
) -> list[tuple[str, int, list[tuple[int, str]]]]:
    sections: list[tuple[str, int, list[tuple[int, str]]]] = []
    body = None
    comments = "#" in text
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = (line.split("#", 1)[0] if comments else line).strip()
        if not line:
            continue
        # A header is one or two lowercase ASCII words in brackets.
        if line[0] == "[" and line[-1] == "]":
            words = line[1:-1].split()
            if 0 < len(words) < 3 and not "".join(words).strip("abcdefghijklmnopqrstuvwxyz"):
                body = []
                sections.append((line[1:-1].strip(), lineno, body))
                continue
        if body is None:
            raise FormatError(filename, lineno, "content before any [section]")
        body.append((lineno, line))
    return sections


def _read_section(
    section: tuple[int, list[tuple[int, str]]], keys: Mapping, filename: str
) -> tuple[dict[str, Any], dict[str, int]]:
    """Each key's value, read in order, a named key's by name in one dict under its
    word; and the line of each key that has no name."""
    header_line, body = section
    values: dict[str, Any] = {}
    lines: dict[str, int] = {}
    for lineno, line in body:
        key, equals, value = line.partition("=")
        if not equals:
            raise FormatError(filename, lineno, f"expected 'key = value', got {line!r}")
        words = key.split()
        spec = keys.get(words[0]) if words else None
        if spec is None or len(words) != spec[2]:
            raise FormatError(filename, lineno, f"unknown key {key.strip()!r}")
        kind = words[0]
        try:
            if len(words) == 2:
                if words[1].strip(_ID_CHARS):
                    _ids(words[1:])
                table = values.setdefault(kind, {})
            else:
                table = values
                lines[kind] = lineno
            if words[-1] in table:
                raise ValueError(f"duplicate {' '.join(words)!r}")
            table[words[-1]] = spec[0](kind, value.strip())
        except ValueError as exc:
            raise FormatError(filename, lineno, str(exc)) from None
    for key, (_, form, _) in keys.items():
        if form is not None and key not in values:
            raise FormatError(filename, header_line, f"missing {form!r}")
    return values, lines


def _read_marking(
    section: tuple[int, list[tuple[int, str]]],
    filename: str,
    groups: dict[tuple[int, str], PermGroup],
) -> ChartedMarking:
    """A marking section; ``groups`` holds the groups closed so far, by (m, text).
    Past its lines, errors are anchored at the header, a group text's at its line."""
    values, lines = _read_section(section, _MARKING_KEYS, filename)
    m, text, arrows = values["m"], values.get("group", ""), values["cover"]
    anchor = section[0]
    try:
        check_label_count(m)  # before parsing builds anything of size m
        group = groups.get((m, text))
        if group is None:
            anchor = lines.get("group", anchor)
            generators = parse_generators(text, m)
            anchor = section[0]
            group = groups[(m, text)] = group_from_generators(m, generators)
        cover = FiniteCover(values["base"], tuple(arrows), arrows)
        return ChartedMarking(cover, m, group, values.get("fiber", {}), values.get("sigma", {}))
    except ValueError as exc:
        raise FormatError(filename, anchor, str(exc)) from None


def parse_marking_document(text: str, filename: str = "<input>") -> ChartedMarking:
    return _parse_marking_documents((text, filename))[0]


def _parse_marking_documents(*documents: tuple[str, str]) -> tuple[ChartedMarking, ...]:
    """Each ``(text, filename)`` in turn; a group two documents write alike is closed once."""
    groups: dict[tuple[int, str], PermGroup] = {}
    markings = []
    for text, filename in documents:
        sections = _split_sections(text, filename)
        if len(sections) != 1 or sections[0][0] != "marking":
            raise FormatError(filename, 1, "expected exactly one [marking] section")
        markings.append(_read_marking(sections[0][1:], filename, groups))
    return tuple(markings)


def parse_morphism_document(
    text: str, filename: str = "<input>"
) -> tuple[FiberMorphism, ChartedMarking, ChartedMarking]:
    """The morphism, source and target; a group both sections write alike is closed once."""
    split = _split_sections(text, filename)
    sections = {name: (line, body) for name, line, body in split}
    if set(sections) != {"marking source", "marking target", "morphism"}:
        message = "expected sections [marking source], [marking target], [morphism]"
        raise FormatError(filename, 1, message)
    names = [name for name, _, _ in split]
    if len(names) != 3:  # so a name repeats, by the fourth section at the latest
        k = next(k for k, name in enumerate(names) if name in names[:k])
        raise FormatError(filename, split[k][1], f"duplicate [{names[k]}] section")
    groups: dict[tuple[int, str], PermGroup] = {}
    source = _read_marking(sections["marking source"], filename, groups)
    target = _read_marking(sections["marking target"], filename, groups)
    values, _ = _read_section(sections["morphism"], _MORPHISM_KEYS, filename)
    morphism = FiberMorphism(base_map=values["h"], fiber_maps=values.get("map", {}))
    return morphism, source, target


def format_marking(marking: ChartedMarking, name: str = "marking") -> str:
    lines = [f"[{name}]"]
    lines.append(f"m = {marking.m}")
    lines.append(f"group = {marking.group.generator_string()}")
    lines.append("base = " + " ".join(marking.cover.base))
    lines.append(
        "cover = "
        + ", ".join(f"{c} -> {marking.cover.down[c]}" for c in marking.cover.cover)
    )
    for s in marking.cover.base:
        lines.append(f"fiber {s} = " + " ".join(marking.fiber_points[s]))
    for c in marking.cover.cover:
        lines.append(f"sigma {c} = " + " ".join(marking.sigma[c]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report rendering


class _Named(dict):
    """Cycle notation by image tuple, written once per render call for the many pairs."""

    def __missing__(self, images: tuple[int, ...]) -> str:
        text = self[images] = cycle_notation(images)
        return text


def _pair_lines(rows, witness, sep: str, says: str) -> Iterator[str]:
    """A line per pair of ``rows``, one chunk per source chart (a write per line is slow)."""
    named = _Named()
    for a, targets in rows:
        lines = []
        for b in targets:
            w = witness((a, b))
            lines.append(f"({a}{sep}{b}): {says}{named[w]}\n" if w is not None
                         else f"({a}{sep}{b}): NO WITNESS\n")
        yield "".join(lines)


def render_star_report(marking: ChartedMarking, report: StarReport) -> Iterator[str]:
    """The report, one chunk of pair lines per chart, each witness read as it is written."""
    yield from _pair_lines(_star_rows(marking), report.witness_images.get, ", ", "gamma = ")
    for s in marking.cover.base:
        if s in report.unmarked:
            yield f"fiber {s}: unmarked points " + " ".join(report.unmarked[s]) + "\n"
    if report.valid:
        classes = _chart_classes(marking)
        for s in marking.cover.base:
            for p in marking.fiber_points[s]:
                yield f"class({p}) = {orbit_label(classes[p])}\n"
    yield "VALID\n" if report.valid else "INVALID\n"


def render_equivalence(witness: EquivalenceWitness | None) -> Iterator[str]:
    """The report, one chunk of pair lines per chart of the first; left witnesses are ``()``."""
    if witness is None:
        yield "NOT EQUIVALENT\n"
        return
    c1, c2 = witness.first, witness.second
    size = sum(len(c1.cover.fiber(s)) * len(c2.cover.fiber(s)) for s in c1.cover.base)
    yield f"refinement: {size} cover points\n"
    rows = _refinement_rows(c1, c2, {s: s for s in c1.cover.base})
    yield from _pair_lines(rows, witness.witness_images.get, "*", "left gamma = (), right gamma = ")
    yield "EQUIVALENT\n"


def render_morphism_report(
    hm: FiberMorphism,
    c1: ChartedMarking,
    c2: ChartedMarking,
    report: MorphismReport,
) -> Iterator[str]:
    """The report, one chunk of pair lines per source chart, each witness read as it is written."""
    rows = _refinement_rows(c1, c2, hm.base_map)
    yield from _pair_lines(rows, report.witness_images.get, "*", "gamma = ")
    yield f"charts: {'VALID' if report.valid else 'INVALID'}\n"
    yield f"classes preserved: {'yes' if report.classes_preserved else 'no'}\n"
    for p, q in report.class_violations:
        yield f"class violation: {p} -> {q}\n"
    yield f"verdicts agree: {'yes' if report.verdicts_agree else 'no'}\n"
    yield "VALID\n" if report.valid else "INVALID\n"
