"""Seeded descent documents with verdicts planted and checked before any run.

Standard library only, and independent of ``graphstrata``: groups are closed
here by brute force over image tuples, and every planted verdict is checked
against a direct reading of the definitions (chart compatibility, equivalence
through the fiber product, morphisms on the common refinement) before the
document is handed to the CLI.

The mix of document shapes is a fixed schedule: every seed gets the same
multiset of (subcommand, m, group, polarity, cover shape, defect site).
The seed modulo ``VARIANTS`` picks the content inside the shapes: the
reference orderings, the chart relabelings and the permutations that plant
a defect.  The whole seed picks the job order.  Run cost is set by the
shape, so a fixed schedule keeps the pass time and the latency percentiles
nearly independent of the seed while the documents still vary; a bounded
number of content variants lets ``golden.json`` hold the recorded output
of every document any seed can produce.

Permutations are 1-based image tuples: ``p[i - 1]`` is the image of ``i``,
and ``mul(a, b)`` applies ``b`` first, as in the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KINDS = ("verify-descent", "equiv-descent", "verify-morphism")
# No m = 6: a full-S6 document takes 60-230 ms, and so few samples of a
# job that long fit in a run that the 95th percentile drifts with the
# machine's speed and with the content variant.
DEGREES = (4, 5)
GROUP_KINDS = ("sym", "cyclic", "transpositions", "split", "trivial")
# Charts per base point, one tuple per cover shape; a job with a second
# marking uses the reversed tuple for it.
SHAPES = ((3,), (2, 2), (1, 2, 3), (1, 2, 3, 4))
REPLICAS = 2
# Content variants; the outputs of each are recorded in golden.json.
VARIANTS = 10


# ---------------------------------------------------------------------------
# permutations and brute-force groups


def identity(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[j - 1] for j in b)


def from_cycles(m: int, cycles) -> tuple[int, ...]:
    images = list(range(1, m + 1))
    for cycle in cycles:
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            images[a - 1] = b
    return tuple(images)


def closure(m: int, gens) -> frozenset[tuple[int, ...]]:
    """All products of the generators, found by breadth-first search."""
    seen = {identity(m)}
    frontier = [identity(m)]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = mul(g, a)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return frozenset(seen)


def cycles_text(cycles) -> str:
    return ",".join("(" + " ".join(str(a) for a in c) + ")" for c in cycles)


def make_group(kind: str, m: int, variant: int) -> list[tuple[int, ...]]:
    """Generator cycles of a group of the given kind on labels 1..m.

    ``variant`` picks the number of disjoint transpositions, or the number
    of trailing labels a split-piece group permutes.
    """
    if kind == "sym":
        return [(a, a + 1) for a in range(1, m)]
    if kind == "cyclic":
        return [tuple(range(1, m + 1))]
    if kind == "transpositions":
        count = 1 + variant % (m // 2)
        return [(2 * t + 1, 2 * t + 2) for t in range(count)]
    if kind == "split":
        k = 2 + variant % (m - 2)
        return [(a, a + 1) for a in range(m - k + 1, m)]
    if kind == "trivial":
        return []
    raise ValueError(f"unknown group kind {kind!r}")


def match(seq_a, seq_b) -> tuple[int, ...] | None:
    """The j with seq_a[i-1] == seq_b[j(i)-1] for all i, if there is one."""
    if set(seq_a) != set(seq_b):
        return None
    pos = {p: k + 1 for k, p in enumerate(seq_b)}
    return tuple(pos[p] for p in seq_a)


# ---------------------------------------------------------------------------
# markings as plain data


@dataclass
class Marking:
    m: int
    group_text: str
    base: list[str]
    cover: list[tuple[str, str]]  # (cover point, base point), in order
    fibers: dict[str, list[str]]
    sigma: dict[str, tuple[str, ...]]

    def fiber(self, s: str) -> list[str]:
        return [c for c, t in self.cover if t == s]

    def body(self) -> list[str]:
        lines = [f"m = {self.m}"]
        if self.group_text:
            lines.append(f"group = {self.group_text}")
        lines.append("base = " + " ".join(self.base))
        lines.append("cover = " + ", ".join(f"{c} -> {s}" for c, s in self.cover))
        for s in self.base:
            lines.append(f"fiber {s} = " + " ".join(self.fibers[s]))
        for c, _ in self.cover:
            lines.append(f"sigma {c} = " + " ".join(self.sigma[c]))
        return lines

    def text(self) -> str:
        return "\n".join(["[marking]"] + self.body()) + "\n"


def star_missing(mk: Marking, group: frozenset) -> list[tuple[str, str]]:
    """Ordered same-fiber chart pairs with no relabeling in the group."""
    out = []
    for s in mk.base:
        for a in mk.fiber(s):
            for b in mk.fiber(s):
                j = match(mk.sigma[a], mk.sigma[b])
                if j is None or j not in group:
                    out.append((a, b))
    return out


def unmarked(mk: Marking) -> list[str]:
    out = []
    for s in mk.base:
        hit = {p for c in mk.fiber(s) for p in mk.sigma[c]}
        out.extend(p for p in mk.fibers[s] if p not in hit)
    return out


def star_valid(mk: Marking, group: frozenset) -> bool:
    return not star_missing(mk, group) and not unmarked(mk)


def dominated(fine: Marking, coarse: Marking, down: dict, group: frozenset) -> bool:
    return all(
        (j := match(fine.sigma[c], coarse.sigma[down[c]])) is not None and j in group
        for c, _ in fine.cover
    )


def equivalent(c1: Marking, c2: Marking, group: frozenset) -> tuple[bool, int]:
    """Whether a pulled-back chart on the fiber product restates both.

    Returns the verdict and the number of fiber-product points.
    """
    pairs = [
        (a, b)
        for a, s in c1.cover
        for b, t in c2.cover
        if s == t
    ]
    names = [f"{a}*{b}" for a, b in pairs]
    down = dict(c1.cover)
    cover = [(n, down[a]) for n, (a, _) in zip(names, pairs)]
    to_first = {n: a for n, (a, _) in zip(names, pairs)}
    to_second = {n: b for n, (_, b) in zip(names, pairs)}
    for pull in (
        {n: c1.sigma[a] for n, (a, _) in zip(names, pairs)},
        {n: c2.sigma[b] for n, (_, b) in zip(names, pairs)},
    ):
        ref = Marking(c1.m, c1.group_text, c1.base, cover, c1.fibers, pull)
        if (
            star_valid(ref, group)
            and dominated(ref, c1, to_first, group)
            and dominated(ref, c2, to_second, group)
        ):
            return True, len(pairs)
    return False, len(pairs)


def classes(mk: Marking, group: frozenset) -> dict[str, frozenset[int]]:
    """Orbit of the chart index of each marked point (valid markings only)."""
    out = {}
    for c, _ in mk.cover:
        for i, p in enumerate(mk.sigma[c], start=1):
            out[p] = frozenset(g[i - 1] for g in group)
    return out


def morphism_check(src, dst, h, maps, group) -> tuple[int, bool]:
    """Missing chart pairs on the common refinement, and class preservation."""
    missing = 0
    for a, s in src.cover:
        for b, t in dst.cover:
            if t != h[s]:
                continue
            j = match(tuple(maps[s][p] for p in src.sigma[a]), dst.sigma[b])
            if j is None or j not in group:
                missing += 1
    cls1, cls2 = classes(src, group), classes(dst, group)
    preserved = all(
        cls2.get(maps[s][p]) == cls1[p] for s in src.base for p in src.fibers[s]
    )
    return missing, preserved


# ---------------------------------------------------------------------------
# generation


@dataclass(frozen=True)
class Job:
    """One CLI invocation with the outcome read off the definitions."""

    argv: tuple[str, ...]
    expected_exit: int
    # Checks on stdout that do not need the library: the final line, the
    # number of "NO WITNESS" lines, the number of lines, and (morphisms only)
    # the class verdict line.
    last_line: str
    no_witness: int
    lines: int | None = None
    classes_line: str | None = None

    def check(self, out: str) -> str | None:
        """Why ``out`` contradicts the planted verdict, or None."""
        rows = out.splitlines()
        if not rows or rows[-1] != self.last_line:
            return f"last line is not {self.last_line!r}"
        if sum(r.endswith(": NO WITNESS") for r in rows) != self.no_witness:
            return f"expected {self.no_witness} NO WITNESS lines"
        if self.lines is not None and len(rows) != self.lines:
            return f"expected {self.lines} lines, got {len(rows)}"
        if self.classes_line is not None and self.classes_line not in rows:
            return f"missing {self.classes_line!r}"
        return None


def _build(rng, m, group_text, group, shape, pb, pp, pc, refs=None, twists=None):
    """A valid marking: charts over base s are ref_s composed with group elements."""
    elements = sorted(group)
    base = [f"{pb}{s}" for s in range(len(shape))]
    fibers, cover, sigma = {}, [], {}
    refs = {} if refs is None else refs
    for s, k in enumerate(shape):
        b = base[s]
        points = [f"{pp}{s}_{i}" for i in range(m)]
        fibers[b] = points
        if b not in refs:
            refs[b] = tuple(rng.sample(points, m))
        ref = refs[b]
        if twists and b in twists:
            ref = tuple(ref[t - 1] for t in twists[b])
        for j in range(k):
            c = f"{pc}{s}_{j}"
            g = rng.choice(elements)
            cover.append((c, b))
            sigma[c] = tuple(ref[g[i] - 1] for i in range(m))
    return Marking(m, group_text, base, cover, fibers, sigma), refs


def _nonmember(rng, m, group) -> tuple[int, ...]:
    while True:
        p = tuple(rng.sample(range(1, m + 1), m))
        if p not in group:
            return p


def _unmark(mk: Marking, s: str) -> str:
    """Add a point to the fiber over ``s`` that no chart marks."""
    extra = f"{mk.fibers[s][0].rsplit('_', 1)[0]}_x"
    mk.fibers[s].append(extra)
    return extra


def _star_job(rng, m, gtext, group, full, negative, variant) -> Job:
    mk, _ = _build(rng, m, gtext, group, SHAPES[variant], "b", "p", "c")
    if negative and not full and variant % 2 == 0:
        # Relabel the last chart over the last base point by a permutation
        # outside the group.
        c = mk.fiber(mk.base[-1])[-1]
        h = _nonmember(rng, m, group)
        mk.sigma[c] = tuple(mk.sigma[c][h[i] - 1] for i in range(m))
    elif negative:
        _unmark(mk, mk.base[-1])
    missing = len(star_missing(mk, group))
    valid = star_valid(mk, group)
    if valid == negative:
        raise AssertionError("planted star verdict does not hold")
    return Job(
        ("verify-descent", mk.text()),
        0 if valid else 1,
        "VALID" if valid else "INVALID",
        missing,
    )


def _equiv_job(rng, m, gtext, group, full, negative, variant) -> Job:
    shape = SHAPES[variant]
    c1, refs = _build(rng, m, gtext, group, shape, "b", "p", "u")
    last = c1.base[-1]
    twists = {last: _nonmember(rng, m, group)} if negative and not full else None
    c2, _ = _build(rng, m, gtext, group, shape[::-1], "b", "p", "w", refs, twists)
    if negative and full:
        # An unmarked point in the same fiber of both markings: neither
        # marking is valid, so no pulled-back chart can be.
        c2.fibers[last].append(_unmark(c1, last))
    verdict, product = equivalent(c1, c2, group)
    if verdict == negative:
        raise AssertionError("planted equivalence verdict does not hold")
    return Job(
        ("equiv-descent", c1.text(), c2.text()),
        0 if verdict else 1,
        "EQUIVALENT" if verdict else "NOT EQUIVALENT",
        0,
        lines=product + 2 if verdict else 1,
    )


def _morph_job(rng, m, gtext, group, full, negative, variant) -> Job:
    shape = SHAPES[variant]
    src, refs1 = _build(rng, m, gtext, group, shape, "x", "p", "u")
    dst, refs2 = _build(rng, m, gtext, group, shape[::-1], "y", "q", "v")
    elements = sorted(group)
    # Each source base point goes to the target point with as many charts.
    h = dict(zip(src.base, reversed(dst.base)))
    # Over each source base point the fiber map is ref1[i] -> ref2[t(i)];
    # it carries charts to charts up to the group exactly when t is in it.
    twisted = src.base[-1] if negative and not full else None
    maps = {}
    for s in src.base:
        t = _nonmember(rng, m, group) if s == twisted else rng.choice(elements)
        r1, r2 = refs1[s], refs2[h[s]]
        maps[s] = {r1[i]: r2[t[i] - 1] for i in range(m)}
    missing, preserved = morphism_check(src, dst, h, maps, group)
    if (missing > 0) != (twisted is not None):
        raise AssertionError("planted morphism verdict does not hold")
    lines = ["[marking source]"] + src.body() + ["[marking target]"] + dst.body()
    lines.append("[morphism]")
    lines.append("h = " + ", ".join(f"{s} -> {h[s]}" for s in src.base))
    for s in src.base:
        lines.append(
            f"map {s} = " + ", ".join(f"{p} -> {maps[s][p]}" for p in src.fibers[s])
        )
    return Job(
        ("verify-morphism", "\n".join(lines) + "\n"),
        1 if missing else 0,
        "INVALID" if missing else "VALID",
        missing,
        classes_line=f"classes preserved: {'yes' if preserved else 'no'}",
    )


_MAKERS = {
    "verify-descent": _star_job,
    "equiv-descent": _equiv_job,
    "verify-morphism": _morph_job,
}


def schedule() -> list[tuple[str, int, str, bool, int]]:
    """The fixed list of job shapes, the same for every seed.

    Each entry is (subcommand, m, group kind, negative, variant); the
    variant indexes ``SHAPES`` and also picks the group parameter and, for
    a negative verify-descent, the kind of defect.  m = 4 documents are
    all cheap, so they take only the largest shape.  Every shape appears
    ``REPLICAS`` times with fresh random content.
    """
    return [
        (kind, m, gkind, negative, variant)
        for _ in range(REPLICAS)
        for kind in KINDS
        for m in DEGREES
        for gkind in GROUP_KINDS
        for negative in (False, True)
        for variant in (range(len(SHAPES)) if m > 4 else (len(SHAPES) - 1,))
    ]


def documents(content: int) -> list[Job]:
    """The jobs of content variant ``content``, in schedule order."""
    rng = random.Random(content)
    jobs = []
    for kind, m, gkind, negative, variant in schedule():
        cycles = make_group(gkind, m, variant)
        group = closure(m, [from_cycles(m, [c]) for c in cycles])
        full = len(group) == math.factorial(m)
        # Under the full symmetric group every relabeling is a member, so a
        # morphism cannot fail; that slot stays positive.
        planted = negative and not (kind == "verify-morphism" and full)
        jobs.append(
            _MAKERS[kind](rng, m, cycles_text(cycles), group, full, planted, variant)
        )
    return jobs


def order(seed: int, n: int) -> list[int]:
    """The seed's run order of a variant's n jobs, as indices into it."""
    out = list(range(n))
    random.Random(seed).shuffle(out)
    return out


def generate(seed: int) -> list[Job]:
    """The descent-mix jobs for a seed; the same seed gives the same bytes."""
    docs = documents(seed % VARIANTS)
    return [docs[k] for k in order(seed, len(docs))]
