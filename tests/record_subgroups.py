"""Record one generating set per conjugacy class of subgroups of S4 and S5.

    python3 tests/record_subgroups.py

Closes every pair of members of S_m, then every triple: each subgroup a
pair closes to, with one more member.  It keeps the first generating set
met in each conjugacy class, taking members in the order of their image
tuples, so the record is the same on every run.  Writes
``tests/subgroup_classes.json``: per degree m, the generating sets in
cycle notation, ``""`` for the trivial group.  ``tests/test_every_subgroup.py``
fuses the genus-0 census under each of them.  Nothing here comes from
``graphstrata``, the library the list tests.
"""

from __future__ import annotations

import json
import sys
from itertools import permutations
from pathlib import Path

SUBGROUPS_PATH = Path(__file__).resolve().parent / "subgroup_classes.json"
DEGREES = (4, 5)


def close(m, gens):
    """Every member of the group ``gens`` generate, as 0-based image tuples."""
    identity = tuple(range(m))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [tuple(g[x] for x in a) for a in frontier for g in gens]
        frontier = [c for c in frontier if c not in seen and not seen.add(c)]
    return frozenset(seen)


def conjugates(m, group):
    """Every subgroup s group s^-1 for s in S_m."""
    out = set()
    for s in permutations(range(m)):
        image = set()
        for h in group:
            c = [0] * m
            for x in range(m):
                c[s[x]] = s[h[x]]
            image.add(tuple(c))
        out.add(frozenset(image))
    return out


def cycle_text(p):
    """A 0-based image tuple in cycle notation, 1-based: ``"(1 2)(3 4)"``."""
    seen, out = set(), []
    for start in range(len(p)):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = p[x]
        if len(cycle) > 1:
            out.append(f"({' '.join(cycle)})")
    return "".join(out)


def subgroup_classes(m):
    """Generating sets of every conjugacy class of subgroups of S_m, by order,
    and the numbers of subgroups that pairs and that triples close to."""
    members = sorted(permutations(range(m)))
    found = {}
    for i, a in enumerate(members):
        for b in members[i:]:
            found.setdefault(close(m, (a, b)), (a, b))
    pairs = len(found)
    for group, gens in list(found.items()):
        for c in members:
            if c not in group:
                found.setdefault(close(m, (*gens, c)), (*gens, c))
    classes, seen = [], set()
    for group, gens in found.items():
        if group not in seen:
            seen |= conjugates(m, group)
            named = [cycle_text(g) for g in gens]  # the identity and repeats left out
            classes.append((len(group), ",".join(t for k, t in enumerate(named)
                                                 if t and t not in named[:k])))
    return [text for _, text in sorted(classes, key=lambda c: c[0])], pairs, len(found)


def main() -> int:
    record = {}
    for m in DEGREES:
        record[str(m)], pairs, triples = subgroup_classes(m)
        print(f"S{m}: pairs close to {pairs} subgroups, triples to {triples},"
              f" in {len(record[str(m)])} conjugacy classes")
    SUBGROUPS_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
