"""The text grammars read with ``str`` methods against the regular expressions
they replaced.

The reference readers below are the package's earlier ones: five patterns
and the loops around them.  Each test draws seeded strings from ASCII
digits, the non-ASCII digits ``١`` and ``²``, zero-prefixed numbers,
brackets, commas, dots, ``v`` and ``h``, and Unicode whitespace that
``str.splitlines`` may also break at, and compares the parsed value, or the
exception's type and message, of the reader against its reference.
Labels stay far below the digit count ``int()`` converts; the refusal of a
longer label is pinned in ``test_refusals.py``.  Arrow lists are compared
with the reader that preceded the token reader, which read them entry by
entry.
"""

import random
import re

from graphstrata.descent import FormatError, _ids, _read_arrows, _split_sections
from graphstrata.perm import Permutation, parse_permutation
from graphstrata.stablegraph import StableGraph, _parse_half_edge, graph_from_doc

N = 20_000
SPACES = [" ", "\t", "\xa0", "\u3000", "\u2003", "\x1c", "\x85"]
DIGITS = ["0", "1", "2", "3", "4", "7", "9", "00", "01", "007", "10", "12", "١", "²"]

CYCLE_RE = re.compile(r"\(\s*((?:[0-9]+)(?:\s+[0-9]+)*)?\s*\)")
ID_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")
SECTION_RE = re.compile(r"\[\s*([a-z]+(?:\s+[a-z]+)?)\s*\]\Z")
HALF_EDGE_RE = re.compile(r"v(0|[1-9][0-9]*)\.h(0|[1-9][0-9]*)")
VERTEX_RE = re.compile(r"v(0|[1-9][0-9]*)")


def reference_permutation(text, degree):
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation literal")
    pos = 0
    cycles = []
    while pos < len(stripped):
        match = CYCLE_RE.match(stripped, pos)
        if match is None:
            raise ValueError(f"bad cycle notation: {text!r}")
        if match.group(1):
            cycles.append(tuple(int(tok) for tok in match.group(1).split()))
        pos = match.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    return Permutation.from_cycles(degree, cycles)


def reference_ids(tokens):
    if not (all(tokens) and ID_RE.match("".join(tokens))):
        for tok in tokens:
            if not ID_RE.match(tok):
                raise ValueError(f"bad identifier {tok!r}")
    return tuple(tokens)


def reference_split_sections(text, filename):
    sections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = line[0] == "[" and SECTION_RE.match(line)
        if match:
            sections.append((match.group(1), lineno, []))
            continue
        if not sections:
            raise FormatError(filename, lineno, "content before any [section]")
        sections[-1][2].append((lineno, line))
    return sections


def reference_arrows(key, value):
    parts = [part.strip() for part in value.split(",")]
    pairs = [part.split("->") for part in parts]
    k = next((k for k, pair in enumerate(pairs) if len(pair) != 2), len(pairs))
    ends = _ids([end.strip() for pair in pairs[:k] for end in pair])
    if k < len(parts):
        message = f"expected 'a -> b', got {parts[k]!r}" if parts[k] else "empty entry in list"
        raise ValueError(message)
    arrows = {}
    for a, b in zip(ends[::2], ends[1::2]):
        if a in arrows:
            raise ValueError(f"two arrows from {a}")
        arrows[a] = b
    return list(arrows.items())


def reference_half_edge(text, nv, where):
    match = HALF_EDGE_RE.fullmatch(text) if isinstance(text, str) else None
    try:
        v, h = int(match[1]), int(match[2])
    except (TypeError, ValueError):
        raise ValueError(f"{where}: expected 'v<i>.h<k>', got {text!r}") from None
    if not 0 <= v < nv:
        raise ValueError(f"{where}: vertex v{v} does not exist")
    return v, h


def reference_leg_vertex(vtx):
    """The vertex a one-vertex graph document's only leg names, as the pattern read it."""
    match = VERTEX_RE.fullmatch(vtx) if isinstance(vtx, str) else None
    try:
        v = int(match[1])
    except (TypeError, ValueError):
        raise ValueError("legs[0]: 'vertex' must look like 'v<i>'") from None
    if v != 0:
        raise ValueError(f"legs[0]: vertex {vtx} does not exist")
    return StableGraph((1,), (), (0,))


def outcome(fn, *args):
    """The value ``fn`` returns, or its exception's type and message."""
    try:
        return "value", fn(*args)
    except ValueError as exc:  # FormatError too, so the type is compared
        return type(exc), str(exc)


def text(rng, pieces, most):
    return "".join(rng.choice(pieces) for _ in range(rng.randrange(most + 1)))


def agree(cases, reader, reference):
    """Outcomes of ``reader`` on ``cases``, each asserted equal to the reference's."""
    outcomes = []
    for args in cases:
        got = outcome(reader, *args)
        assert got == outcome(reference, *args), args
        outcomes.append(got[0])
    return outcomes


def assert_both_kinds(outcomes):
    """Neither acceptance nor refusal is rare, so both sides of each grammar are compared."""
    accepted = outcomes.count("value")
    assert N // 10 < accepted < N - N // 10


def test_cycle_notation():
    rng = random.Random(20)
    pieces = ["(", "(", ")", ")", ",", ".", "v", "h", *DIGITS, *SPACES, *SPACES]

    def cycle():
        labels = [rng.choice(DIGITS) for _ in range(rng.randrange(4))]
        inner = "".join(rng.choice(SPACES) + label for label in labels)
        return "(" + inner + rng.choice(["", *SPACES]) + ")" + rng.choice(["", *SPACES])

    cases = []
    for _ in range(N):
        literal = "".join(cycle() for _ in range(rng.randrange(4)))
        if rng.random() < 0.5:
            cut = rng.randrange(len(literal) + 1)
            literal = literal[:cut] + text(rng, pieces, 3) + literal[cut:]
        cases.append((literal, rng.randrange(1, 13)))
    assert_both_kinds(agree(cases, parse_permutation, reference_permutation))


def test_identifiers():
    rng = random.Random(21)
    pieces = ["a", "Z", "q", "_", ".", "+", "-", ",", "(", "[", "v", "h", "é", "\n"]
    pieces += DIGITS + SPACES
    cases = [([text(rng, pieces, 4) for _ in range(rng.randrange(4))],) for _ in range(N)]
    assert_both_kinds(agree(cases, _ids, reference_ids))


def test_section_splitting():
    rng = random.Random(22)
    words = ["marking", "source", "target", "morphism", "x", "Marking", "mark1ng", "ä"]
    breaks = ["\n", "\n", "\r\n", "\x1c", "\x85", " "]

    def line():
        if rng.random() < 0.5:
            return text(rng, ["m = 4", "base = x", "#", ",", ".", "v", *DIGITS, *SPACES], 4)
        names = [rng.choice(words) for _ in range(rng.randrange(4))]
        inner = rng.choice(["", *SPACES]).join(names)
        return (
            rng.choice(["", "[", "[", "[", " "]) + rng.choice(["", *SPACES]) + inner
            + rng.choice(["", *SPACES]) + rng.choice(["", "]", "]", "]", "]]", "] x"])
            + rng.choice(["", "", " # note", *SPACES])
        )

    cases = []
    for _ in range(N):
        lines = [line() for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.7:
            lines.insert(0, "[marking]")
        cases.append(("".join(item + rng.choice(breaks) for item in lines), "doc"))
    assert_both_kinds(agree(cases, _split_sections, reference_split_sections))


def test_arrow_lists():
    rng = random.Random(25)
    pieces = ["a", "b", "a-", "-b", "_", "->", "->", "-", ">", ",", ", ", "!", *SPACES]
    cases = []
    for _ in range(N):
        value = ", ".join(
            f"{rng.choice('abcd')}{rng.choice(SPACES)}->{rng.choice(SPACES)}{rng.choice('xyz')}"
            for _ in range(rng.randrange(1, 5))
        )
        if rng.random() < 0.5:
            cut = rng.randrange(len(value) + 1)
            value = value[:cut] + text(rng, pieces, 3) + value[cut:]
        cases.append(("cover", value.strip()))

    def read(key, value):
        return list(_read_arrows(key, value).items())  # the order too

    assert_both_kinds(agree(cases, read, reference_arrows))


def graph_id(rng):
    pieces = ["v", "h", ".", ".h", ",", "(", *DIGITS, *SPACES]
    if rng.random() < 0.1:
        return text(rng, pieces, 5)
    ends = []
    for prefix in "vh":
        end = (prefix if rng.random() < 0.85 else rng.choice(["", "V", "w"])) + rng.choice(DIGITS)
        if rng.random() < 0.1:
            end += rng.choice(DIGITS + SPACES)
        ends.append(end)
    return ("." if rng.random() < 0.8 else rng.choice(["", ",", ".."])).join(ends)


def test_half_edge_ids():
    rng = random.Random(23)
    cases = [(graph_id(rng), rng.randrange(1, 15), "edges[0]") for _ in range(N)]
    cases += [(value, 3, "edges[1]") for value in (None, 0, 1.5, ["v0.h0"], {"v": 0})]
    assert_both_kinds(agree(cases, _parse_half_edge, reference_half_edge))


def leg_vertex(vtx):
    legs = [{"label": 1, "vertex": vtx}]
    return graph_from_doc({"format": "stable-graph/1", "vertices": [{"genus": 1}], "legs": legs})


def test_leg_vertex_ids():
    rng = random.Random(24)
    cases = []
    for _ in range(N):
        vertex = graph_id(rng).partition(".")[0]
        cases.append((rng.choice([vertex, vertex, "v0", "v00", "v0" + rng.choice(SPACES)]),))
    cases += [(value,) for value in (None, 0, ["v0"])]
    outcomes = agree(cases, leg_vertex, reference_leg_vertex)
    assert N // 20 < outcomes.count("value") < N - N // 10

