"""Record exit code, stdout sha256 and the exact stderr of malformed descent documents.

    PYTHONPATH=src python3 tests/record_refusals.py

The corpus, ``cases()``, is the 300 documents of the benchmark's
descent-mix content variant 0, each given one seeded edit of a kind from
``EDITS`` (the kinds in turn, the line and the text by a seeded draw), and
the two documents ``README_CASES`` whose report the README explains: a bad
line read before a line the file puts earlier.  ``tests/test_refusals.py``
replays it against ``tests/refusals_golden.json``.

Adds the cases the file does not hold yet, and never rewrites one already
there, as ``tests/record_golden.py`` does: a rewrite of the reader must
keep every recorded refusal, with its line and message.  Record new cases
from a checkout whose outputs are trusted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFUSALS_PATH = HERE / "refusals_golden.json"

# Every line names what it is; the reader strips the text around ``=``.
ID_LINES = ("base =", "cover =", "fiber ", "sigma ", "h =", "map ")
ARROW_LINES = ("cover =", "h =", "map ")


def _pick(rng, lines, prefixes) -> int:
    """The index of a seeded line among those starting with one of ``prefixes``."""
    return rng.choice([k for k, line in enumerate(lines) if line.startswith(prefixes)])


def _section_end(lines, k) -> int:
    """The index just past the section that holds line ``k``."""
    return next((j for j in range(k + 1, len(lines)) if lines[j].startswith("[")), len(lines))


def doubled_arrow(rng, lines):
    k = _pick(rng, lines, ARROW_LINES)
    key, _, value = lines[k].partition(" = ")
    entries = value.split(", ")
    i = rng.randrange(len(entries))
    entries.insert(i, entries[i])
    lines[k] = f"{key} = {', '.join(entries)}"


def empty_entry(rng, lines):
    k = _pick(rng, lines, ARROW_LINES)
    key, _, value = lines[k].partition(" = ")
    entries = value.split(", ")
    entries.insert(rng.randrange(len(entries) + 1), "")
    lines[k] = f"{key} = {', '.join(entries)}"


def bad_character(rng, lines):
    k = _pick(rng, lines, ID_LINES)
    words = lines[k].split(" ")
    i = rng.choice([i for i, w in enumerate(words) if i and w not in ("=", "->")])
    core = words[i].rstrip(",")
    words[i] = core + rng.choice("!?*/:") + words[i][len(core):]
    lines[k] = " ".join(words)


def repeated_named_key(rng, lines):
    k = _pick(rng, lines, ("fiber ", "sigma ", "map "))
    lines.insert(rng.randrange(k + 1, _section_end(lines, k) + 1), lines[k])


def unknown_key(rng, lines):
    line = rng.choice(("colour = red", "fibre x = p", "sigma = p", "m x = 4", "= 4"))
    lines.insert(rng.randrange(1, len(lines) + 1), line)


def missing_required_key(rng, lines):
    del lines[_pick(rng, lines, ("m =", "base =", "cover =", "h ="))]


def group_label_out_of_range(rng, lines):
    k = _pick(rng, lines, ("m =", "group ="))
    line = f"group = (1 {rng.choice((0, 6, 9, 10, 12))})"
    if lines[k].startswith("m ="):
        lines.insert(k + 1, line)
    else:
        lines[k] = line


def malformed_m(rng, lines):
    k = _pick(rng, lines, ("m =",))
    lines[k] = "m = " + rng.choice(("4x", "", "five", "4.0", "+4", "--4", "٤", "0", "-3", "11"))


def repeated_section_header(rng, lines):
    k = _pick(rng, lines, ("[",))
    lines.insert(rng.randrange(k + 1, len(lines) + 1), lines[k])


def sigma_point_outside_fiber(rng, lines):
    k = _pick(rng, lines, ("sigma ",))
    key, _, value = lines[k].partition(" = ")
    points = value.split()
    start, end = k, _section_end(lines, k)
    while not lines[start].startswith("["):
        start -= 1
    fibers = [line.partition(" = ")[2].split() for line in lines[start:end]
              if line.startswith("fiber ")]
    others = [p for fiber in fibers if points[0] not in fiber for p in fiber]
    points[rng.randrange(len(points))] = rng.choice(others) if others else "zz"
    lines[k] = f"{key} = {' '.join(points)}"


EDITS = (
    doubled_arrow,
    empty_entry,
    bad_character,
    repeated_named_key,
    unknown_key,
    missing_required_key,
    group_label_out_of_range,
    malformed_m,
    repeated_section_header,
    sigma_point_outside_fiber,
)

README_CASES = {
    # Every line of a marking section is read before its group is parsed.
    "readme: a bad identifier on line 8 outranks the group on line 3": [
        "verify-descent",
        "[marking]\nm = 4\ngroup = (1 9)\nbase = x\ncover = s -> x, t -> x\n"
        "fiber x = p1 p2 p3 p4\nsigma s = p1 p2 p3 p4\nsigma t = p1 p2 p3! p4\n",
    ],
    # Sections are read source, target, morphism, whatever their file order.
    "readme: the source section outranks a morphism section placed first": [
        "verify-morphism",
        "[morphism]\nh = x -> x, x -> y\nmap x = p -> p\n"
        "[marking source]\nm = 1\nbase = x\ncover = s -> x\nfiber x = p!\nsigma s = p\n"
        "[marking target]\nm = 1\nbase = x\ncover = s -> x\nfiber x = p\nsigma s = p\n",
    ],
}


def cases() -> dict[str, list[str]]:
    """The corpus: name to command line, in a fixed order."""
    root = str(HERE.parent)
    if root not in sys.path:
        sys.path.append(root)
    from perfbench import descent_mix

    out = {}
    for index, job in enumerate(descent_mix.documents(0)):
        rng = random.Random(index)
        edit = EDITS[index % len(EDITS)]
        argv = list(job.argv)
        k = 1 + rng.randrange(len(argv) - 1)  # which document of the job
        lines = argv[k].splitlines()
        edit(rng, lines)
        argv[k] = "\n".join(lines) + "\n"
        out[f"{index:03d} {argv[0]} {edit.__name__}"] = argv
    out.update(README_CASES)
    return out


def run(main, args: list[str]) -> list:
    """``[exit, stdout sha256, stderr]`` of one ``main(args)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()]


def main() -> int:
    from graphstrata.cli import main as cli_main

    recorded = {}
    if REFUSALS_PATH.exists():
        recorded = json.loads(REFUSALS_PATH.read_text(encoding="utf-8"))
    recorded.update(
        {name: run(cli_main, args) for name, args in cases().items() if name not in recorded}
    )
    with REFUSALS_PATH.open("w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
