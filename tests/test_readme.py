"""README states the user contract that the code defines.

Every subcommand of ``cli._COMMANDS`` has a ``### `` entry under
"Command line" (one entry may name several subcommands, comma separated),
every flag of a subcommand appears in README, and every public name of
``graphstrata.__all__`` appears in it.  README keeps to that contract and
the length its readers can take in; how the code works is told in the
module docstrings.
"""

import re
from pathlib import Path

import graphstrata
from graphstrata.cli import _COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"
MAX_LINES = 320


def _mentions(text, word):
    """Whether ``word`` stands in ``text`` as a whole flag or name."""
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", text) is not None


def contract_gaps(text, commands, public_names):
    """What the README ``text`` leaves out of the contract, one line per gap."""
    gaps = []
    section = re.search(r"^## Command line\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    entries = set()
    for heading in re.findall(r"^### (.+)$", section[1] if section else "", re.M):
        entries.update(name.strip() for name in heading.split(","))
    for command, (_, _, arguments) in commands.items():
        if command not in entries:
            gaps.append(f"no ### entry for {command}")
        for _, flags, *_ in arguments:
            gaps += [f"flag {flag} of {command}" for flag in flags if not _mentions(text, flag)]
    gaps += [
        f"public name {name}"
        for name in public_names
        if not name.startswith("__") and not _mentions(text, name)
    ]
    return sorted(set(gaps))


def test_readme_states_the_contract():
    text = README.read_text(encoding="utf-8")
    assert contract_gaps(text, _COMMANDS, graphstrata.__all__) == []


def test_readme_is_short():
    assert len(README.read_text(encoding="utf-8").splitlines()) <= MAX_LINES


def test_a_readme_without_a_flag_is_caught():
    text = README.read_text(encoding="utf-8")
    assert _mentions(text, "--vertex")
    cut = re.sub(r"--vertex\b", "--vertices", text)
    assert contract_gaps(cut, _COMMANDS, graphstrata.__all__) == ["flag --vertex of split"]
