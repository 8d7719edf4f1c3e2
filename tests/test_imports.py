"""Every name a library module imports is referenced in that module, and
every private top-level name it defines is read somewhere in the package.

Names listed in the module's ``__all__`` (re-exports) and ``from
__future__`` imports are exempt.  Only the standard ``ast`` module is used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphstrata"
MODULES = sorted(PACKAGE.glob("*.py"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Names bound by imports in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = used | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in exempt)


def test_every_module_is_checked():
    assert {"descent.py", "perm.py", "stablegraph.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import re\n"
        "from typing import Iterable, Sequence\n"
        "__all__ = ['Sequence']\n"
        "def f(x: Iterable) -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == [(2, "re")]


def _private_definitions(tree):
    """Top-level functions, classes and constants named ``_x`` (not dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def unread_private_names(sources):
    """(module, line, name) of private definitions no module in ``sources`` reads.

    A read is a loaded name, an attribute of that name, or an import of it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in read
    )


def test_no_unread_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_names(sources) == []


def test_check_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "def _edge_map(edges):\n"
            "    return edges\n"
            "def _kept(x):\n"
            "    return x\n"
        ),
        "b.py": "from . import a\nfrom .a import _kept\ny = _kept(a._LIMIT)\n",
    }
    assert unread_private_names(sources) == [("a.py", 2, "_edge_map")]
