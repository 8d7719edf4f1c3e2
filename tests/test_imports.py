"""Every name a library module imports is referenced in that module, and
every private top-level name it defines is read somewhere in the package.
``StableGraph`` is built past its checks in one private helper only, and
only three functions of ``stablegraph`` call it, each building from the
fields of a validated graph.
No library module reads the process environment: every bound is a flag.
No library module calls a ``re`` function with a literal pattern, which
looks the pattern up in ``re``'s cache on every call: a pattern is
compiled once and its own methods are called.
No library module imports ``re`` at all: every grammar is read with
``str`` methods, which decide the same strings without compiling a pattern
at import or on a call, so one mechanism reads all of them.
The cycle-index oracle of the tests imports no library module.
The package's modules hold at most ``SRC_LINES`` lines between them.
The private names that modules import from each other, and the refusal
messages raised from more than one place, are listed here, so a new one
shows as an edit of this file.

Names listed in the module's ``__all__`` (re-exports) and ``from
__future__`` imports are exempt.  Only the standard ``ast`` module is used.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphstrata"
MODULES = sorted(PACKAGE.glob("*.py"))
# The lines of the package's modules, as ``wc -l`` counts them.  A change
# that must raise this edits it and says in CHANGES.md what the lines bought.
SRC_LINES = 3051


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


def test_src_stays_within_its_line_ledger():
    lines = sum(path.read_bytes().count(b"\n") for path in MODULES)
    assert lines <= SRC_LINES, lines


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


# The only functions allowed to build a StableGraph past its checks: two
# carry an already validated graph by a bijection, and the census carries
# each shape's placements after checking its first.
UNCHECKED_CALLERS = {
    ("stablegraph.py", "canonical_form"),
    ("stablegraph.py", "relabel_legs"),
    ("stablegraph.py", "enumerate_stable_graphs"),
}


def _top_level_owners(tree):
    """(top-level definition name or None, node) for every node of ``tree``."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield owner, node


def _is_unchecked_new(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "StableGraph"
    )


def unchecked_constructions(sources):
    """Problems with the one unchecked ``StableGraph`` construction path.

    ``object.__new__(StableGraph)`` must appear once, in a private
    top-level function of ``stablegraph.py``, and every other reference to
    that helper must sit in one of ``UNCHECKED_CALLERS``.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    sites = [
        (module, owner)
        for module, tree in trees.items()
        for owner, node in _top_level_owners(tree)
        if _is_unchecked_new(node)
    ]
    if len(sites) != 1:
        return [f"object.__new__(StableGraph) appears {len(sites)} times: {sites}"]
    module, helper = sites[0]
    if module != "stablegraph.py" or not (helper or "").startswith("_"):
        return [f"object.__new__(StableGraph) is not in a private stablegraph helper: {sites[0]}"]
    problems = []
    for module, tree in trees.items():
        for owner, node in _top_level_owners(tree):
            if isinstance(node, ast.alias) and node.name == helper and node.asname:
                problems.append(f"{module} imports {helper} as {node.asname}")
            referenced = (isinstance(node, ast.Name) and node.id == helper) or (
                isinstance(node, ast.Attribute) and node.attr == helper
            )
            if referenced and (module, owner) not in UNCHECKED_CALLERS:
                problems.append(f"{module}:{node.lineno} {owner} uses {helper}")
    return problems


def test_one_unchecked_construction_path():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unchecked_constructions(sources) == []


def test_check_finds_an_unchecked_construction_elsewhere():
    stablegraph = (
        "class StableGraph:\n"
        "    pass\n"
        "def _carried(genera, edges, legs):\n"
        "    return object.__new__(StableGraph)\n"
        "def canonical_form(graph):\n"
        "    return _carried(graph.genera, graph.edges, graph.legs)\n"
        "def relabel_legs(graph, gamma):\n"
        "    return _carried(graph.genera, graph.edges, graph.legs)\n"
    )
    gamma = "from .stablegraph import relabel_legs\n"
    assert unchecked_constructions({"stablegraph.py": stablegraph, "gamma.py": gamma}) == []
    from_doc = stablegraph + "def graph_from_doc(doc):\n    return _carried((0,), (), ())\n"
    assert unchecked_constructions({"stablegraph.py": from_doc, "gamma.py": gamma}) == [
        "stablegraph.py:10 graph_from_doc uses _carried"
    ]
    reaching = (
        "from .stablegraph import _carried\n"
        "def relabel_legs(graph, gamma):\n"
        "    return _carried(graph.genera, graph.edges, graph.legs)\n"
    )
    assert unchecked_constructions({"stablegraph.py": stablegraph, "gamma.py": reaching}) == [
        "gamma.py:3 relabel_legs uses _carried"
    ]
    second = gamma + "def f():\n    return object.__new__(StableGraph)\n"
    assert "appears 2 times" in unchecked_constructions(
        {"stablegraph.py": stablegraph, "gamma.py": second}
    )[0]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _module_names(tree, module):
    """The names ``tree`` binds ``module`` to: its own and each ``import module as x``."""
    return {module} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module and alias.asname
    }


def environment_reads(source):
    """(line, name) of every read of the process environment in ``source``."""
    tree = ast.parse(source)
    modules = _module_names(tree, "os")
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in ENVIRONMENT]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.append((node.lineno, f"os.{node.attr}"))
    return sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_environment_read():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import getenv, path\n"
        "bound = os.environ.get('BOUND')\n"
        "home = system.getenv('HOME')\n"
        "here = os.path.join(path.curdir, 'x')\n"
    )
    assert environment_reads(source) == [(3, "os.getenv"), (4, "os.environ"), (5, "os.getenv")]


RE_FUNCTIONS = {"match", "fullmatch", "search", "findall", "sub", "split"}


def _literal_pattern(call):
    pattern = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "pattern"), None
    )
    return isinstance(pattern, ast.JoinedStr) or (
        isinstance(pattern, ast.Constant) and isinstance(pattern.value, (str, bytes))
    )


def literal_pattern_calls(source):
    """(line, name) of every ``re`` function called with a literal pattern in ``source``.

    Each such call looks its pattern up in ``re``'s cache again.
    """
    tree = ast.parse(source)
    modules = _module_names(tree, "re")
    functions = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "re"
        for alias in node.names
        if alias.name in RE_FUNCTIONS
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not _literal_pattern(node):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in RE_FUNCTIONS
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            calls.append((node.lineno, f"re.{func.attr}"))
        elif isinstance(func, ast.Name) and func.id in functions:
            calls.append((node.lineno, f"re.{functions[func.id]}"))
    return sorted(calls)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_literal_pattern_calls(path):
    assert literal_pattern_calls(path.read_text(encoding="utf-8")) == []


def test_check_finds_a_literal_pattern_call():
    source = (
        "import re\n"
        "import re as regex\n"
        "from re import split as cut, compile\n"
        "WORD = compile(r'\\w+')\n"
        "a = re.fullmatch(r'-?[0-9]+', text)\n"
        "b = regex.sub('x', 'y', text)\n"
        "c = cut(f'{sep}', text)\n"
        "d = WORD.fullmatch(text)\n"
        "e = re.search(pattern, text)\n"
        "f = re.match(pattern=b'v', string=text)\n"
        "g = text.split(',')\n"
    )
    assert literal_pattern_calls(source) == [
        (5, "re.fullmatch"), (6, "re.sub"), (7, "re.split"), (10, "re.match")
    ]


def re_imports(source):
    """(line, statement) of every import of ``re`` or a submodule of it in ``source``."""
    imports = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports += [
                (node.lineno, f"import {alias.name}")
                for alias in node.names
                if alias.name.split(".")[0] == "re"
            ]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "re":
                imports.append((node.lineno, f"from {node.module} import ..."))
    return sorted(imports)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_re_imports(path):
    assert re_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_a_re_import():
    source = (
        "import os, re as regex\n"
        "from re import fullmatch\n"
        "from . import re\n"
        "from .re import x\n"
        "import reprlib\n"
        "from reprlib import repr\n"
        "def f():\n"
        "    import re._parser\n"
        "    from re._parser import parse\n"
    )
    assert re_imports(source) == [
        (1, "import re"),
        (2, "from re import ..."),
        (8, "import re._parser"),
        (9, "from re._parser import ..."),
    ]


# Every ``from .module import _name`` in the package: (importer, module, name).
PRIVATE_IMPORTS = {
    ("cli.py", "descent", "_parse_marking_documents"),
    ("cli.py", "descent", "_read_int"),
    ("gamma.py", "stablegraph", "_by_nodes_chunks"),
    ("gamma.py", "stablegraph", "_graph_writer"),
    ("gamma.py", "stablegraph", "_json_list"),
    ("gamma.py", "stablegraph", "_read_back"),
}


def private_imports(sources):
    """(importer, module, name) of each private name imported within the package."""
    return {
        (importer, node.module, alias.name)
        for importer, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }


def test_private_imports_are_the_listed_ones():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert private_imports(sources) == PRIVATE_IMPORTS


def test_check_finds_a_private_import():
    sources = {
        "a.py": (
            "from __future__ import annotations\n"
            "from os import _exit\n"
            "from ._record import record\n"
            "from .b import __doc__, _helper as helper, shown\n"
        ),
        "b.py": "def f():\n    from .a import _late\n",
    }
    assert private_imports(sources) == {("a.py", "b", "_helper"), ("b.py", "a", "_late")}


# Refusal message templates raised from two or more sites, each for a reason.
REPEATED_REFUSALS = {
    # enumerate_stable_graphs and hilbert_numerology each refuse their own
    # (g, m); sharing one check would reorder the refusals of numerology,
    # which checks n between the two.
    "g and m must be nonnegative",
    "no stable curves with g={}, m={}",
    # One is about a marking's m (ChartedMarking), the other about the label
    # count of a group (perm.check_label_count), which the CLI and descent
    # documents check before they read group text.
    "m must be positive",
}


def _message_template(call):
    """The last string literal or f-string argument of ``call``, fields as ``{}``.

    The last, because ``FormatError(filename, line, message)`` puts its
    message there.
    """
    for arg in reversed(call.args):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr):
            return "".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in arg.values
            )
    return None


def repeated_refusals(sources):
    """Message templates that two or more ``raise`` sites in ``sources`` raise.

    A ``raise`` whose exception is built from no literal message, such as
    ``raise ValueError(message)`` or a bare ``raise``, has no template.
    """
    sites = Counter(
        _message_template(node.exc)
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
    )
    return {template for template, n in sites.items() if template is not None and n > 1}


def test_repeated_refusals_are_the_listed_ones():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert repeated_refusals(sources) == REPEATED_REFUSALS


def test_check_finds_a_repeated_refusal():
    sources = {
        "a.py": (
            "def f(m, message):\n"
            "    if m < 0:\n"
            "        raise ValueError(f'm = {m!r} is negative')\n"
            "    if m > 9:\n"
            "        raise ValueError(message)\n"
            "    raise ValueError('m is odd')\n"
        ),
        "b.py": (
            "def g(n, exc):\n"
            "    if n:\n"
            "        raise FormatError('b', 1, f'm = {n + 1:>3} is negative')\n"
            "    if exc:\n"
            "        raise exc\n"
            "    raise ValueError(n)\n"
        ),
    }
    assert repeated_refusals(sources) == {"m = {} is negative"}


def imported_packages(source):
    """The top-level package of every import in ``source``; "." for a relative one."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            packages.add("." if node.level else node.module.split(".")[0])
    return packages


def test_cycle_index_oracle_imports_no_library_module():
    source = (Path(__file__).resolve().parent / "cycle_index.py").read_text(encoding="utf-8")
    # Standard modules only, so no library module is reached through a test
    # helper either.
    assert imported_packages(source) <= {"functools", "collections", "fractions", "math"}


def test_check_finds_a_library_import():
    source = (
        "import os.path\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    from graphstrata.perm import PermGroup\n"
        "    from . import oracle\n"
    )
    assert imported_packages(source) == {"os", "fractions", "graphstrata", "."}
