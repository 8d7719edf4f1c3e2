"""The call meter counts through every binding and leaves none behind."""

import subprocess
import sys
from pathlib import Path

import pytest

from graphstrata import descent, gamma, stablegraph
from meter import counting
from record_golden import S5, run

TESTS = Path(__file__).resolve().parent

CANON = "stablegraph.canonical_form"


def _modules():
    return [
        module
        for key, module in sys.modules.items()
        if key == "graphstrata" or key.startswith("graphstrata.")
    ]


def _bindings():
    """Every attribute of every ``graphstrata`` module, and of the classes patched below."""
    found = {(module, attr): value for module in _modules() for attr, value in vars(module).items()}
    for cls in (stablegraph.StableGraph, descent.FiniteCover):
        found.update({(cls, attr): value for attr, value in vars(cls).items()})
    return found


def test_a_count_through_one_namespace_misses_fusion():
    # Fusion calls ``gamma``'s binding of canonical_form, so a counter
    # patched into ``stablegraph`` alone sees only the census's 26 calls.
    original = stablegraph.canonical_form
    argv = ["quotient-table", "0", "5", "--group", S5]
    with counting(CANON) as every:
        run(argv)
    with counting(CANON) as home_only:
        for module in _modules():
            if module is not stablegraph and hasattr(module, "canonical_form"):
                module.canonical_form = original  # the meter restores it again
        run(argv)
    assert (every[CANON], home_only[CANON]) == (3506, 26)


def test_every_binding_is_restored_also_when_the_block_raises():
    targets = (
        CANON,
        "stablegraph.StableGraph.degree",
        "descent.FiniteCover.__init__",
    )
    before, original = _bindings(), stablegraph.canonical_form
    with pytest.raises(RuntimeError), counting(*targets) as calls:
        assert gamma.canonical_form is stablegraph.canonical_form is not original
        descent.FiniteCover(("x",), ("s",), {"s": "x"})
        raise RuntimeError
    assert calls == {"descent.FiniteCover.__init__": 1}
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


@pytest.mark.parametrize(
    "target",
    [
        "stablegraph.no_such_function",
        "no_such_module.canonical_form",
        "stablegraph",
        "stablegraph.StableGraph",
        "stablegraph.GRAPH_FORMAT",
        "stablegraph.StableGraph.no_such_method",
        "descent._PairWitnesses.keys",  # inherited from Mapping
        "stablegraph.canonical_form.__call__",
    ],
)
def test_an_unknown_target_raises_and_patches_nothing(target):
    before = _bindings()
    with pytest.raises(LookupError), counting(CANON, target):
        pass
    assert _bindings() == before


def test_a_first_run_inside_the_block_leaves_no_wrapper_behind():
    # ``record_golden.run`` imports ``cli`` on its first call, and ``canon``
    # calls ``cli``'s binding of canonical_form; two blocks in a fresh
    # process must each count its one call.
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(TESTS.parent / 'src')!r}, {str(TESTS)!r}]\n"
        "from meter import counting\n"
        "from record_golden import FIXTURES, run\n"
        "argv = ['canon', str(FIXTURES / 'loop-and-bridge.json')]\n"
        "for _ in range(2):\n"
        f"    with counting({CANON!r}) as calls:\n"
        "        assert run(argv).code == 0\n"
        f"    print(calls[{CANON!r}])\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.stdout.split(), done.stderr) == (["1", "1"], "")
