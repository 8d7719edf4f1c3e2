"""Every frozen record of the package behaves as its dataclass twin.

The records are built by one private helper, not by ``dataclasses``.  For
each public record class a real ``@dataclass(frozen=True)`` twin is made
from the class's ``__match_args__``, with the class's own
``__post_init__``: the ``Permutation`` twin is ordered, and the
``PermGroup`` twin leaves ``generators`` out of comparison.  On field
values taken from real results, the record and its twin must agree on
equality, hash, repr, order, immutability, argument errors, copying and
pickling.  The last tests check, each in a fresh interpreter, that
importing the package and its CLI loads neither ``dataclasses`` nor
``inspect`` nor ``json``, that commands which read no JSON never load it,
that the graph-document commands load it on first use with the same errors
and bytes as in a process that already holds it, and that valid commands
never load ``argparse`` while help and usage errors do.
"""

import copy
import dataclasses
import itertools
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

from graphstrata import descent, gamma, perm, stablegraph, strata
from graphstrata.cli import main
from graphstrata.descent import (
    dominates,
    equivalent,
    parse_marking_document,
    parse_morphism_document,
    verify_morphism,
    verify_star,
)
from graphstrata.gamma import GammaMarkedGraph, enumerate_gamma_strata, gamma_equivalent
from graphstrata.perm import (
    PermGroup,
    Permutation,
    group_from_generators,
    parse_generators,
    parse_permutation,
    symmetric_group,
)
from graphstrata.stablegraph import (
    GraphIsomorphism,
    StableGraph,
    check_stability,
    enumerate_stable_graphs,
    hilbert_numerology,
    split_component,
)
from graphstrata.strata import build_quotient_table
from record_golden import inline_graph

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
RECORD_MODULES = (perm, stablegraph, gamma, strata, descent)

# Twins are found by pickle as attributes of this module, under the
# record's own name, so their repr and error messages name the same class.
TWINS = types.ModuleType("graphstrata_record_twins")


def _record_classes():
    return sorted(
        (
            obj
            for module in RECORD_MODULES
            for obj in map(module.__dict__.get, module.__all__)
            if isinstance(obj, type)
            and obj.__module__ == module.__name__
            and "__match_args__" in vars(obj)
        ),
        key=lambda cls: cls.__name__,
    )


def _twin(cls):
    specs = [
        (name, object, dataclasses.field(compare=False))
        if (cls, name) == (PermGroup, "generators")
        else (name, object)
        for name in cls.__match_args__
    ]
    namespace = {"__module__": TWINS.__name__}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    twin = dataclasses.make_dataclass(
        cls.__name__, specs, frozen=True, order=cls is Permutation, namespace=namespace
    )
    setattr(TWINS, cls.__name__, twin)
    return twin


def _samples():
    """Per record class, two unequal instances taken from real results."""
    census04 = enumerate_stable_graphs(0, 4)
    one, two = census04.classes_by_nodes[1][:2]
    s4 = symmetric_group(4)
    swap = group_from_generators(4, parse_generators("(1 2)", 4))
    swapped = gamma.relabel_legs(one, parse_permutation("(1 3)", 4))
    gamma_s4 = enumerate_gamma_strata(0, 4, s4)
    gamma_swap = enumerate_gamma_strata(0, 4, swap)
    table = build_quotient_table(0, 4, swap)

    def marking(name):
        return parse_marking_document((FIXTURES / name).read_text(), name)

    intro, small, m5 = (
        marking(n) for n in ("intro-example.desc", "intro-small-group.desc", "m5-cover-1234.desc")
    )
    twist = (FIXTURES / "twist-endomorphism.desc").read_text()
    fixed = twist.replace(
        "p1 -> p2, p2 -> p1, p3 -> p4, p4 -> p3", "p1 -> p1, p2 -> p2, p3 -> p3, p4 -> p4"
    )
    assert fixed != twist
    twist_parts, fixed_parts = parse_morphism_document(twist), parse_morphism_document(fixed)
    intro_pair, m5_pair = equivalent(intro, intro), equivalent(m5, m5)
    return {
        Permutation: (parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)),
        PermGroup: (symmetric_group(3), group_from_generators(3, parse_generators("(1 2 3)", 3))),
        StableGraph: (one, two),
        stablegraph.StabilityReport: (
            check_stability(one),
            check_stability(enumerate_stable_graphs(1, 1).classes_by_nodes[1][0]),
        ),
        GraphIsomorphism: (GraphIsomorphism((0, 1)), GraphIsomorphism((1, 0))),
        stablegraph.StratumCensus: (enumerate_stable_graphs(0, 3), census04),
        stablegraph.SplitComponent: (split_component(one, 0), split_component(one, 1)),
        stablegraph.HilbertNumerology: (hilbert_numerology(0, 3, 4), hilbert_numerology(1, 3, 1)),
        gamma.GammaWitness: (gamma_equivalent(one, one, s4), gamma_equivalent(one, swapped, s4)),
        GammaMarkedGraph: (GammaMarkedGraph.of(one, swap), GammaMarkedGraph.of(two, swap)),
        gamma.GammaClass: tuple(itertools.islice(gamma_swap.all_classes(), 2)),
        gamma.GammaCensus: (gamma_s4, gamma_swap),
        strata.QuotientRow: table.rows[:2],
        strata.QuotientTable: (build_quotient_table(0, 4, s4), table),
        descent.FiniteCover: (intro.cover, m5.cover),
        descent.ChartedMarking: (intro, small),
        descent.StarReport: (verify_star(intro), verify_star(small)),
        descent.DominationReport: (
            dominates(intro, intro, {"s1": "s1", "s2": "s2"}),
            dominates(intro, intro, {"s1": "s2", "s2": "s1"}),
        ),
        descent.EquivalenceWitness: (intro_pair, m5_pair),
        descent.FiberMorphism: (twist_parts[0], fixed_parts[0]),
        descent.MorphismReport: (verify_morphism(*twist_parts), verify_morphism(*fixed_parts)),
    }


SAMPLES = _samples()
CLASSES = _record_classes()
TWIN = {cls: _twin(cls) for cls in CLASSES}


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def _built(cls):
    """(record, equal record, unequal record) and the same three twins."""
    a, b = (_fields(x) for x in SAMPLES[cls])
    return (cls(*a), cls(*a), cls(*b)), (TWIN[cls](*a), TWIN[cls](*a), TWIN[cls](*b))


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


by_name = pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)


def test_every_record_class_has_samples():
    assert len(CLASSES) == 21
    assert set(SAMPLES) == set(CLASSES)
    for cls, (a, b) in SAMPLES.items():
        assert type(a) is cls and type(b) is cls
        assert a != b


@by_name
def test_equality_matches_the_dataclass(cls):
    records, twins = _built(cls)

    def verdicts(x, same, other, foreign):
        return [
            x == same, x != same, x == other, x != other,
            x == foreign, x != foreign, x.__eq__(foreign), x == _fields(x),
        ]

    expected = verdicts(twins[0], twins[1], twins[2], records[0])
    assert verdicts(records[0], records[1], records[2], twins[0]) == expected
    assert expected[:7] == [True, False, False, True, False, True, NotImplemented]


@by_name
def test_hash_matches_the_dataclass(cls):
    records, twins = _built(cls)
    for record, twin in zip(records, twins):
        assert _outcome(hash, record) == _outcome(hash, twin)


@by_name
def test_repr_and_fields_match_the_dataclass(cls):
    records, twins = _built(cls)
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert vars(record) == vars(twin)
    assert cls.__match_args__ == TWIN[cls].__match_args__


@by_name
def test_assignment_and_deletion_are_refused_alike(cls):
    (record, _, _), (twin, _, _) = _built(cls)
    first = cls.__match_args__[0]
    for name in (first, "unknown"):
        outcome = _outcome(setattr, twin, name, 1)
        assert outcome == _outcome(setattr, record, name, 1)
        assert outcome[0] == "FrozenInstanceError"
        assert _outcome(delattr, record, name) == _outcome(delattr, twin, name)
    with pytest.raises(AttributeError):
        setattr(record, first, 1)
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert getattr(record, first) == getattr(twin, first)


@by_name
def test_argument_errors_match_the_dataclass(cls):
    a = _fields(SAMPLES[cls][0])
    first = cls.__match_args__[0]
    calls = [
        (a[:-1], {}),
        ((), {}),
        (a + (None,), {}),
        (a + (None, None), {first: a[0]}),
        (a, {first: a[0]}),
        (a, {"unknown": 1}),
        (a[1:], {}),
    ]
    for args, kwargs in calls:
        outcome = _outcome(lambda: cls(*args, **kwargs))
        assert outcome == _outcome(lambda: TWIN[cls](*args, **kwargs))
        assert outcome[0] == "TypeError"
    by_keyword = dict(zip(cls.__match_args__, a))
    assert cls(**by_keyword) == cls(*a)
    assert repr(cls(**by_keyword)) == repr(TWIN[cls](**by_keyword))
    mixed = dict(zip(cls.__match_args__[1:], a[1:]))
    assert cls(a[0], **mixed) == cls(*a)
    assert repr(cls(a[0], **mixed)) == repr(TWIN[cls](a[0], **mixed))


@by_name
def test_copy_and_pickle_round_trips_match_the_dataclass(cls, monkeypatch):
    monkeypatch.setitem(sys.modules, TWINS.__name__, TWINS)
    (record, _, _), (twin, _, _) = _built(cls)
    shown = []
    for x in (record, twin):
        round_trips = (copy.copy(x), pickle.loads(pickle.dumps(x)))
        for y in round_trips:
            assert type(y) is type(x)
            assert y == x
            assert vars(y) == vars(x)
        # A rebuilt frozenset may list its members in another order, so
        # the record's copies are shown against the twin's, not the original.
        shown.append([repr(y) for y in round_trips])
    assert shown[0] == shown[1]


def test_permutations_sort_as_the_ordered_dataclass():
    images = list(itertools.permutations(range(1, 4)))[::-1]
    records = [Permutation(i) for i in images]
    twins = [TWIN[Permutation](i) for i in images]
    assert [p.images for p in sorted(records)] == [p.images for p in sorted(twins)]
    ops = ("__lt__", "__le__", "__gt__", "__ge__")
    pairs = zip(itertools.product(records, repeat=2), itertools.product(twins, repeat=2))
    for (r, s), (t, u) in pairs:
        assert [getattr(r, op)(s) for op in ops] == [getattr(t, op)(u) for op in ops]
        assert [getattr(r, op)(t) for op in ops] == [NotImplemented] * 4
        assert _outcome(sorted, [r, t]) == _outcome(sorted, [t, r])


def test_group_equality_ignores_generators_and_elements_are_cached():
    a = group_from_generators(3, parse_generators("(1 2),(2 3)", 3))
    b = group_from_generators(3, parse_generators("(1 2 3),(1 2)", 3))
    assert a.generators != b.generators
    assert a == b and hash(a) == hash(b)
    assert a.elements is a.elements
    assert "elements" in vars(a)
    component = SAMPLES[stablegraph.SplitComponent][0]
    assert component.group is component.group


def test_boolean_leg_vertex_is_still_refused():
    with pytest.raises(ValueError, match="leg vertex must be an integer"):
        StableGraph((0,), (), (True,))


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import graphstrata, graphstrata.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout.strip() == "[]"


# Runs ``main`` on the arguments read from stdin, one a line, in an
# interpreter that has not loaded ``json``.
FIRST_JSON_USE = (
    "import sys\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "from graphstrata.cli import main\n"
    "assert 'json' not in sys.modules\n"
    "sys.exit(main(sys.stdin.read().split('\\n')))\n"
)


def _first_json_use(*argv):
    # Through stdin: one argument of the nesting case is longer than the
    # operating system takes on a command line.
    return subprocess.run(
        [sys.executable, "-I", "-c", FIRST_JSON_USE],
        input="\n".join(argv),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_commands_without_json_never_load_it():
    marking = (FIXTURES / "intro-example.desc").read_text(encoding="utf-8")
    inline_marking = marking[marking.index("[marking]") :]
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import graphstrata, graphstrata.cli\n"
        "loaded = ['json' in sys.modules]\n"
        "for argv in (\n"
        "    ['enumerate', '0', '4'],\n"
        "    ['quotient-table', '0', '4', '--group', '(1 2)'],\n"
        f"    ['verify-descent', {inline_marking!r}],\n"
        "):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert graphstrata.cli.main(argv) == 0\n"
        "    loaded.append('json' in sys.modules)\n"
        "print(loaded)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout.strip() == "[False, False, False, False]"


@pytest.mark.parametrize("last", [["--help"], ["enumerate", "0"]], ids=["help", "usage-error"])
def test_valid_commands_never_load_argparse(tmp_path, last):
    graph = str(FIXTURES / "loop-and-bridge.json")
    marking = str(FIXTURES / "intro-example.desc")
    valid = [
        ["enumerate", "0", "4", "--max-size", "6"],
        ["gamma-enumerate", "0", "4", "--group", "(1 2)"],
        ["check-stability", graph],
        ["canon", graph, "--max-m", "5"],
        ["split", graph, "--vertex", "0"],
        ["verify-descent", marking],
        ["equiv-descent", marking, marking],
        ["verify-morphism", str(FIXTURES / "twist-endomorphism.desc")],
        ["quotient-table", "0", "4", "-o", str(tmp_path / "table.txt")],
        ["numerology", "2", "3", "0"],
    ]
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import graphstrata, graphstrata.cli\n"
        "def loaded():\n"
        "    return sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "seen = [loaded()]\n"
        f"for argv in {valid!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert graphstrata.cli.main(argv) == 0, argv\n"
        "seen.append(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    graphstrata.cli.main({last!r})\n"
        "seen.append(loaded())\n"
        "print(seen)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[[], [], ['argparse', 'gettext']]"


def test_malformed_inline_json_on_first_use_is_input_error():
    done = _first_json_use("canon", "{not json")
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: <inline>: ")


def test_deeply_nested_json_on_first_use_is_input_error():
    done = _first_json_use("canon", "[" * 100000 + "]" * 100000)
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "nested" in lines[0]


TWO_PAIRS = inline_graph([0, 0], [(0, 1)], [1, 1, 0, 0])


@pytest.mark.parametrize(
    "argv",
    [
        ["canon", TWO_PAIRS],
        ["canon", TWO_PAIRS, "--group", "(1 3)(2 4)"],
        ["check-stability", TWO_PAIRS],
        ["split", TWO_PAIRS, "--vertex", "0"],
    ],
    ids=["canon", "canon-group", "check-stability", "split"],
)
def test_valid_document_on_first_use_prints_the_in_process_bytes(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    done = _first_json_use(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    assert code == 0 and captured.out
