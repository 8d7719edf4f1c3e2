"""The plain-argv reader of ``cli`` agrees with the argparse parser it stands in for.

Both are built from ``cli._COMMANDS``.  Whenever the reader accepts a
command line, its namespace must equal argparse's; whenever argparse exits
(help or a usage error), the reader must have declined.  The command lines
the golden runs and the benchmark send must all take the reader's path.
Random command lines, run through ``main``, keep its exit-code contract.
"""

import contextlib
import io
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from graphstrata import cli
from record_golden import CASES, inline_graph, resolve

COMMANDS = list(cli._COMMANDS)
FLAGS = sorted({flag for _, _, args in cli._COMMANDS.values() for a in args for flag in a[1]})
# Values for positionals and options: integers in and out of the grammar,
# text, empty strings, non-ASCII digits and dash-led strings.
VALUES = [
    "0", "3", "4", "04", "-1", "-0", "1_0", "+2", " 4 ", "٣", "٠", "",
    "x", "(1 2),(3 4)", "-x", "-", "--", "a b", "-1 2", "=", "{}", "[marking]",
]


def fast(argv):
    read = cli._build_parser().get(argv[0]) if argv else None
    return read(argv) if read else None


def slow(argv):
    """argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._usage_parser().parse_args(argv, SimpleNamespace())
        except SystemExit:
            return None


def _option_tokens(rng, command, values):
    """One option of some form, as the tokens it takes on a command line."""
    own = [flag for a in cli._COMMANDS[command][2] for flag in a[1]]
    value = rng.choice(values)
    kind = rng.randrange(10)
    if kind < 5:
        return [rng.choice(own), value]
    if kind == 5:
        return [rng.choice(FLAGS), value]  # maybe another subcommand's
    if kind == 6:
        long = rng.choice([f for f in own if f.startswith("--")])
        return [long[: rng.randrange(3, len(long))], value]  # an abbreviation
    if kind == 7:
        return [f"{rng.choice(own)}={value}"]
    if kind == 8:
        return [f"-o{value}"]
    return [rng.choice(["--", "-h", "--help", "-o"])]


def random_argv(rng, values=VALUES):
    """A command line drawn from ``values``; positionals favour its first four."""
    command = rng.choice(COMMANDS)
    if rng.random() < 0.05:
        command = rng.choice([command[:3], "-h", "--help", "", "nope"])
    args = cli._COMMANDS.get(command, (None, None, ()))[2]
    count = sum(not a[1] for a in args) + rng.choice([-1, 0, 0, 0, 0, 1])
    positionals = [
        rng.choice(values[:4] if rng.random() < 0.7 else values) for _ in range(max(count, 0))
    ]
    if command in cli._COMMANDS:
        options = [_option_tokens(rng, command, values) for _ in range(rng.choice([0, 0, 1, 2, 3]))]
    else:
        options = []
    if rng.random() < 0.8:
        tail = [t for option in options for t in option]
        return [command, *positionals, *tail]
    # Options before or between the positionals.
    pieces = [[p] for p in positionals] + options
    rng.shuffle(pieces)
    return [command, *(t for piece in pieces for t in piece)]


def test_the_two_readers_agree_on_random_command_lines():
    rng = random.Random(20261019)
    taken = declined_valid = usage = 0
    for _ in range(3000):
        argv = random_argv(rng)
        mine, theirs = fast(argv), slow(argv)
        if mine is not None:
            assert theirs is not None and vars(mine) == vars(theirs), argv
            taken += 1
        elif theirs is None:
            usage += 1
        else:
            declined_valid += 1
    # The draw exercises all three outcomes, not just one.
    assert min(taken, declined_valid, usage) > 200, (taken, declined_valid, usage)


# Small integers, so every census drawn is small; a valid graph and a valid
# marking document, so the canon, split and descent handlers run; an
# unstable graph; and text that argparse reads differently.
RUN_VALUES = [
    "1", "2", inline_graph([0, 0], [(0, 1)], [0, 0, 1, 1]),
    "[marking]\nm = 2\nbase = x\ncover = s -> x\nfiber x = p1 p2\nsigma s = p1 p2\n",
    inline_graph([0], [], [0, 0]), "0", "-1", "3", "", "x", "(1 2)", "()", "-", "--", "=",
]


def test_random_command_lines_keep_the_exit_code_contract(monkeypatch, tmp_path):
    # -o values name files, so they land in tmp_path.
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20261020)
    passed, codes = set(), set()
    for _ in range(2000):
        argv = random_argv(rng, RUN_VALUES)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        codes.add(code)
        if code == 0:
            passed.add(argv[0])
    assert codes == {0, 1, 2}
    assert passed >= {"canon", "split", "verify-descent", "equiv-descent"}


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "0", "4", "--max-size", "5", "-o", "x", "--max-size", "6"],
        ["split", "{}", "--vertex", "1", "--output", "", "--vertex", "0"],
        ["gamma-enumerate", "0", "4", "--group", "", "--max-group-order", "04"],
        ["numerology", "1", "2", "3", "--output", "out.txt"],
    ],
)
def test_repeated_and_reordered_exact_flags_take_the_last_value(argv):
    mine = fast(argv)
    assert mine is not None and vars(mine) == vars(slow(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-1", "4"],
        ["enumerate", "0", "4", "--max-size=5"],
        ["enumerate", "0", "4", "--max-s", "5"],
        ["check-stability", "-o", "x", "{}"],
        ["check-stability", "{}", "-ox"],
        ["check-stability", "--", "{}"],
        ["quotient-table", "0", "4", "--group", "-1"],
    ],
)
def test_command_lines_argparse_reads_differently_go_to_argparse(argv):
    # argparse accepts each of these, through a rule the reader leaves to it.
    assert fast(argv) is None and slow(argv) is not None


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["enumerate", "--help"],
        ["enum", "0", "4"],
        ["enumerate", "0"],
        ["enumerate", "0", "4", "5"],
        ["enumerate", "0", "٣"],
        ["enumerate", "0", ""],
        ["split", "{}"],
        ["canon", "{}", "--max-size", "3"],
    ],
)
def test_help_and_usage_errors_are_declined(argv):
    assert fast(argv) is None and slow(argv) is None


def test_golden_runs_take_the_reader():
    declined = [name for name, args in CASES.items() if fast(resolve(args)) is None]
    assert declined == []


def test_benchmark_jobs_take_the_reader(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    argvs = [job.argv for job in workloads.jobs_for("descent-mix", 1)]
    argvs += [job.argv for job in workloads.jobs_for("big-group-fusion", 1)]
    assert {argv[0] for argv in argvs} >= {"verify-descent", "equiv-descent", "quotient-table"}
    assert [argv for argv in argvs if fast(argv) is None] == []
