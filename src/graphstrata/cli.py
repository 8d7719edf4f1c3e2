"""Command-line front end for the censuses, quotients, and chart verifiers.

Exit codes are part of the contract: 0 for success or a positive verdict,
1 for a determinate negative verdict (an unstable graph, incompatible
charts, inequivalent markings, an invalid morphism, an unstable split
piece), 2 for bad input or an exceeded bound.  Repeated identical
invocations produce byte-identical output documents.

Graph arguments name JSON documents; descent arguments name sectioned
text documents.  An argument starting with "{" or "[" is read as an
inline document instead of a path.  Integer arguments are read as descent
documents read ``m``: ASCII digits after an optional minus sign.

``main(argv)`` is the in-process entry point: it returns the exit code
instead of exiting and can be called any number of times.  The subcommands
and their arguments are declared once, in ``_COMMANDS``, from which the
first call compiles one reader per subcommand; a plain command line
(exact flags, no value starting with "-") never loads ``argparse``.  A
bound option's default is its ``bound`` there, and ``main`` refuses a bound
below 1 before the handler reads any document or group text.  Help,
usage errors and argparse's other forms (abbreviations, ``--flag=value``,
``--``, negative numbers) go to an argparse parser built from the same
table when first needed.  Help prints as before; a usage error is the one
``error:`` line of every refusal, naming the subcommand.  ``json`` is loaded
only by the commands that read or write graph documents (``check-stability``,
``canon``, ``split``), on first use, so the other commands never pay for it.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from .descent import (
    _parse_marking_documents,
    _read_int,
    equivalent,
    parse_marking_document,
    parse_morphism_document,
    render_equivalence,
    render_morphism_report,
    render_star_report,
    verify_morphism,
    verify_star,
)
from .gamma import enumerate_gamma_strata, gamma_canonical_form, gamma_census_chunks
from .limits import DEFAULT_MAX_DIM, MAX_GROUP_ORDER, MAX_PERM_DEGREE
from .perm import PermGroup, check_degree, check_label_count, generator_text
from .perm import group_from_generators, parse_generators
from .stablegraph import (
    DisconnectedGraphError,
    StableGraph,
    canonical_form,
    census_chunks,
    check_stability,
    dumps,
    enumerate_stable_graphs,
    graph_from_doc,
    graph_to_doc,
    hilbert_numerology,
    split_component,
)
from .strata import build_quotient_table, render_quotient_table

__all__ = ["main"]

SPLIT_FORMAT = "split-component/1"


def _group(args: SimpleNamespace, m: int) -> PermGroup:
    """The label group ``--group`` names on 1..m; the trivial group when it is not given."""
    check_label_count(m, args.max_m)  # before parsing builds anything of size m
    gens = parse_generators(args.group, m) if args.group else ()
    return group_from_generators(m, gens, max_degree=args.max_m, max_order=args.max_group_order)


def _read_document(arg: str) -> tuple[str, str]:
    if arg.lstrip().startswith(("{", "[")):
        return arg, "<inline>"
    with open(arg, "r", encoding="utf-8") as fh:
        return fh.read(), arg


def _load_graph(arg: str) -> StableGraph:
    import json

    def integer(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit: refused by its length
            raise ValueError(f"integer with {len(text.lstrip('-'))} digits out of range") from None

    text, name = _read_document(arg)
    try:
        return graph_from_doc(json.loads(text, parse_int=integer))
    except ValueError as exc:  # JSONDecodeError, an oversized integer, or a bad graph
        raise ValueError(f"{name}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply") from None


def _load_connected_graph(arg: str) -> StableGraph:
    graph = _load_graph(arg)
    if not graph.is_connected():
        raise DisconnectedGraphError("the dual graph of a curve must be connected")
    return graph


# Each handler returns its exit status and its output as a sequence of
# text chunks.  A census is built in full before its writer yields the
# first chunk, so every bound and input error comes before any output.


def _cmd_enumerate(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    census = enumerate_stable_graphs(args.g, args.m, max_dim=args.max_size, max_legs=args.max_m)
    return 0, census_chunks(census)


def _cmd_gamma_enumerate(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    fused = enumerate_gamma_strata(args.g, args.m, _group(args, args.m), max_dim=args.max_size)
    return 0, gamma_census_chunks(fused)


def _cmd_check_stability(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    report = check_stability(_load_graph(args.graph))
    lines = [
        f"genus={report.graph_genus} marks={report.marks}"
        f" nodes={report.nodes} dim={report.dim}"
    ]
    if report.violating_vertices:
        lines.append(
            "violating vertices: "
            + " ".join(f"v{v}" for v in report.violating_vertices)
        )
    if not report.stable_range:
        lines.append(f"outside stable range: 2g-2+m = {report.slack}")
    lines.append("STABLE" if report.valid else "UNSTABLE")
    return (0 if report.valid else 1), ["\n".join(lines) + "\n"]


def _cmd_canon(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    graph = _load_connected_graph(args.graph)
    if args.group is None:
        check_degree(graph.m, args.max_m)
        result = canonical_form(graph)
    else:
        result = gamma_canonical_form(graph, _group(args, graph.m))
    return 0, [dumps(graph_to_doc(result))]


def _cmd_split(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    graph = _load_connected_graph(args.graph)
    piece = split_component(graph, args.vertex)
    doc = {
        "format": SPLIT_FORMAT,
        "vertex": piece.vertex,
        "genus": piece.genus,
        "marks": piece.marks,
        "kept_labels": piece.marks - len(piece.interchangeable),
        "interchangeable": list(piece.interchangeable),
        "group": generator_text(piece.generators) if piece.marks else None,
        "stable": piece.stable,
        "graph": graph_to_doc(piece.graph),
    }
    return (0 if piece.stable else 1), [dumps(doc)]


def _cmd_verify_descent(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    text, name = _read_document(args.file)
    marking = parse_marking_document(text, name)
    report = verify_star(marking)
    return (0 if report.valid else 1), render_star_report(marking, report)


def _cmd_equiv_descent(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    first, second = _parse_marking_documents(
        _read_document(args.file1), _read_document(args.file2)
    )
    witness = equivalent(first, second)
    return (0 if witness is not None else 1), render_equivalence(witness)


def _cmd_verify_morphism(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    text, name = _read_document(args.file)
    morphism, source, target = parse_morphism_document(text, name)
    report = verify_morphism(morphism, source, target)
    return (0 if report.valid else 1), render_morphism_report(morphism, source, target, report)


def _cmd_quotient_table(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    table = build_quotient_table(args.g, args.m, _group(args, args.m), max_dim=args.max_size)
    return 0, [render_quotient_table(table)]


def _cmd_numerology(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    data = hilbert_numerology(args.g, args.n, args.m)
    return 0, [f"P(t)={data.polynomial_str()} N={data.ambient_dim} rank={data.rank}\n"]


def _arg(dest, *flags, integer=False, metavar=None, help=None, required=False, bound=None):
    """One argument of a subcommand: a positional without flags, a bound option with a bound."""
    return dest, flags, integer, metavar, help, required, bound


_OUTPUT = _arg(
    "output", "-o", "--output", metavar="PATH",
    help="write the output document to this file instead of stdout",
)
# Each bound option goes only to the subcommands that read it.
_MAX_SIZE = _arg(
    "max_size", "--max-size", integer=True, metavar="N", bound=DEFAULT_MAX_DIM,
    help=f"bound on 3g-3+m for enumeration (default {DEFAULT_MAX_DIM})",
)
_MAX_M = _arg(
    "max_m", "--max-m", integer=True, metavar="N", bound=MAX_PERM_DEGREE,
    help=f"bound on the number of leg labels (default {MAX_PERM_DEGREE})",
)
_MAX_ORDER = _arg(
    "max_group_order", "--max-group-order", integer=True, metavar="N", bound=MAX_GROUP_ORDER,
    help=f"bound on the order of label groups (default {MAX_PERM_DEGREE}!)",
)
_GROUP = _arg(
    "group", "--group", metavar="GENS",
    help='group generators in cycle notation, e.g. "(1 2),(3 4)";'
    " omitted means the trivial group",
)
_G, _N, _M = _arg("g", integer=True), _arg("n", integer=True), _arg("m", integer=True)
_GRAPH = _arg("graph", help="graph document (path or inline JSON)")
_MARKING = "marking document (path or inline text)"

# The command line, declared once: per subcommand its handler, its help
# line and its arguments in the order argparse lists them.
_COMMANDS = {
    "enumerate": (
        _cmd_enumerate,
        "list all stable graph classes for (g, m)",
        (_OUTPUT, _MAX_SIZE, _MAX_M, _G, _M),
    ),
    "gamma-enumerate": (
        _cmd_gamma_enumerate,
        "list graph classes for (g, m) fused under a label group",
        (_OUTPUT, _MAX_SIZE, _MAX_M, _MAX_ORDER, _G, _M, _GROUP),
    ),
    "check-stability": (
        _cmd_check_stability,
        "check a graph document for stability",
        (_OUTPUT, _GRAPH),
    ),
    "canon": (
        _cmd_canon,
        "canonical form of a graph, optionally up to a label group",
        (_OUTPUT, _MAX_M, _MAX_ORDER, _GRAPH, _GROUP),
    ),
    "split": (
        _cmd_split,
        "detach one vertex as a marked curve of its own",
        (_OUTPUT, _GRAPH, _arg("vertex", "--vertex", integer=True, metavar="V", required=True)),
    ),
    "verify-descent": (
        _cmd_verify_descent,
        "check chart compatibility of a marking document",
        (_OUTPUT, _arg("file", help=_MARKING)),
    ),
    "equiv-descent": (
        _cmd_equiv_descent,
        "decide whether two marking documents describe the same class",
        (_OUTPUT, _arg("file1", help=_MARKING), _arg("file2", help=_MARKING)),
    ),
    "verify-morphism": (
        _cmd_verify_morphism,
        "check a fiberwise map between two marking documents",
        (_OUTPUT, _arg("file", help="morphism document (path or inline text)")),
    ),
    "quotient-table": (
        _cmd_quotient_table,
        "labeled versus group-fused class counts per node count",
        (_OUTPUT, _MAX_SIZE, _MAX_M, _MAX_ORDER, _G, _M, _GROUP),
    ),
    "numerology": (
        _cmd_numerology,
        "Hilbert polynomial data of the n-canonical embedding",
        (_OUTPUT, _G, _N, _M),
    ),
}


def _reader(command: str, arguments: tuple) -> Callable[[Sequence[str]], SimpleNamespace | None]:
    """Read ``command``'s plain command lines into argparse's namespace.

    Plain means the subcommand, its positionals in order, then pairs of an
    exact flag and its value, where no positional or value starts with "-",
    every required option is given and every integer reads.  Any other
    command line gives None and is left to argparse.
    """
    positionals, options, defaults, required = [], {}, {"command": command}, []
    for dest, flags, integer, _, _, needed, bound in arguments:
        if not flags:
            positionals.append((dest, integer))
            continue
        defaults[dest] = bound
        options.update(dict.fromkeys(flags, (dest, integer)))
        if needed:
            required.append(dest)
    count = 1 + len(positionals)

    def read(argv: Sequence[str]) -> SimpleNamespace | None:
        if len(argv) < count or (len(argv) - count) % 2:
            return None
        pairs = list(zip(positionals, argv[1:count]))
        for i in range(count, len(argv), 2):
            option = options.get(argv[i])
            if option is None:
                return None
            pairs.append((option, argv[i + 1]))
        values = dict(defaults)
        for (dest, integer), text in pairs:
            if text.startswith("-"):
                return None
            if integer:
                try:
                    text = _read_int(dest, text)
                except ValueError:
                    return None
            values[dest] = text
        if any(values[dest] is None for dest in required):
            return None
        return SimpleNamespace(**values)

    return read


@functools.cache
def _build_parser() -> dict[str, Callable[[Sequence[str]], SimpleNamespace | None]]:
    # A constant of the program, compiled from the table once per process.
    return {command: _reader(command, spec[2]) for command, spec in _COMMANDS.items()}


@functools.cache
def _usage_parser():
    """argparse's reading of the table, for help, usage errors and the rest."""
    import argparse

    class Parser(argparse.ArgumentParser):  # its subparsers take this class too
        def error(self, message):
            raise ValueError(f"{self.prog}: {message}")

    # argparse reads sys.stdout and the terminal width only at --help: one parser serves all calls.
    def integer(text: str) -> int:
        """An integer argument, in the grammar of descent documents."""
        try:
            return _read_int("argument", text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None

    class Store(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if not isinstance(values, (str, int)):  # argparse reads "--flag=--" as []
                name = "/".join(self.option_strings) or self.dest
                parser.error(f"argument {name}: expected one argument")
            setattr(namespace, self.dest, values)

    parser = Parser(
        prog="graphstrata",
        description=(
            "Censuses of stable dual graphs, group quotients of their leg"
            " labelings, and verifiers for chart compatibility over finite"
            " covers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for command, (_, help_line, arguments) in _COMMANDS.items():
        add = functools.partial(sub.add_parser(command, help=help_line).add_argument, action=Store)
        for dest, flags, is_int, metavar, help_text, required, bound in arguments:
            shared = {"type": integer if is_int else None, "metavar": metavar, "help": help_text}
            if flags:
                add(*flags, dest=dest, required=required, default=bound, **shared)
            else:
                add(dest, **shared)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    read = _build_parser().get(argv[0]) if argv else None
    try:  # the lines the reader declines, help and usage errors, go to argparse
        args = (read and read(argv)) or _usage_parser().parse_args(argv, SimpleNamespace())
        for dest, flags, *_, bound in _COMMANDS[args.command][2]:  # before any input is read
            if bound and getattr(args, dest) < 1:
                raise ValueError(f"{flags[0]} must be positive, got {getattr(args, dest)}")
        status, chunks = _COMMANDS[args.command][0](args)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except SystemExit:  # --help, printed on stdout
        return 0
    except (OSError, ValueError) as exc:  # one line, whatever line breaks the input holds
        print(f"error: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
