"""Command-line front end.

One verb per capability: validate, classify, op (the categorical
constructions), merge, migrate, export, import, fmt.  File arguments accept
"-" for standard input (in one input at most) or output.  Exit status is 0 on
success, 1 when data fails validation, 2 for usage or parse problems (input
nested deeper than the interpreter's recursion limit among them); diagnostics
go to stderr and data to stdout.

main runs with CPython's cyclic garbage collector off (files.collector_paused)
and gives the caller's setting back however it ends.  Values, ids and graphs
are trees whose references name elements by id, so the collector would only
walk them and find no cycles; what garbage a verb does leave (argparse's
parser, the JSON encoder of a write) grows with neither elements nor labels.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext, suppress

from . import bridges, catops, files, integrate, migrate, taxonomy
from .errors import ApgError, InvalidJSON, ParseError, ValidationFailure
from .graph import Graph


def _name(path: str, stream: str = "input") -> str:
    return f"standard {stream}" if path == "-" else path


def _read_text(path: str) -> str:
    """The bytes of path, or of standard input for "-", decoded once as
    strict UTF-8, each line end read as a line feed, as in a text file."""
    if path == "-" and sys.stdin is None:  # Python started with descriptor 0 closed
        raise ParseError("cannot read standard input: it is closed")
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror}") from None
    text = files.decode_utf8(data, _name(path))
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


_SLICE = 1 << 16  # characters encoded per write, so no second full copy of the text exists


def _write_text(path: str, text: str):
    """Write text whole; a file is opened only now, once its text exists.  A
    failed write raises ParseError, as a failed read does."""
    if path == "-" and sys.stdout is None:  # Python started with descriptor 1 closed
        raise ParseError("cannot write standard output: it is closed")
    try:
        with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), _SLICE):
                handle.write(text[start:start + _SLICE])
            handle.flush()
    except OSError as err:
        if path == "-":  # what stays buffered goes nowhere, so the flush at exit cannot fail
            with suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ParseError(f"cannot write {_name(path, 'output')}: {err.strerror}") from None


def _read(path: str, read, *args):
    """read(text, *args) on the text of path; invalid JSON names the file."""
    try:
        return read(_read_text(path), *args)
    except InvalidJSON as err:
        raise ParseError(f"{_name(path)}: {err}") from None


def _read_graph(path: str, validate: bool = True) -> Graph:
    return _read(path, files.read_graph, validate)


def _stdin_inputs(args) -> int:
    """How many of the command's input files are "-", standard input."""
    names = ("graph", "mapping", "data", "schema")
    one = [getattr(args, name, None) for name in names]
    return (one + getattr(args, "inputs", []) + getattr(args, "graphs", [])).count("-")


def _strict_mode() -> bool:
    return os.environ.get("APG_STRICT_TAXONOMY", "1") != "0"


def _emit_graph(graph: Graph, out: str):
    _write_text(out, files.write_graph(graph))


# ---------------------------------------------------------------------------
# Subcommand bodies

def _cmd_validate(args) -> int:
    _read_graph(args.graph)  # a failing report reaches main as ValidationFailure
    _write_text("-", "ok\n")
    return 0


def _cmd_classify(args) -> int:
    graph = _read_graph(args.graph)
    kinds = taxonomy.classify_graph(graph.schema, strict=_strict_mode())
    lines = []
    for label in graph.schema.sorted_labels():
        if args.label is not None and label != args.label:
            continue
        lines.append(f"{label}\t{taxonomy.describe(kinds[label])}")
    if args.label is not None and not lines:
        print(f"no label {args.label!r} in the schema", file=sys.stderr)
        return 1
    _write_text(args.out, "".join(line + "\n" for line in lines))
    return 0


# operation -> (the words of its usage error, how many graphs come first,
#               the (source, target) graph index of each morphism read after them)
_OPS = {
    "product": ("two graph files", 2, ()),
    "coproduct": ("two graph files", 2, ()),
    "equalizer": ("SOURCE TARGET H J", 2, ((0, 1), (0, 1))),
    "coequalizer": ("SOURCE TARGET H J", 2, ((0, 1), (0, 1))),
    "pushout": ("APEX LEFT RIGHT F G", 3, ((0, 1), (0, 2))),
}


def _construct(operation: str, inputs: list) -> Graph:
    """The graph the construction builds from its input files; the inputs and
    the construction's legs are freed once it returns, before the write."""
    words, count, legs = _OPS[operation]
    if len(inputs) != count + len(legs):
        raise ParseError(f"op {operation} takes {words}")
    graphs = [_read_graph(path) for path in inputs[:count]]
    morphisms = [_read(path, files.read_morphism, graphs[source], graphs[target])
                 for path, (source, target) in zip(inputs[count:], legs)]
    return getattr(catops, operation)(*(morphisms or graphs)).graph  # looked up now: a tracer swaps it


def _cmd_op(args) -> int:
    _emit_graph(_construct(args.operation, args.inputs), args.out)
    return 0


def _cmd_merge(args) -> int:
    if len(args.graphs) != 2:
        raise ParseError("merge takes two graphs")
    g1, g2 = map(_read_graph, args.graphs)
    merged = integrate.merge_by_key(g1, g2, key=args.key)
    _emit_graph(merged, args.out)
    return 0


def _cmd_migrate(args) -> int:
    mapping = _read(args.mapping, files.read_mapping)
    data = _read_graph(args.data)  # validated here, so not again in delta_migrate
    _emit_graph(migrate.delta_migrate(mapping, data, validate=False), args.out)
    return 0


def _cmd_export(args) -> int:
    graph = _read_graph(args.graph)
    if args.format == "rdf":
        _write_text(args.out, bridges.export_rdf(graph))
    elif args.format == "relational":
        if args.out in (None, "-"):
            raise ParseError("export relational writes a directory; give --out DIR")
        tables = bridges.export_relational(graph)
        try:
            bridges.write_tableset(tables, args.out)
        except OSError as err:
            raise ParseError(f"cannot write {err.filename or args.out}: {err.strerror}") from None
    else:
        if args.label is None:
            raise ParseError("export kv needs --label")
        pairs = bridges.export_kv(graph, args.label)
        text = "".join(
            json.dumps(
                {"key": files.value_to_json(k), "value": files.value_to_json(v)},
                sort_keys=True,
                ensure_ascii=False,
            )
            + "\n"
            for k, v in pairs
        )
        _write_text(args.out, text)
    return 0


def _cmd_import(args) -> int:
    schema = _read(args.schema, files.read_schema)
    graph = bridges.import_relational(bridges.read_tableset(args.directory), schema)
    _emit_graph(graph, args.out)  # the tables are freed before the write
    return 0


def _cmd_fmt(args) -> int:
    graph = _read_graph(args.graph, validate=not args.no_validate)
    _emit_graph(graph, args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(  # the docstring's last paragraph is not for users
        prog="apg", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(p):
        p.add_argument("-o", "--out", default="-", help="output file, - for stdout")

    p = sub.add_parser("validate", help="check a graph against its schema")
    p.add_argument("graph")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("classify", help="classify each label's shape")
    p.add_argument("graph")
    p.add_argument("--label", help="restrict to one label")
    out_flag(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("op", help="categorical constructions")
    p.add_argument("operation", choices=list(_OPS))
    p.add_argument("inputs", nargs="*",
                   help="graphs, then morphism files where the operation needs them")
    out_flag(p)
    p.set_defaults(run=_cmd_op)

    p = sub.add_parser("merge", help="key-based merge of two graphs on one schema")
    p.add_argument("graphs", nargs="*")
    p.add_argument("--key", help="key path such as fst or fst.snd (whole value when absent)")
    out_flag(p)
    p.set_defaults(run=_cmd_merge)

    p = sub.add_parser("migrate", help="migrate data backward along a schema mapping")
    p.add_argument("mapping")
    p.add_argument("data", nargs="?", default="-")
    out_flag(p)
    p.set_defaults(run=_cmd_migrate)

    p = sub.add_parser("export", help="views in other data models")
    p.add_argument("format", choices=["rdf", "relational", "kv"])
    p.add_argument("graph")
    p.add_argument("--label", help="label for the key-value view")
    out_flag(p)
    p.set_defaults(run=_cmd_export)

    p = sub.add_parser("import", help="rebuild a graph from exported tables")
    p.add_argument("format", choices=["relational"])
    p.add_argument("directory")
    p.add_argument("--schema", required=True, help="graph or schema file supplying the labels")
    out_flag(p)
    p.set_defaults(run=_cmd_import)

    p = sub.add_parser("fmt", help="canonicalize a graph document")
    p.add_argument("graph")
    p.add_argument("--no-validate", action="store_true")
    out_flag(p)
    p.set_defaults(run=_cmd_fmt)

    return parser


def main(argv=None) -> int:
    with files.collector_paused():  # see the last paragraph of the module docstring
        args = _parser().parse_args(argv)
        try:
            if _stdin_inputs(args) > 1:
                raise ParseError("standard input can be read once: give '-' for one input at most")
            return args.run(args)
        except ValidationFailure as err:
            print(err.report, file=sys.stderr)
            return 1
        except ParseError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except ApgError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        except RecursionError:
            print("error: input is nested too deeply to process", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
