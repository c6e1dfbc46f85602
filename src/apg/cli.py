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
walk them and find no cycles.  No verb leaves cyclic garbage: the argument
parser, which is cyclic, is built once per process, and every document is
written without json's indenting encoder.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from functools import cache
from itertools import islice

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


_SLICE = 1 << 16  # characters encoded per write call at most


def _discard(stream):
    """Point stream's descriptor at os.devnull after a failed write: what
    stays buffered goes nowhere, so the flush at exit cannot fail."""
    with suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _report(text: str):
    """Print text on standard error; a closed or failing one loses it, and
    the verb's own exit status stands."""
    if sys.stderr is None:  # print(file=None) would write to standard output
        return
    try:
        print(text, file=sys.stderr, flush=True)
    except (OSError, ValueError):
        _discard(sys.stderr)


@contextmanager
def _replacing(path: str):
    """A handle on a new file beside path's target, renamed over the target
    once the with block ends well and removed if it does not, so a failure
    at any point leaves the target as it was.  The new file gets the mode
    open(path, "w") would give it or the target's permission bits, and a
    symlink stays, with its target replaced.  An existing target that is no
    regular file (a device, a FIFO), or whose directory takes no new file,
    is written in place."""
    try:
        mode = os.stat(path).st_mode if os.path.basename(path) else 0  # "x/" is no regular file
    except FileNotFoundError:
        mode = None
    handle = None
    if mode is None or stat.S_ISREG(mode):
        if mode is not None:
            os.close(os.open(path, os.O_WRONLY))  # a target open(path, "w") refuses stays refused
        target = os.path.realpath(path) if os.path.islink(path) else path
        try:
            handle = open(os.path.join(os.path.dirname(target), f".apg-{os.urandom(6).hex()}.tmp"),
                          "x", encoding="utf-8")
        except PermissionError:  # a directory that takes no new file
            if mode is None:
                raise
    if handle is None:
        with open(path, "w", encoding="utf-8") as handle:  # where path is no file, fails as before
            yield handle
        return
    try:
        with handle:
            if mode is not None:
                os.chmod(handle.fileno(), stat.S_IMODE(mode))
            yield handle
        os.replace(handle.name, target)
    except BaseException:
        with suppress(OSError):
            os.remove(handle.name)
        raise


def _write(path: str, chunks):
    """Write the text that chunks make, each chunk as soon as it is made, at
    most _SLICE characters a call, to path or standard output ("-").  A
    failed write raises ParseError naming path, as a failed read does."""
    if path == "-" and sys.stdout is None:  # Python started with descriptor 1 closed
        raise ParseError("cannot write standard output: it is closed")
    try:
        with nullcontext(sys.stdout) if path == "-" else _replacing(path) as handle:
            for chunk in chunks:
                for start in range(0, len(chunk), _SLICE):
                    handle.write(chunk[start:start + _SLICE])
            handle.flush()
    except OSError as err:
        if path == "-":
            _discard(sys.stdout)
        raise ParseError(f"cannot write {_name(path, 'output')}: {err.strerror}") from None


def _lines(lines):
    """The text of lines, each ended by a line feed, in chunks of 1024 lines."""
    lines = iter(lines)
    while batch := list(islice(lines, 1024)):
        yield "\n".join(batch) + "\n"


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


# ---------------------------------------------------------------------------
# Subcommand bodies

def _cmd_validate(args) -> int:
    _read_graph(args.graph)  # a failing report reaches main as ValidationFailure
    _write("-", ["ok\n"])
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
        _report(f"no label {args.label!r} in the schema")
        return 1
    _write(args.out, _lines(lines))
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
    _write(args.out, files.graph_chunks(_construct(args.operation, args.inputs)))
    return 0


def _cmd_merge(args) -> int:
    if len(args.graphs) != 2:
        raise ParseError("merge takes two graphs")
    merged = integrate.merge_by_key(*map(_read_graph, args.graphs), key=args.key)
    _write(args.out, files.graph_chunks(merged))  # the inputs are freed before the write
    return 0


def _cmd_migrate(args) -> int:
    mapping = _read(args.mapping, files.read_mapping)
    # the data is validated as it is read, so not again in delta_migrate, and freed before the write
    migrated = migrate.delta_migrate(mapping, _read_graph(args.data), validate=False)
    _write(args.out, files.graph_chunks(migrated))
    return 0


def _cmd_export(args) -> int:
    graph = _read_graph(args.graph)
    if args.format == "rdf":
        _write(args.out, _lines(bridges.rdf_lines(graph)))
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
        _write(args.out, _lines(
            json.dumps({"key": files.value_to_json(k), "value": files.value_to_json(v)},
                       sort_keys=True, ensure_ascii=False)
            for k, v in pairs))
    return 0


def _cmd_import(args) -> int:
    schema = _read(args.schema, files.read_schema)
    graph = bridges.import_relational(bridges.read_tableset(args.directory), schema)
    _write(args.out, files.graph_chunks(graph))  # the tables are freed before the write
    return 0


def _cmd_fmt(args) -> int:
    graph = _read_graph(args.graph, validate=not args.no_validate)
    _write(args.out, files.graph_chunks(graph))
    return 0


# ---------------------------------------------------------------------------
# Argument wiring

class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own write would swallow a failure
        _write("-", [self.format_help()])


@cache  # built once per process: the parser is cyclic, and the collector is off
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(  # the docstring's last paragraph is not for users
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
        try:
            args = _parser().parse_args(argv)  # --help writes through _write
            if _stdin_inputs(args) > 1:
                raise ParseError("standard input can be read once: give '-' for one input at most")
            return globals()[args.run.__name__](args)  # looked up now, so a swapped verb runs
        except ValidationFailure as err:
            _report(err.report)
            return 1
        except ApgError as err:
            _report(f"error: {err}")
            return 2 if isinstance(err, ParseError) else 1
        except RecursionError:
            _report("error: input is nested too deeply to process")
            return 2


if __name__ == "__main__":
    sys.exit(main())
