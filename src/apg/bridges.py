"""Views of a graph in other data models.

Three one-way or round-trip bridges:

* N-Triples export: one rdf:type triple per element plus one triple per leaf
  of its stored value, with the access path (fst/snd/inl/inr) spelled into
  the predicate.
* Relational shredding: one table per label, one column per leaf position of
  the declared type, discriminator columns for sums.  Importing the tables
  against the same schema reproduces the graph exactly, ids included.
* Key-value view: (first, second) pairs of a product-typed label, once the
  first components are known to be unique.

A label's type fixes the leaf positions of its values, so both of the first
two bridges read one layout per label, built once from the declared type by
_layout: column names and RDF predicates are both spelled from the access
path it fixes, and no row or element re-walks the type for names.
"""

from __future__ import annotations

import csv
import json
import urllib.parse
from itertools import zip_longest

from .adt import (
    ElementId,
    IdTable,
    Inl,
    Inr,
    Lbl,
    One,
    Pair,
    Prim,
    PrimVal,
    Prod,
    Record,
    Ref,
    TypeExpr,
    Unit,
    Value,
    Zero,
    _IDS,
    parse_id,
    render_id,
)
from .errors import InvalidJSON, ParseError, PreconditionError, ValidationFailure
from .files import _text, decode_utf8, load_json
from .graph import Element, Graph, Schema, check_primary_key, validate_graph

# ---------------------------------------------------------------------------
# RDF

_RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_UNIT_IRI = "<apg:unit>"


def _quote(text: str) -> str:
    return urllib.parse.quote(text, safe="")


def _element_iri(e: ElementId) -> str:
    return f"<apg:e/{_quote(render_id(e))}>"


def _escape_literal(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return out


# kind -> the N-Triples object of a literal of that domain
_LITERAL_NODE = {
    "string": lambda literal: f'"{_escape_literal(literal)}"',
    "boolean": lambda literal: f'"{"true" if literal else "false"}"^^<{_XSD}boolean>',
    "nat": lambda literal: f'"{literal}"^^<{_XSD}nonNegativeInteger>',
    "integer": lambda literal: f'"{literal}"^^<{_XSD}integer>',
    "double": lambda literal: f'"{literal!r}"^^<{_XSD}double>',
}


def rdf_lines(graph: Graph) -> list[str]:
    """The N-Triples lines of a valid graph, sorted, without line feeds.

    Every element contributes 1 + (number of leaves of its value) triples:
    the type triple, then one triple per unit, literal, or reference leaf,
    addressed by access path.  A bare unit value (a vertex) still emits its
    one marker triple, so vertices are visible beyond rdf:type.
    """
    schema = graph.schema
    iris = {e: _element_iri(e) for e in graph.elements}  # a reference elsewhere is quoted as met
    plans = {label: (f" {_RDF_TYPE} <apg:l/{_quote(label)}> .",
                     _layout(t, "", label, schema.registry,
                             lambda e: iris.get(e) or _element_iri(e))[3])
             for label, t in schema.labels.items()}
    lines = []
    for e, el in graph.elements.items():
        subject = iris[e]
        typed, triples = plans[el.label]
        lines.append(subject + typed)
        triples(el.value, subject, lines)
    lines.sort()
    return lines


def export_rdf(graph: Graph) -> str:
    """Serialize a valid graph to sorted N-Triples: rdf_lines, each ended by
    a line feed."""
    lines = rdf_lines(graph)
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Relational

class Column(Record):
    """kind is one of id, prim, fk, disc; target names the primitive type or
    the referenced label where that applies."""

    __slots__ = {"name": "str", "kind": "str", "target": "Optional[str]"}
    _defaults = {"target": lambda: None}


class Table(Record, frozen=False):
    __slots__ = {"label": "str", "columns": "list[Column]",
                 "rows": "list[tuple[ElementId, dict[str, object]]]"}
    _defaults = {"rows": list}


class TableSet(Record, frozen=False):
    __slots__ = {"tables": "dict[str, Table]"}


def _layout(t: TypeExpr, name: str, label: str, registry, iri=_element_iri):
    """(columns, shred, rebuild, triples) for values of type t whose cells
    start at name; iri(e) is the IRI a reference leaf to e is written as.

    shred(v, cells) stores the leaves of v, and the cells a row may hold are
    the cells shred writes of the value it stands for; rebuild(cells) reads a
    value back and raises ParseError on a row that misses or misfits a cell;
    triples(v, subject, lines) appends the N-Triples line of each leaf of v.
    A column is named by its access path joined with dots, a sum's
    discriminator by that path plus "#", and a leaf's predicate by the label
    and that path joined with slashes; names, predicates, literal forms and
    error locations are fixed here, once per label, not per row.
    """
    spot = name or "root"
    predicate = f" <apg:p/{_quote(label)}{'/' if name else ''}{name.replace('.', '/')}> "
    if isinstance(t, (One, Zero)):
        def rebuild(cells):
            if isinstance(t, Zero):
                raise ParseError(f"{label!r} declares an uninhabited position at {spot}")
            return Unit()

        def triples(v, subject, lines):
            lines.append(f"{subject}{predicate}{_UNIT_IRI} .")
        return [], lambda v, cells: None, rebuild, triples
    if isinstance(t, (Prim, Lbl)):
        kind, leaf = ("fk", "element") if isinstance(t, Lbl) else ("prim", "literal")
        node = iri if isinstance(t, Lbl) else _LITERAL_NODE.get(
            t.name in registry and registry.kind(t.name))  # None in an invalid schema

        def shred(v, cells):
            cells[name] = getattr(v, leaf)

        def rebuild(cells):
            if name not in cells:
                raise ParseError(f"missing {spot} cell in a {label!r} row")
            cell = cells[name]
            if isinstance(t, Lbl):
                cell = parse_id(cell) if isinstance(cell, str) else cell
                if not isinstance(cell, _IDS):
                    raise ParseError(f"cell {spot} of {label!r} is not an element id")
                return Ref(cell)
            literal = registry.coerce(t.name, cell)
            if not registry.check_literal(t.name, literal):
                raise ParseError(f"cell {spot} of {label!r} is not a {t.name}")
            return PrimVal(t.name, literal)

        def triples(v, subject, lines):
            lines.append(f"{subject}{predicate}{node(getattr(v, leaf))} .")
        return [Column(name, kind, t.name)], shred, rebuild, triples

    steps = ("fst", "snd") if isinstance(t, Prod) else ("inl", "inr")
    ((left_columns, shred_left, rebuild_left, triples_left),
     (right_columns, shred_right, rebuild_right, triples_right)) = (
        _layout(part, f"{name}.{step}" if name else step, label, registry, iri)
        for part, step in zip((t.left, t.right), steps)
    )
    if isinstance(t, Prod):
        def shred(v, cells):
            shred_left(v.first, cells)
            shred_right(v.second, cells)

        def rebuild(cells):
            return Pair(rebuild_left(cells), rebuild_right(cells))

        def triples(v, subject, lines):
            triples_left(v.first, subject, lines)
            triples_right(v.second, subject, lines)
        return left_columns + right_columns, shred, rebuild, triples

    disc = name + "#"

    def shred(v, cells):
        left = isinstance(v, Inl)
        cells[disc] = "l" if left else "r"
        (shred_left if left else shred_right)(v.inner, cells)

    def rebuild(cells):
        if disc not in cells:
            raise ParseError(f"missing discriminator {disc} in a {label!r} row")
        side = cells[disc]
        if side == "l":
            return Inl(rebuild_left(cells))
        if side == "r":
            return Inr(rebuild_right(cells))
        raise ParseError(f"discriminator {disc} of {label!r} must be 'l' or 'r', not {side!r}")

    def triples(v, subject, lines):
        (triples_left if isinstance(v, Inl) else triples_right)(v.inner, subject, lines)
    return [Column(disc, "disc")] + left_columns + right_columns, shred, rebuild, triples


def export_relational(graph: Graph) -> TableSet:
    """Shred into one table per label.

    Columns follow the leaf positions of the declared type; a sum contributes
    a discriminator column (values "l"/"r") plus the columns of both branches,
    with the inactive branch left empty.
    """
    tables = {}
    schema = graph.schema
    for label in schema.sorted_labels():
        columns, shred, _, _ = _layout(schema.labels[label], "", label, schema.registry)
        table = Table(label, [Column("id", "id")] + columns)
        for e in graph.ids_of(label):
            cells: dict[str, object] = {}
            shred(graph.elements[e].value, cells)
            table.rows.append((e, cells))
        tables[label] = table
    return TableSet(tables)


def _spec(column: Column | None) -> str:
    if column is None:
        return "none"
    target = "" if column.target is None else f" {column.target}"
    return f"{column.name!r} ({column.kind}{target})"


def import_relational(tables: TableSet, schema: Schema) -> Graph:
    """Rebuild a graph from shredded tables; exact inverse of export.

    Raises ParseError for structural problems (missing discriminators, cells
    in inactive branches, type mismatches) and ValidationFailure when the
    rebuilt graph does not validate (for instance a dangling foreign key).
    """
    elements: dict[ElementId, Element] = {}
    for label in sorted(tables.tables):
        if label not in schema.labels:
            raise ParseError(f"table {label!r} has no declared label")
        columns, shred, rebuild, _ = _layout(schema.labels[label], "", label, schema.registry)
        for have, want in zip_longest(tables.tables[label].columns, [Column("id", "id")] + columns):
            if have != want:
                raise ParseError(f"table {label!r}: the manifest has column {_spec(have)} "
                                 f"where the schema gives {_spec(want)}")
        for e, cells in tables.tables[label].rows:
            value, held = rebuild(cells), {}
            shred(value, held)  # the cells value occupies, each one rebuild read
            if len(cells) > len(held):
                raise ParseError(f"row {render_id(e)} of {label!r} has cells outside "
                                 f"its active branches: {', '.join(sorted(cells.keys() - held))}")
            if e in elements:
                raise ParseError(f"duplicate id {render_id(e)}")
            elements[e] = Element(label, value)
    graph = Graph(schema, elements)
    report = validate_graph(graph)
    if not report.ok:
        raise ValidationFailure(report)
    return graph


# ---------------------------------------------------------------------------
# CSV serialization of table sets

# kind -> (write, read): how a cell of each column kind becomes CSV text and
# is read back.  Id and foreign-key cells read through the table set's one
# IdTable, so an id named in several tables is parsed once.
_CELLS = {
    "id": (render_id, lambda ids, text: ids[text]),
    "fk": (render_id, lambda ids, text: ids[text]),
    "disc": (str, lambda ids, text: text),
    "prim": (json.dumps, lambda ids, text: load_json(text)),
}


def write_tableset(tables: TableSet, directory):
    """One CSV file per table plus a manifest describing the columns.

    Cells are JSON-encoded scalars for primitive columns and rendered ids for
    foreign keys; an empty field is an absent cell (inactive sum branch).
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for label in sorted(tables.tables):
        table = tables.tables[label]
        # _quote never writes a "%75" (u is unreserved), so no two labels share a file
        filename = {"": "unlabeled", "unlabeled": "%75nlabeled"}.get(label, _quote(label)) + ".csv"
        manifest[label] = {
            "file": filename,
            "columns": [
                {"name": c.name, "kind": c.kind}
                | ({"target": c.target} if c.target is not None else {})
                for c in table.columns
            ],
        }
        with open(directory / filename, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([c.name for c in table.columns])
            for e, cells in table.rows:
                row = []
                for c in table.columns:
                    write = _CELLS[c.kind][0]
                    if c.kind == "id":
                        row.append(write(e))
                    else:
                        row.append(write(cells[c.name]) if c.name in cells else "")
                writer.writerow(row)
    with open(directory / "manifest.json", "w", encoding="utf-8") as handle:
        handle.write(_text(manifest) + "\n")


def read_tableset(directory) -> TableSet:
    """The table set write_tableset wrote; a malformed or unreadable manifest
    entry or table, or one whose file is not a plain name, raises ParseError."""
    from pathlib import Path

    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ParseError(f"no manifest.json in {directory}")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = load_json(handle.read())
    except OSError as err:
        raise ParseError(f"cannot read {manifest_path}: {err.strerror}") from None
    except InvalidJSON as err:
        raise ParseError(f"bad manifest: {err}") from None
    except UnicodeDecodeError:  # worded as every other input: by its byte in the file
        decode_utf8(manifest_path.read_bytes(), "bad manifest")
        raise
    if not isinstance(manifest, dict):
        raise ParseError("bad manifest: it must be an object of table entries")
    tables = {}
    ids = IdTable()  # foreign keys name ids of other tables
    for label, spec in manifest.items():
        if not (isinstance(spec, dict) and isinstance(spec.get("file"), str)
                and isinstance(spec.get("columns"), list)):
            raise ParseError(f"bad manifest: entry {label!r} needs a string file "
                             f"and a list of columns")
        if spec["file"] in ("", ".", "..") or Path(spec["file"]).name != spec["file"]:
            raise ParseError(f"bad manifest: entry {label!r} names file {spec['file']!r}, "
                             f"which is not a file name in {directory}")
        if not all(isinstance(c, dict) and isinstance(c.get("name"), str)
                   and isinstance(c.get("kind"), str) for c in spec["columns"]):
            raise ParseError(f"bad manifest: each column of entry {label!r} needs "
                             f"a string name and kind")
        if not all(c["kind"] in _CELLS and isinstance(c.get("target", ""), str)
                   for c in spec["columns"]):
            raise ParseError(f"bad manifest: each column of entry {label!r} is of kind "
                             f"id, prim, fk or disc, with a string target if any")
        columns = [
            Column(c["name"], c["kind"], c.get("target")) for c in spec["columns"]
        ]
        table = Table(label, columns)
        path = directory / spec["file"]
        try:
            with open(path, encoding="utf-8", newline="") as handle:
                _read_rows(csv.reader(handle), spec["file"], table, ids)
        except OSError as err:
            raise ParseError(f"cannot read {spec['file']}: {err.strerror}") from None
        except UnicodeDecodeError:  # its offset counts from a decoder chunk: find the file's
            decode_utf8(path.read_bytes(), f"bad table {spec['file']}")
            raise
        except csv.Error as err:
            raise ParseError(f"bad table {spec['file']}: {err}") from None
        tables[label] = table
    return TableSet(tables)


def _read_rows(reader, filename: str, table: Table, ids: IdTable):
    columns = table.columns
    header = next(reader, None)
    if header != [c.name for c in columns]:
        raise ParseError(f"header of {filename} does not match the manifest")
    for number, row in enumerate(reader, 1):
        if len(row) != len(columns):
            raise ParseError(f"ragged row in {filename}")
        eid = None
        cells: dict[str, object] = {}
        for text, column in zip(row, columns):
            if text == "" and column.kind != "id":
                continue
            try:
                cell = _CELLS[column.kind][1](ids, text)
            except ParseError as err:  # from the id parser, or the JSON one for a primitive
                what = "cell" if isinstance(err, InvalidJSON) else f"id {text!r}"
                raise ParseError(f"bad {what} in {filename} row {number}, "
                                 f"column {column.name}: {err.args[0]}") from None
            if column.kind == "id":
                eid = cell
            else:
                cells[column.name] = cell
        if eid is None:
            raise ParseError(f"row without id in {filename}")
        table.rows.append((eid, cells))


# ---------------------------------------------------------------------------
# Key-value

def export_kv(graph: Graph, label: str) -> list[tuple[Value, Value]]:
    """(first, second) pairs of a product-typed label, in canonical id order.

    The first components must be unique across the label's elements; the
    violating pairs are reported otherwise.
    """
    violations = check_primary_key(graph, label)
    if violations:
        listed = "; ".join(f"{render_id(a)} vs {render_id(b)}" for a, b in violations)
        raise PreconditionError(f"first components of {label!r} are not unique: {listed}")
    out = []
    for e in graph.ids_of(label):
        value = graph.elements[e].value
        out.append((value.first, value.second))
    return out
