"""Reading and writing the native JSON document formats.

A graph document looks like

    {"primitives": [...],
     "schema": {"<label>": "<type expression>"},
     "elements": {"<id>": {"label": "<label>", "value": <V>}}}

where <V> is exactly one of {"unit": {}}, {"pair": [V, V]}, {"inl": V},
{"inr": V}, {"prim": {"type": "<name>", "value": <literal>}}, {"ref": "<id>"}.
Missing top-level keys mean empty (and the default primitive registry), so
"{}" is the empty graph.  Writing is canonical: sorted keys, two-space
indent, UTF-8 without escapes, trailing newline.

Reading a graph builds each value while json.loads runs, as the parser
closes its object, so no tree of the JSON document is held; the graph's one
conformance pass, each label's checker built once from its type, then
checks the values and the labels their references land on.  A document
that does not fit, or whose graph has any finding, is decoded again the
plain way, form by form, with validate_graph writing the report, so bad
input fails as it always did.  Each distinct id text is parsed once and
gets one Ref per document, whose element is the very object that keys the
element.  The plain decode passes each place inside a value down as a
chain, written out ("elements.e1.value.snd.inl") only where a fault raises.
Reading a schema drops each element as the parser closes it.

Writing streams batches of whole elements.  Labels whose types have one
shape, the type with its names erased, share one emitter, compiled from the
shape once enough values take it to repay the compile: one class test per
node of the type and one branch per side of each sum.  A value that misfits
its shape, or whose label has no emitter, is written node by node.

Morphism documents carry {"onLabels", "onElements"} and are interpreted
against explicitly supplied source and target graphs.  Mapping documents
carry two schemas plus {"onLabels", "onTerms"} with type expressions and
terms as text.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from collections import Counter
from itertools import count, islice
from operator import attrgetter

from .adt import (
    DEFAULT_KINDS,
    DEFAULT_REGISTRY,
    IdTable,
    Inl,
    Inr,
    Lbl,
    One,
    Pair,
    Prim,
    PrimRegistry,
    PrimVal,
    Prod,
    Ref,
    Sum,
    Unit,
    Value,
    parse_id,
    parse_type,
    render_id,
    render_type,
    type_nodes,
    unwind_path,
)
from .errors import InvalidJSON, ParseError, ValidationFailure
from .graph import Element, Graph, Schema, conformance, validate_graph, validate_schema
from .migrate import SchemaMapping, parse_term, render_term, typecheck_mapping
from .morphism import Morphism, check_morphism


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_SURROGATE = re.compile("[\ud800-\udfff]")


def decode_utf8(data: bytes, where: str) -> str:
    """data as strict UTF-8 text; other bytes raise a ParseError that says
    where, and at which byte of data."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{where}: not UTF-8 text at byte {err.start}: {err.reason}") from None


class collector_paused:
    """A with-block that runs with CPython's cyclic garbage collector off and
    restores the caller's setting on every way out.  apg's values, ids and
    graphs are finite trees, whose references name elements by id, so they
    hold no reference cycles: the collector's passes over them find nothing.
    A class, not a generator, because it is entered once per table cell."""

    __slots__ = ("collecting",)

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.collecting:
            gc.enable()


def load_json(text: str, hook=None):
    """The document of a JSON text, each object passed through hook when
    given.  Its strings must hold Unicode text, as I-JSON (RFC 7493)
    asks: no UTF-8 output can hold a lone surrogate such as "\\ud800", so
    one is rejected here, by the line and column of its string.  Only a
    text with a surrogate escape has its strings decoded one by one."""
    try:
        with collector_paused():
            doc = json.loads(text, object_hook=hook)
        if _SURROGATE_ESCAPE.search(text):
            for string in _STRING.finditer(text):
                if _SURROGATE.search(json.loads(string.group())):
                    raise json.JSONDecodeError("lone surrogate in a string", text, string.start())
    except json.JSONDecodeError as err:
        raise InvalidJSON(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}",
            err.pos,
        ) from None
    except ValueError:  # CPython's limit on the digits of an int
        raise InvalidJSON(f"invalid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    return doc


def _expect_object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Primitive registry

def registry_to_json(registry: PrimRegistry) -> list:
    out = []
    for name, kind in registry.items():
        if DEFAULT_KINDS.get(name) == kind:
            out.append(name)
        else:
            out.append({"name": name, "kind": kind})
    return out


def registry_from_json(raw, where: str = "primitives") -> PrimRegistry:
    if raw is None:
        return DEFAULT_REGISTRY
    if not isinstance(raw, list):
        raise ParseError(f"{where} must be a list")
    kinds = {}
    for entry in raw:
        if isinstance(entry, str):
            if entry not in DEFAULT_KINDS:
                raise ParseError(f"{where}: {entry!r} is not a stock primitive; "
                                 f"spell it as {{\"name\", \"kind\"}}")
            kinds[entry] = DEFAULT_KINDS[entry]
        elif (
            isinstance(entry, dict)
            and set(entry) == {"name", "kind"}
            and isinstance(entry["name"], str)
            and isinstance(entry["kind"], str)
        ):
            kinds[entry["name"]] = entry["kind"]
        else:
            raise ParseError(f"{where}: entries are names or {{\"name\", \"kind\"}} objects")
    try:
        return PrimRegistry(kinds)
    except ParseError as err:
        raise ParseError(f"{where}: {err}") from None


# ---------------------------------------------------------------------------
# Values

def value_to_json(v: Value):
    if isinstance(v, Unit):
        return {"unit": {}}
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.first), value_to_json(v.second)]}
    if isinstance(v, (Inl, Inr)):
        return {"inl" if isinstance(v, Inl) else "inr": value_to_json(v.inner)}
    if isinstance(v, PrimVal):
        return {"prim": {"type": v.prim, "value": v.literal}}
    return {"ref": render_id(v.element)}


def _value(raw, registry: PrimRegistry, ids: IdTable, place: tuple) -> Value:
    """The value of raw at place, a chain as unwind_path reads it, rooted at
    ("elements.e1.value", ()); a fault raises ParseError naming where it is."""
    if not isinstance(raw, dict) or len(raw) != 1:
        raise _fault(place, "a value is an object with exactly one of unit/pair/inl/inr/prim/ref")
    (form, body), = raw.items()
    if form == "ref":
        if not isinstance(body, str):
            raise _fault(place, "ref carries an id string")
        try:
            return Ref(ids[body])
        except ParseError as err:
            raise _fault(place, err) from None
    if form == "pair":
        if not isinstance(body, list) or len(body) != 2:
            raise _fault(place, "pair carries a two-element list")
        return Pair(_value(body[0], registry, ids, ("fst", place)),
                    _value(body[1], registry, ids, ("snd", place)))
    if form == "prim":
        if not isinstance(body, dict) or len(body) != 2 or "type" not in body or "value" not in body:
            raise _fault(place, 'prim carries {"type", "value"}')
        name = body["type"]
        if not isinstance(name, str):
            raise _fault(place, "primitive type name must be a string")
        return PrimVal(name, registry.coerce(name, body["value"]))
    if form == "unit":
        if body != {}:
            raise _fault(place, "unit carries an empty object")
        return Unit()
    if form == "inl" or form == "inr":
        inner = _value(body, registry, ids, (form, place))
        return Inl(inner) if form == "inl" else Inr(inner)
    raise _fault(place, f"unknown value form {form!r}")


def _fault(place: tuple, message) -> ParseError:
    return ParseError(f"{'.'.join(unwind_path(place))}: {message}")


# ---------------------------------------------------------------------------
# Schemas and graphs

def schema_to_json(schema: Schema) -> dict:
    return {
        "primitives": registry_to_json(schema.registry),
        "schema": {l: render_type(t) for l, t in schema.labels.items()},
    }


def schema_from_json(doc: dict, where: str = "") -> Schema:
    prefix = where + "." if where else ""
    registry = registry_from_json(doc.get("primitives"), prefix + "primitives")
    raw = doc.get("schema", {})
    labels = _texts(raw, prefix + "schema", "type expressions are strings",
                    lambda text: parse_type(text, raw, registry))
    return Schema(labels, registry)


def _texts(raw, where: str, what: str, parse) -> dict:
    """parse applied to each text of the object raw, in label order; a
    fault names where and the label, and what says what the texts are."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where} must be an object")
    out = {}
    for label in sorted(raw):
        if not isinstance(raw[label], str):
            raise ParseError(f"{where}.{label}: {what}")
        try:
            out[label] = parse(raw[label])
        except ParseError as err:
            raise ParseError(f"{where}.{label}: {err}") from None
    return out


def graph_to_json(graph: Graph) -> dict:
    doc = schema_to_json(graph.schema)
    doc["elements"] = {
        render_id(e): {
            "label": el.label,
            "value": value_to_json(el.value),
        }
        for e, el in graph.elements.items()
    }
    return doc


def graph_from_json(doc: dict, validate: bool = False, ids: IdTable | None = None) -> Graph:
    """The graph of a document load_json decoded, or, given ids, of one that
    _builder built through ids, which raises ParseError unless it conforms (a
    double's int literal, which the plain read makes a float, never does).
    With validate, an invalid graph raises ValidationFailure."""
    _expect_object(doc, "graph document")
    schema = schema_from_json(doc)
    raw = doc.get("elements", {})
    if not isinstance(raw, dict):
        raise ParseError("elements must be an object")
    built, ids = ids is not None, IdTable() if ids is None else ids
    elements = {}
    for id_text in sorted(raw):
        try:
            e = ids[id_text]
        except ParseError as err:
            raise ParseError(f"elements.{id_text}: {err}") from None
        entry = raw[id_text]
        if not built:
            _reject_entry(entry, f"elements.{id_text}")
            entry = Element(entry["label"], _value(entry["value"], schema.registry, ids,
                                                   (f"elements.{id_text}.value", ())))
        elif type(entry) is not Element:
            raise ParseError(f"elements.{id_text}: not a well-formed entry")
        elements[e] = entry
    if len(elements) != len(raw):
        _reject_equal_ids(raw, "elements")
    graph = Graph(schema, elements)
    if built and conformance(graph):
        raise ParseError("a built value does not conform")
    if validate:
        report = validate_schema(schema) if built else validate_graph(graph)
        if not report.ok:
            raise ValidationFailure(report)
    return graph


def _builder(ids: IdTable):
    """The object_hook that builds each value form, one Ref per id text
    through ids, and an Element of each {"label", "value"}; literals stay as
    parsed.  Any other object stays a dict: the hook never raises."""
    refs: dict[str, Ref] = {}
    unit, values = Unit(), frozenset({Unit, Pair, Inl, Inr, PrimVal, Ref})

    def build(obj):
        if len(obj) == 1:
            form, = obj
            body = obj[form]
            kind = type(body)
            if kind is str and form == "ref":
                if body not in refs:
                    try:
                        refs[body] = Ref(ids[body])
                    except ParseError:
                        return obj
                return refs[body]
            if kind in values and form in ("inl", "inr"):
                return Inl(body) if form == "inl" else Inr(body)
            if (kind is list and form == "pair" and len(body) == 2
                    and type(body[0]) in values and type(body[1]) in values):
                return Pair(*body)
            if kind is dict and form == "unit" and not body:
                return unit
            if (kind is dict and form == "prim" and len(body) == 2
                    and "type" in body and "value" in body):
                return PrimVal(body["type"], body["value"])
        elif (len(obj) == 2 and "label" in obj and "value" in obj and type(obj["label"]) is str
                and type(obj["value"]) in values):
            return Element(obj["label"], obj["value"])
        return obj

    return build


def _reject_equal_ids(texts, where: str):
    """Name the first two texts that parse to equal ids (primitive literals
    compare as Python numbers do, so Nat=1, Nat=1.0 and Nat=true are one id)."""
    first_text = {}
    for text in sorted(texts):
        e = parse_id(text)
        if e in first_text:
            raise ParseError(f"{where}: ids {first_text[e]!r} and {text!r} name the same element")
        first_text[e] = text


def _reject_entry(entry, spot: str):
    """Reject an entry other than {"label": <string>, "value": ...}."""
    _expect_object(entry, spot)
    if set(entry) != {"label", "value"}:
        raise ParseError(f"{spot}: entries carry exactly label and value")
    if not isinstance(entry["label"], str):
        raise ParseError(f"{spot}: label must be a string")


# Every document is written by _text, one frame per level of nesting (a
# loop, not a comprehension, which adds a frame of its own): json.dumps with
# an indent runs the pure-Python encoder, whose closures it leaves behind as
# cyclic garbage.  graph_chunks writes a graph in one pass, each value through
# its label's emitter where it has one, compiled from one walk of its type.

_escape = json.encoder.encode_basestring  # the escaper behind ensure_ascii=False
_NL = "\n      "  # the indent of an element's label and value
_COMPILE_AT = 128  # values of a shape that repay compiling its emitter
_MAX_NODES = 64  # type nodes an emitter is compiled for: its ifs nest 31 deep, CPython allows 100
_BATCH = 1 << 14  # characters of whole elements per chunk, about


def _text(x, nl: str = "\n") -> str:
    """The canonical text of x, nested at the indent nl ends in: for a Value,
    the text of value_to_json(x); for any other JSON document, the text of
    json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False)."""
    if isinstance(x, str):
        return _escape(x)
    kind, inner = type(x), nl + "  "
    if kind is Pair:
        deeper = inner + "  "
        return (f'{{{inner}"pair": [{deeper}{_text(x.first, deeper)},'
                f'{deeper}{_text(x.second, deeper)}{inner}]{nl}}}')
    if kind is PrimVal:
        deeper = inner + "  "
        return (f'{{{inner}"prim": {{{deeper}"type": {_escape(x.prim)},'
                f'{deeper}"value": {_text(x.literal, deeper)}{inner}}}{nl}}}')
    if kind is Inl or kind is Inr:
        return f'{{{inner}"{"inl" if kind is Inl else "inr"}": {_text(x.inner, inner)}{nl}}}'
    if kind is Unit:
        return f'{{{inner}"unit": {{}}{nl}}}'
    if kind is Ref:
        return f'{{{inner}"ref": {_escape(render_id(x.element))}{nl}}}'
    if kind is int or kind is float and x - x == 0:  # not NaN or an infinity
        return repr(x)
    if kind is bool:
        return "true" if x else "false"
    if isinstance(x, dict) and x:
        parts = []
        for key in sorted(x):
            parts.append(f"{_escape(key)}: {_text(x[key], inner)}")
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if isinstance(x, (list, tuple)) and x:
        parts = []
        for item in x:
            parts.append(_text(item, inner))
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    return json.dumps(x)  # None, NaN, an infinity, or an empty list or object


def _source(t, src: str, nl: str, lines: list, pad: str, nodes) -> tuple:
    """The text of a value of the type t that the expression src holds, nested
    at the indent nl ends in: a template with a %s per field, and the fields,
    each an f-string's {expression}.  The statements they need go to lines at
    the indent pad: per node, a class test that binds it to a name from nodes
    and returns None on a misfit; per sum, an if/elif block whose branches
    bind the sum's text, an f-string, to that name."""
    inner, kind = nl + "  ", type(t)
    if kind is One:
        lines.append(f"{pad}if type({src}) is not Unit: return None")
        return f'{{{inner}"unit": {{}}{nl}}}', []
    node, deeper = f"n{next(nodes)}", inner + "  "
    if kind is Sum:
        for test, side, part in (("if", "inl", t.left), ("elif", "inr", t.right)):
            lines.append(f"{pad}{test} type({node} := {src}) is {side.capitalize()}:")
            text, fields = _source(part, f"{node}.inner", inner, lines, pad + " ", nodes)
            lines.append(f"{pad} {node} = " + _fstring(f'{{{inner}"{side}": {text}{nl}}}', fields))
        lines.append(f"{pad}else: return None")
        return "%s", [f"{{{node}}}"]
    if kind is Prod:
        lines.append(f"{pad}if type({node} := {src}) is not Pair: return None")
        left, fields = _source(t.left, f"{node}.first", deeper, lines, pad, nodes)
        right, more = _source(t.right, f"{node}.second", deeper, lines, pad, nodes)
        return f'{{{inner}"pair": [{deeper}{left},{deeper}{right}{inner}]{nl}}}', fields + more
    if kind is Prim:
        lines.append(f"{pad}if type({node} := {src}) is not PrimVal: return None")
        lines.append(f"{pad}{node}v = _escape(x) if type(x := {node}.literal) is str "
                     f"else _text(x, {deeper!r})")
        return (f'{{{inner}"prim": {{{deeper}"type": %s,{deeper}"value": %s{inner}}}{nl}}}',
                [f"{{_escape({node}.prim)}}", f"{{{node}v}}"])
    if kind is Lbl:
        lines.append(f"{pad}if type({node} := {src}) is not Ref: return None")
        return f'{{{inner}"ref": %s{nl}}}', [f"{{_escape(x if type(x := {node}.element) is str "
                                             f"else render_id(x))}}"]
    lines.append(f"{pad}return None")  # the empty type
    return "", []


def _fstring(template: str, fields: list) -> str:
    """The source of the f-string of template whose %s are the fields."""
    return "f" + _escape(template).replace("{", "{{").replace("}", "}}") % tuple(fields)


def _compile(t):
    """The emitter of the values of t's shape: emit(key, label, v) is the
    text of an element whose id and label texts are key and label and whose
    value is v, or None when v misfits t.  Its source is built in one walk of
    t (_source), so it grows with t's nodes, not with the forms its values
    take.  The literal parts of its f-strings (a % format of the same
    template takes four times as long) are structure only, so labels whose
    types differ in names alone share the emitter."""
    lines = ["def emit(key, label, v):"]
    template, fields = _source(t, "v", _NL, lines, " ", count())
    text = f'%s: {{\n      "label": %s,{_NL}"value": {template}\n    }}'
    lines.append(" return " + _fstring(text, ["{key}", "{label}", *fields]))
    exec("\n".join(lines), globals(), scope := {})  # emit's globals are this module's
    return scope["emit"]


def _emitters(graph: Graph) -> dict:
    """label -> (its escaped text, the emitter of its values or None).  Labels
    whose types have one shape, the types with names erased, share one
    emitter, compiled once _COMPILE_AT values take the shape, for a shape of
    at most _MAX_NODES nodes.  A type's shape is read by type_nodes, so a type
    of any depth is measured, and one past _MAX_NODES is read no further."""
    counts = Counter(map(attrgetter("label"), graph.elements.values()))
    shapes, values, emitters = {}, Counter(), {}
    for label, t in graph.schema.labels.items():
        shapes[label] = shape = tuple(map(type, islice(type_nodes(t), _MAX_NODES + 1)))
        values[shape] += counts[label]
    for label, shape in shapes.items():
        if shape not in emitters and values[shape] >= _COMPILE_AT and len(shape) <= _MAX_NODES:
            emitters[shape] = _compile(graph.schema.labels[label])
    return {label: (_escape(label), emitters.get(shape)) for label, shape in shapes.items()}


def graph_chunks(graph: Graph):
    """The canonical text of graph in chunks, each made only when asked for:
    whole elements in id order, about _BATCH characters a chunk, then the
    head.  Each value is written by its label's emitter (see _emitters), or
    node by node where it has none or where the value misfits it."""
    entries = {render_id(e): el for e, el in graph.elements.items()}
    plan, batch, size = _emitters(graph), [], 0
    sep = '{\n  "elements": {\n    '
    for id_text in sorted(entries):
        el = entries[id_text]
        label, emit = plan.get(el.label) or (_escape(el.label), None)
        key = _escape(id_text)
        text = emit and emit(key, label, el.value)
        if text is None:
            text = f'{key}: {{\n      "label": {label},{_NL}"value": {_text(el.value, _NL)}\n    }}'
        batch.append(text)
        size += len(text)
        if size >= _BATCH:
            yield sep + ",\n    ".join(batch)
            batch, size, sep = [], 0, ",\n    "
    if batch:
        yield sep + ",\n    ".join(batch)
    head = _text(schema_to_json(graph.schema))  # the primitives list and the schema map
    yield ("\n  }," if entries else '{\n  "elements": {},') + head[1:] + "\n"


def write_graph(graph: Graph) -> str:
    """The canonical text of graph, whole: graph_chunks joined."""
    return "".join(graph_chunks(graph))


def _read_built(text: str, hook, read):
    """read(doc, True) of text's document with each object passed through
    hook; where that raises, read(doc, False) of the plain document, whose
    result or error stands (the hook's frame costs the built parse one level)."""
    try:
        return read(load_json(text, hook), True)
    except (ParseError, RecursionError):
        hook = None  # the built document and the hook are freed before the second read
    return read(load_json(text), False)


def read_schema(text: str) -> Schema:
    """The validated schema of a graph or schema document.  Its parse drops
    each {"label", "value"} object, so no element is built; a schema object
    of those two labels, dropped with them, takes the plain read."""
    schema = _read_built(
        text, lambda obj: None if len(obj) == 2 and "label" in obj and "value" in obj else obj,
        lambda doc, built: schema_from_json(_expect_object(doc, "graph document")))
    report = validate_schema(schema)
    if not report.ok:
        raise ValidationFailure(report)
    return schema


def read_graph(text: str, validate: bool = True) -> Graph:
    ids = IdTable()
    return _read_built(text, _builder(ids), lambda doc, built: graph_from_json(
        doc, validate, ids if built else None))


# ---------------------------------------------------------------------------
# Morphisms

def write_morphism(h: Morphism) -> str:
    return _text({
        "onLabels": dict(h.on_labels),
        "onElements": {render_id(e): render_id(h.on_elements[e]) for e in h.on_elements},
    }) + "\n"


def read_morphism(text: str, source: Graph, target: Graph, validate: bool = True) -> Morphism:
    doc = _expect_object(load_json(text), "morphism document")
    extra = set(doc) - {"onLabels", "onElements"}
    if extra:
        raise ParseError(f"unknown morphism keys: {', '.join(sorted(extra))}")
    raw_labels = doc.get("onLabels", {})
    raw_elements = doc.get("onElements", {})
    if not isinstance(raw_labels, dict) or not isinstance(raw_elements, dict):
        raise ParseError("onLabels and onElements must be objects")
    for k, v in raw_labels.items():
        if not isinstance(v, str):
            raise ParseError(f"onLabels.{k}: labels are strings")
    on_elements = {}
    for k in sorted(raw_elements):
        v = raw_elements[k]
        if not isinstance(v, str):
            raise ParseError(f"onElements.{k}: ids are strings")
        try:
            on_elements[parse_id(k)] = parse_id(v)
        except ParseError as err:
            raise ParseError(f"onElements.{k}: {err}") from None
    if len(on_elements) != len(raw_elements):
        _reject_equal_ids(raw_elements, "onElements")
    h = Morphism(source, target, dict(raw_labels), on_elements)
    if validate:
        report = check_morphism(h)
        if not report.ok:
            raise ValidationFailure(report)
    return h


# ---------------------------------------------------------------------------
# Schema mappings

def write_mapping(m: SchemaMapping) -> str:
    return _text({
        "source": schema_to_json(m.source),
        "target": schema_to_json(m.target),
        "onLabels": {l: render_type(t) for l, t in m.on_labels.items()},
        "onTerms": {l: render_term(t) for l, t in m.on_terms.items()},
    }) + "\n"


def read_mapping(text: str, validate: bool = True) -> SchemaMapping:
    doc = _expect_object(load_json(text), "mapping document")
    source = schema_from_json(_expect_object(doc.get("source", {}), "source"), "source")
    target = schema_from_json(_expect_object(doc.get("target", {}), "target"), "target")
    on_labels = _texts(doc.get("onLabels", {}), "onLabels", "type expressions are strings",
                       lambda text: parse_type(text, target.labels, target.registry))
    on_terms = _texts(doc.get("onTerms", {}), "onTerms", "terms are text", parse_term)
    m = SchemaMapping(source, target, on_labels, on_terms)
    if validate:
        report = validate_schema(m.source)
        for finding in validate_schema(m.target):
            report.findings.append(finding)
        if report.ok:
            report = typecheck_mapping(m)
        if not report.ok:
            raise ValidationFailure(report)
    return m
