"""Classifying labels by the shape of their declared types.

The familiar property-graph vocabulary falls out of type shapes: a label
with type 1 is a vertex, a product of two vertex labels is an edge, a vertex
label paired with data is a vertex property, and so on.  Labels whose shape
matches none of the rules are hyperelements, the general case.

Two dials exist for the data-ish rules.  In strict mode (the default) an
alias must declare a label-free type as written and a property's data half
must be a primitive type.  In generalized mode both rules accept label
references as long as every referenced label is itself an alias, so a
property whose data half refers to an alias of Integer still counts, while
a reference to a vertex or an edge never reads as data.  Labels that depend
on themselves all the way down come out as hyperelements.
"""

from __future__ import annotations

from typing import TypeAlias, Union

from .adt import Lbl, One, Prim, Prod, Record, TypeExpr, label_free, labels_in, type_nodes
from .errors import PreconditionError
from .graph import Schema


class Vertex(Record):
    __slots__ = ()


class Edge(Record):
    __slots__ = ()


class HigherOrderEdge(Record):
    __slots__ = ()


class VertexProperty(Record):
    __slots__ = ()


class EdgeProperty(Record):
    __slots__ = ()


class MetaProperty(Record):
    __slots__ = ()


class DataTypeAlias(Record):
    __slots__ = ()


class Tag(Record):
    __slots__ = {"of": "Classification"}


class Hyperelement(Record):
    __slots__ = ()


Classification: TypeAlias = Union[
    Vertex,
    Edge,
    HigherOrderEdge,
    VertexProperty,
    EdgeProperty,
    MetaProperty,
    DataTypeAlias,
    Tag,
    Hyperelement,
]


def describe(c: Classification) -> str:
    if isinstance(c, Tag):
        return f"Tag({describe(c.of)})"
    return type(c).__name__


_PROPERTY_KINDS = (VertexProperty, EdgeProperty, MetaProperty)


class _Deferred(Exception):
    """A rule needs the classification of a label not yet settled."""


def _data_after_deref(schema: Schema, t: TypeExpr, known: dict) -> bool:
    """Is t a data type once alias references are chased?

    True when every label mentioned in t is itself classified as an alias:
    substituting the aliases' types repeatedly bottoms out in a label-free
    type.  References to vertices, edges, or anything else never read as
    data, which keeps e.g. a pair of vertex references an edge rather than
    an alias.
    """
    for node in type_nodes(t):
        if isinstance(node, Lbl):
            if node.name not in schema.labels:
                return False
            if node.name not in known:
                raise _Deferred()
            if not isinstance(known[node.name], DataTypeAlias):
                return False
    return True


def _attempt(schema: Schema, label: str, known: dict[str, Classification], strict: bool):
    t = schema.labels[label]

    def data_ok(data: TypeExpr) -> bool:
        if strict:
            return isinstance(data, Prim)
        return _data_after_deref(schema, data, known)

    def alias_ok(whole: TypeExpr) -> bool:
        if strict:
            return label_free(whole)
        return _data_after_deref(schema, whole, known)

    def kind_of(name: str) -> Classification:
        if name not in schema.labels:
            # Undeclared reference; validation owns the complaint, the
            # classifier just refuses to call it anything structured.
            return Hyperelement()
        if name not in known:
            raise _Deferred()
        return known[name]

    if isinstance(t, One):
        return Vertex()
    if alias_ok(t):
        return DataTypeAlias()
    if isinstance(t, Lbl):
        return Tag(kind_of(t.name))
    if isinstance(t, Prod) and isinstance(t.left, Lbl):
        left = kind_of(t.left.name)
        if isinstance(t.right, Lbl):
            right = kind_of(t.right.name)
            if isinstance(left, Vertex) and isinstance(right, Vertex):
                return Edge()
            if isinstance(left, (Edge, HigherOrderEdge)) and isinstance(right, Vertex):
                return HigherOrderEdge()
        if data_ok(t.right):
            if isinstance(left, Vertex):
                return VertexProperty()
            if isinstance(left, Edge):
                return EdgeProperty()
            if isinstance(left, _PROPERTY_KINDS):
                return MetaProperty()
    return Hyperelement()


def _kind_dependencies(schema: Schema, label: str, strict: bool) -> set[str]:
    """Labels whose classification the rules for this label may consult."""
    t = schema.labels[label]
    if not strict:
        # The generalized alias rule looks at every referenced label.
        return {name for name in labels_in(t) if name in schema.labels}
    # Each declared label side, even beside an undeclared one: that side
    # reads as a hyperelement and the rules still consult the other.
    sides = (t.left, t.right) if isinstance(t, Prod) else (t,)
    return {s.name for s in sides if isinstance(s, Lbl) and s.name in schema.labels}


def classify_graph(schema: Schema, strict: bool = True) -> dict[str, Classification]:
    """Classify every label, first rule wins, to a fixed point.

    Rules that consult another label's kind wait until that label settles.
    When a pass makes no progress the stall is a dependency cycle; the labels
    on the cycle become hyperelements and classification resumes, so a tag
    pointing into a cycle still reads Tag(Hyperelement).
    """
    known: dict[str, Classification] = {}
    pending = set(schema.labels)
    while pending:
        progressed = False
        for label in sorted(pending):
            try:
                known[label] = _attempt(schema, label, known, strict)
            except _Deferred:
                continue
            pending.discard(label)
            progressed = True
        if not progressed:
            # Walk unresolved dependencies until one repeats; everything on
            # that cycle is stuck on itself.
            trail: list[str] = [min(pending)]
            seen = {trail[0]}
            while True:
                deps = sorted(_kind_dependencies(schema, trail[-1], strict) & pending)
                nxt = deps[0]
                if nxt in seen:
                    break
                trail.append(nxt)
                seen.add(nxt)
            for label in trail[trail.index(nxt):]:
                known[label] = Hyperelement()
                pending.discard(label)
    return known


def classify_label(schema: Schema, label: str, strict: bool = True) -> Classification:
    if label not in schema.labels:
        raise PreconditionError(f"unknown label {label!r}")
    return classify_graph(schema, strict)[label]
