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
a reference to a vertex or an edge never reads as data.  A rule that needs
the kind of a label not yet classified waits on it; a wait that leads back
to a waiting label closes a cycle, every label on it is a hyperelement, and
a label that tags into the cycle reads Tag(Hyperelement).
"""

from __future__ import annotations

from typing import TypeAlias, Union

from .adt import Lbl, One, Prim, Prod, Record, TypeExpr, label_free, type_nodes
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
    """Compared, hashed and printed through its chain (_chain), so a chain of
    any length needs no recursion."""

    __slots__ = {"of": "Classification"}

    def __eq__(self, other):
        if type(other) is not Tag:
            return NotImplemented
        return self is other or _chain(self) == _chain(other)

    def __hash__(self):
        return hash(_chain(self))

    def __repr__(self) -> str:
        tags, base = _chain(self)
        return "Tag(of=" * tags + repr(base) + ")" * tags


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


def _chain(c: Classification) -> tuple[int, Classification]:
    """(number of tags, base kind) of c, read in one loop."""
    tags = 0
    while type(c) is Tag:
        c, tags = c.of, tags + 1
    return tags, c


def describe(c: Classification) -> str:
    tags, base = _chain(c)
    return "Tag(" * tags + type(base).__name__ + ")" * tags


_PROPERTY_KINDS = (VertexProperty, EdgeProperty, MetaProperty)


class _Deferred(Exception):
    """A rule needs the classification of a label not yet settled: args[0] names it."""


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
                raise _Deferred(node.name)
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
            raise _Deferred(name)
        return known[name]

    if isinstance(t, One):
        return Vertex()
    if alias_ok(t):
        return DataTypeAlias()
    if isinstance(t, Lbl):
        return Tag(kind_of(t.name))
    if isinstance(t, Prod) and isinstance(t.left, Lbl):
        # Sides in name order: the side a rule waits on decides which cycle it closes.
        sides = sorted(side.name for side in (t.left, t.right) if isinstance(side, Lbl))
        kinds = {name: kind_of(name) for name in sides}
        left = kinds[t.left.name]
        if isinstance(t.right, Lbl):
            right = kinds[t.right.name]
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


def classify_graph(schema: Schema, strict: bool = True) -> dict[str, Classification]:
    """Classify every label, first rule wins.

    Labels are taken in sorted order.  A rule that consults a label not yet
    classified waits on it, and that label is classified first.  A wait on a
    label that is itself waiting closes a cycle: it and every label waiting
    after it become hyperelements, so a tag pointing into a cycle still reads
    Tag(Hyperelement).
    """
    known: dict[str, Classification] = {}
    for root in schema.sorted_labels():
        _settle(schema, root, known, strict)
    return known


def _settle(schema: Schema, root: str, known: dict[str, Classification], strict: bool):
    """Classify root into known, and first every label it waits on."""
    waiting = {} if root in known else {root: None}  # in order, each waits on the next
    while waiting:
        label = next(reversed(waiting))
        try:
            known[label] = _attempt(schema, label, known, strict)
            waiting.popitem()
        except _Deferred as wait:
            (name,) = wait.args
            while name in waiting:  # a cycle: settle it from the top down to name
                known[waiting.popitem()[0]] = Hyperelement()
            if name not in known:
                waiting[name] = None


def classify_label(schema: Schema, label: str, strict: bool = True) -> Classification:
    """The kind classify_graph gives label, settling only label and the
    labels its rule waits on, directly or through others."""
    if label not in schema.labels:
        raise PreconditionError(f"unknown label {label!r}")
    known: dict[str, Classification] = {}
    _settle(schema, label, known, strict)
    return known[label]
