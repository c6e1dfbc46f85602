"""Schemas, graphs, and conformance checking.

A schema assigns each label a type; a graph assigns each element a label and
a value.  The single law everything else leans on: every element's value must
inhabit the type its label declares, with reference positions landing on
elements of exactly the referenced label.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .adt import (
    _ATOM_RE,
    DEFAULT_REGISTRY,
    ElementId,
    Lbl,
    Mismatch,
    One,
    Pair,
    Prim,
    Prod,
    Record,
    Value,
    checker,
    is_id,
    render_id,
    type_nodes,
)
from .errors import PreconditionError

# The designated label for vertices that carry no label of their own.  It may
# appear as a schema key (with type 1) but never inside a type expression.
UNLABELED = ""


class Schema(Record):
    __slots__ = {"labels": "dict[str, TypeExpr]", "registry": "PrimRegistry"}
    _defaults = {"registry": lambda: DEFAULT_REGISTRY}

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def sorted_labels(self) -> list[str]:
        return sorted(self.labels)


class Element(Record):
    __slots__ = {"label": "str", "value": "Value"}


class Graph(Record):
    __slots__ = {"schema": "Schema", "elements": "dict[ElementId, Element]"}

    def sorted_ids(self) -> list[ElementId]:
        return sorted(self.elements, key=render_id)

    def ids_of(self, label: str) -> list[ElementId]:
        return sorted((e for e, el in self.elements.items() if el.label == label),
                      key=render_id)


class Finding(Record):
    """One validation problem, localized to a subject and a path within it."""

    __slots__ = {"subject": "str", "path": "str", "message": "str"}

    def __str__(self) -> str:
        return f"error: {self.subject}{self.path}: {self.message}"


class ValidationReport(Record, frozen=False):
    __slots__ = {"findings": "list[Finding]"}
    _defaults = {"findings": list}

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, subject: str, path: str, message: str):
        self.findings.append(Finding(subject, path, message))

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(f) for f in self.findings)


def validate_schema(schema: Schema) -> ValidationReport:
    """Well-formedness of the schema alone: closed label references, known
    primitives, no label shadowing a primitive name, and the reserved
    unlabeled-vertex rules."""
    report = ValidationReport()
    for label in schema.sorted_labels():
        t = schema.labels[label]
        if label in schema.registry:
            report.add(label, "", "label shadows a primitive type name")
        if label == UNLABELED and not isinstance(t, One):
            report.add(label, "", "the reserved unlabeled-vertex label must have type 1")
        for node in type_nodes(t):
            if isinstance(node, Lbl):
                if node.name == UNLABELED:
                    report.add(label, "", "the reserved unlabeled-vertex label cannot be referenced")
                elif node.name not in schema.labels:
                    report.add(label, "", f"type references undeclared label {node.name!r}")
            elif isinstance(node, Prim) and node.name not in schema.registry:
                report.add(label, "", f"type references unregistered primitive {node.name!r}")
    return report


def validate_graph(graph: Graph) -> ValidationReport:
    """Schema well-formedness plus conformance of every element.

    An empty report means the graph is valid: each element is keyed by an
    element id, its label is declared, its value inhabits the declared type,
    every reference lands on an element of the referenced label, and every
    primitive literal lies in its registered domain.
    """
    report = validate_schema(graph.schema)
    for e in sorted((e for e in graph.elements if not (
            _ATOM_RE.fullmatch(e) if isinstance(e, str) else is_id(e))), key=repr):
        report.add(repr(e), "", "not an element id")
    report.findings.extend(conformance(graph))
    return report


def conformance(graph: Graph) -> list[Finding]:
    """The finding of each element whose label is undeclared or whose value
    does not inhabit its label's type, in id order; each label's checker is
    built once, and references are looked up in graph.elements."""
    elements = graph.elements
    look = lambda e: getattr(elements.get(e), "label", None)
    checks = {label: checker(t, graph.schema.registry) for label, t in graph.schema.labels.items()}
    found = []
    for e, el in elements.items():
        check = checks.get(el.label)
        miss = (Mismatch((), f"element has undeclared label {el.label!r}") if check is None
                else check(el.value, look))
        if miss is not None:
            subject = render_id(e) if is_id(e) else repr(e)
            found.append(Finding(subject, miss.path_text(), miss.message))
    found.sort(key=lambda finding: finding.subject)
    return found


def group_by_key(graph: Graph, label: str, key) -> dict[Value, list[ElementId]]:
    """The label's elements grouped by key(value), each group in id order."""
    groups: dict[Value, list[ElementId]] = {}
    for e in graph.ids_of(label):
        groups.setdefault(key(graph.elements[e].value), []).append(e)
    return groups


def _collisions(graph: Graph, label: str, key) -> list[tuple[ElementId, ElementId]]:
    """Every pair of label-elements whose values agree on key, in id order."""
    groups = group_by_key(graph, label, key).values()
    violations = [pair for group in groups for pair in combinations(group, 2)]
    violations.sort(key=lambda p: (render_id(p[0]), render_id(p[1])))
    return violations


def check_unique_property(graph: Graph, label: str) -> list[tuple[ElementId, ElementId]]:
    """Pairs of label-elements sharing a value; empty means values are unique."""
    if label not in graph.schema.labels:
        raise PreconditionError(f"unknown label {label!r}")
    return _collisions(graph, label, lambda value: value)


def check_primary_key(graph: Graph, label: str) -> list[tuple[ElementId, ElementId]]:
    """Pairs of label-elements sharing a first component.

    The label's type must be a product; the first component acts as the key.
    """
    if label not in graph.schema.labels:
        raise PreconditionError(f"unknown label {label!r}")
    if not isinstance(graph.schema.labels[label], Prod):
        raise PreconditionError(f"the type of {label!r} is not a product")
    not_pairs = [e for e, el in graph.elements.items()
                 if el.label == label and not isinstance(el.value, Pair)]
    if not_pairs:
        first = min(not_pairs, key=render_id)
        raise PreconditionError(f"element {render_id(first)} does not hold a pair")
    return _collisions(graph, label, lambda value: value.first)
