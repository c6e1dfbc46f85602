"""Structure-preserving maps between graphs.

A morphism is a pair of maps, one on labels and one on elements, that
commutes with labeling: mapping an element and then asking for its label
agrees with mapping its label.  Two optional strengthenings are checkable
on top: preservation of declared types, and naturality of stored values.
"""

from __future__ import annotations

from .adt import ElementId, Lbl, Record, Ref, render_id, transport_type, transport_value
from .graph import Graph, ValidationReport
from .errors import PreconditionError


class Morphism(Record):
    __slots__ = {"source": "Graph", "target": "Graph", "on_labels": "dict[str, str]",
                 "on_elements": "dict[ElementId, ElementId]"}


def identity(graph: Graph) -> Morphism:
    return Morphism(
        graph,
        graph,
        {l: l for l in graph.schema.labels},
        {e: e for e in graph.elements},
    )


def check_morphism(h: Morphism) -> ValidationReport:
    """Totality, image existence, and the labeling square."""
    report = ValidationReport()
    for label in h.source.schema.sorted_labels():
        image = h.on_labels.get(label)
        if image is None:
            report.add(label, "", "label has no image")
        elif image not in h.target.schema.labels:
            report.add(label, "", f"label image {image!r} is not in the target schema")
    for e in h.source.sorted_ids():
        image = h.on_elements.get(e)
        if image is None:
            report.add(render_id(e), "", "element has no image")
            continue
        if image not in h.target.elements:
            report.add(render_id(e), "", f"element image {render_id(image)} is not in the target")
            continue
        source_label = h.source.elements[e].label
        mapped = h.on_labels.get(source_label)
        target_label = h.target.elements[image].label
        if mapped is not None and mapped != target_label:
            report.add(
                render_id(e),
                "",
                f"labeling does not commute: label maps to {mapped!r} "
                f"but the image element is labeled {target_label!r}",
            )
    return report


def compose(h: Morphism, j: Morphism) -> Morphism:
    """The composite h after j."""
    if j.target != h.source:
        raise PreconditionError("morphisms do not compose: target and source graphs differ")
    return Morphism(
        j.source,
        h.target,
        {l: h.on_labels[m] for l, m in j.on_labels.items()},
        {e: h.on_elements[x] for e, x in j.on_elements.items()},
    )


def check_sigma_preserving(h: Morphism) -> bool:
    """Does transporting each declared type along the label map reproduce the
    target's declaration?  Expects a morphism that already passes
    check_morphism."""
    f = {l: Lbl(image) for l, image in h.on_labels.items()}
    for label in h.source.schema.labels:
        try:
            image = h.on_labels[label]
        except KeyError:
            raise PreconditionError(f"morphism is not total on labels ({label!r})") from None
        moved = transport_type(f, h.source.schema.labels[label])
        if moved != h.target.schema.labels[image]:
            return False
    return True


def check_upsilon_natural(h: Morphism) -> bool:
    """Does transporting each stored value along the morphism reproduce the
    value stored at the image?  Requires a type-preserving morphism."""
    if not check_sigma_preserving(h):
        raise PreconditionError("morphism does not preserve declared types")

    def g(e: ElementId):
        try:
            return Ref(h.on_elements[e])
        except KeyError:
            raise PreconditionError(f"morphism is not total on elements ({render_id(e)})") from None

    for e, el in h.source.elements.items():
        moved = transport_value(g, el.value)
        if moved != h.target.elements[h.on_elements[e]].value:
            return False
    return True
