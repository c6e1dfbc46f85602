"""Key-based matching and merging of graphs on a shared schema.

Matching builds the span of agreements: one element per pair of inputs that
share a key, projected back into each input.  Merging glues the inputs along
that span, so matched pairs collapse to a single class and everything else
survives untouched.

Keys default to the whole stored value; a dotted path of fst/snd steps can
narrow the comparison.  Either way every label's declared type must be free
of label references: matched values are copied across graphs, and a copied
reference would point at nothing.
"""

from __future__ import annotations

from .adt import PairId, Prod, Value, label_free, render_type
from .catops import pushout
from .errors import PreconditionError
from .graph import Graph, group_by_key
from .morphism import Morphism


def _key_steps(key: str | None) -> list[str]:
    if key is None or key == "":
        return []
    steps = key.split(".")
    for step in steps:
        if step not in ("fst", "snd"):
            raise PreconditionError(f"bad key step {step!r}: expected fst or snd")
    return steps


def _project_type(t, steps, label):
    for step in steps:
        if not isinstance(t, Prod):
            raise PreconditionError(
                f"key path does not apply to {label!r}: {render_type(t)} is not a product"
            )
        t = t.left if step == "fst" else t.right
    return t


def _project_value(v: Value, steps) -> Value:
    for step in steps:
        v = v.first if step == "fst" else v.second
    return v


def match_by_key(g1: Graph, g2: Graph, key: str | None = None):
    """The span of key agreements between two graphs on one schema.

    Returns (apex, m1, m2) where the apex holds one element (e1,e2) for each
    same-label pair agreeing on the key, and m1, m2 project it back onto the
    inputs.
    """
    if g1.schema != g2.schema:
        raise PreconditionError("match needs both graphs on one schema")
    steps = _key_steps(key)
    for label in g1.schema.sorted_labels():
        t = g1.schema.labels[label]
        if not label_free(t):
            raise PreconditionError(
                f"label {label!r} has declared type {render_type(t)}, which references labels; "
                "matching needs label-free values"
            )
        _project_type(t, steps, label)

    elements = {}
    m1_elements = {}
    m2_elements = {}
    for label in g1.schema.sorted_labels():
        by_key = group_by_key(g2, label, lambda v: _project_value(v, steps))
        for e1 in g1.ids_of(label):
            el1 = g1.elements[e1]
            for e2 in by_key.get(_project_value(el1.value, steps), []):
                eid = PairId(e1, e2)
                elements[eid] = el1
                m1_elements[eid] = e1
                m2_elements[eid] = e2
    apex = Graph(g1.schema, elements)
    ids = {l: l for l in g1.schema.labels}
    m1 = Morphism(apex, g1, dict(ids), m1_elements)
    m2 = Morphism(apex, g2, dict(ids), m2_elements)
    return apex, m1, m2


def merge_by_key(g1: Graph, g2: Graph, key: str | None = None) -> Graph:
    """Glue two graphs along their key agreements.

    The result keeps the input schema; matched elements become one class
    each, unmatched elements become singleton classes.
    """
    _, m1, m2 = match_by_key(g1, g2, key)
    return pushout(m1, m2).graph
