"""Key-based matching and merging of graphs on a shared schema.

Matching builds the span of agreements: one element per pair of inputs that
share a key, projected back into each input.  Merging glues the inputs along
a spanning subset of that span, linear in the size of a key group: a pushout
depends only on the equivalence its pairs generate, and that is the same.
Matched elements collapse to a single class; the rest survive untouched.

Keys default to the whole stored value; a dotted path of fst/snd steps can
narrow the comparison.  Either way every label's declared type must be free
of label references: matched values are copied across graphs, and a copied
reference would point at nothing.
"""

from __future__ import annotations

from itertools import product

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


def _span(g1: Graph, g2: Graph, key: str | None, glue):
    """The span whose apex holds an element (e1,e2) with e1's value for each
    pair glue gives on the id-ordered g1 and g2 groups of a shared key."""
    if g1.schema != g2.schema:
        raise PreconditionError("match needs both graphs on one schema")
    steps = _key_steps(key)
    elements = {}
    for label in g1.schema.sorted_labels():
        t = g1.schema.labels[label]
        if not label_free(t):
            raise PreconditionError(f"label {label!r} has declared type {render_type(t)}, which "
                                    "references labels; matching needs label-free values")
        _project_type(t, steps, label)
        by_key1, by_key2 = (group_by_key(g, label, lambda v: _project_value(v, steps))
                            for g in (g1, g2))
        for k, group1 in by_key1.items():
            if k in by_key2:
                elements.update((PairId(e1, e2), g1.elements[e1])
                                for e1, e2 in glue(group1, by_key2[k]))
    apex = Graph(g1.schema, elements)
    ids = {l: l for l in g1.schema.labels}
    m1 = Morphism(apex, g1, dict(ids), {eid: eid.first for eid in elements})
    m2 = Morphism(apex, g2, ids, {eid: eid.second for eid in elements})
    return apex, m1, m2


def match_by_key(g1: Graph, g2: Graph, key: str | None = None):
    """The span of key agreements between two graphs on one schema: the full
    span, all k1·k2 pairs of a key shared by k1 g1 and k2 g2 elements.

    Returns (apex, m1, m2) where the apex holds one element (e1,e2) for each
    same-label pair agreeing on the key, and m1, m2 project it back onto the
    inputs.
    """
    return _span(g1, g2, key, product)


def merge_by_key(g1: Graph, g2: Graph, key: str | None = None) -> Graph:
    """Glue two graphs along their key agreements.

    The result keeps the input schema; matched elements become one class
    each, unmatched elements become singleton classes.  The glue is a
    spanning subset of match_by_key's span: per key, the first g1 element
    with each g2 element and each other g1 element with the first g2 one,
    k1 + k2 - 1 pairs.  A pushout depends only on the equivalence its pairs
    generate, the same as the full span's, so the result is the same.
    """
    _, m1, m2 = _span(g1, g2, key, lambda group1, group2: [(group1[0], e2) for e2 in group2]
                      + [(e1, group2[0]) for e1 in group1[1:]])
    return pushout(m1, m2).graph
