"""Limits and colimits of graphs.

Products and coproducts exist for arbitrary pairs of graphs; equalizers for
arbitrary parallel pairs.  Coequalizers (and pushouts built from them) are
taken with both graphs on one shared schema and identity label maps, which is
the setting data merging needs: the quotient then happens on elements alone
and the schema survives untouched.  Both quotient their inputs as they are
(_quotient), with no union graph: a class is named by its least member
under (input index, render_id), tagged as the disjoint union would tag it,
and only those members are tagged and copied.  Every pair id, tagged id or
class is built once and shared by its element key, its leg images and the
references to it.  Stored references move by one walk of each value,
directed by the value alone: the product walks each input value once for
its whole line of pairs (_spread), and the other constructions share one
rule (_relink) that transports each value whose label's type holds one.

Each construction returns the graph together with its legs (projections,
injections, or the universal map onto the quotient).
"""

from __future__ import annotations

from .adt import (
    Class,
    ElementId,
    Inl,
    Inr,
    Lbl,
    Left,
    One,
    Pair,
    PairId,
    PrimVal,
    Prod,
    Record,
    Ref,
    Right,
    Sum,
    Unit,
    label_free,
    render_id,
    transport_type,
    transport_value,
)
from .errors import PreconditionError
from .graph import Element, Graph, Schema
from .morphism import Morphism

TERMINAL_LABEL = "⊤"  # also the id of the one-point graph's one element


class ConstructionResult(Record):
    __slots__ = {"graph": "Graph", "legs": "dict[str, Morphism]"}


def _require_same_registry(g1: Graph, g2: Graph):
    if g1.schema.registry != g2.schema.registry:
        raise PreconditionError("graphs use different primitive registries")


def initial_graph(registry=None) -> Graph:
    schema = Schema({}, registry) if registry is not None else Schema({})
    return Graph(schema, {})


def terminal_graph(registry=None) -> Graph:
    labels = {TERMINAL_LABEL: One()}
    schema = Schema(labels, registry) if registry is not None else Schema(labels)
    return Graph(schema, {TERMINAL_LABEL: Element(TERMINAL_LABEL, Unit())})


def unique_morphism(graph: Graph, direction: str) -> Morphism:
    """The unique map out of the empty graph or into the one-point graph."""
    if direction == "from-initial":
        return Morphism(initial_graph(graph.schema.registry), graph, {}, {})
    if direction == "to-terminal":
        terminal = terminal_graph(graph.schema.registry)
        return Morphism(
            graph,
            terminal,
            {l: TERMINAL_LABEL for l in graph.schema.labels},
            {e: TERMINAL_LABEL for e in graph.elements},
        )
    raise PreconditionError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Product

def _pair_label(l1: str, l2: str) -> str:
    return f"({l1},{l2})"


def product(g1: Graph, g2: Graph) -> ConstructionResult:
    """Labels and elements are pairs; declared types and stored values are
    transported so that each reference pairs up with the fixed other half.
    Each pair id and its one Ref, shared by every value pointing to it, are
    made once, in a grid over the sorted ids.  Each input value is walked
    once (_spread) for all its pairs: a reference to e1 reads its Refs off
    e1's grid row, one to e2 off e2's column, and a reference outside its
    graph (unvalidated input only) gets a fresh line of pair ids."""
    _require_same_registry(g1, g2)
    # The label maps depend on one label of the other side only.
    used1, used2 = ({*g.schema.labels, *(el.label for el in g.elements.values())} for g in (g1, g2))
    names = {(l1, l2): _pair_label(l1, l2) for l1 in used1 for l2 in used2}
    left_f = {l2: {m: Lbl(names[m, l2]) for m in g1.schema.labels} for l2 in g2.schema.labels}
    right_f = {l1: {m: Lbl(names[l1, m]) for m in g2.schema.labels} for l1 in g1.schema.labels}
    labels: dict[str, object] = {}
    proj1_labels: dict[str, str] = {}
    proj2_labels: dict[str, str] = {}
    for l1 in g1.schema.sorted_labels():
        for l2 in g2.schema.sorted_labels():
            name = names[l1, l2]
            labels[name] = Prod(
                transport_type(left_f[l2], g1.schema.labels[l1]),
                transport_type(right_f[l1], g2.schema.labels[l2]),
            )
            proj1_labels[name] = l1
            proj2_labels[name] = l2
    ids1, ids2 = g1.sorted_ids(), g2.sorted_ids()
    grid = [[Ref(PairId(e1, e2)) for e2 in ids2] for e1 in ids1]
    rows, columns = dict(zip(ids1, grid)), dict(zip(ids2, zip(*grid)))
    row = lambda e: rows[e] if e in rows else [Ref(PairId(e, e2)) for e2 in ids2]
    column = lambda e: columns[e] if e in columns else [Ref(PairId(e1, e)) for e1 in ids1]
    els2 = [g2.elements[e] for e in ids2]
    spread2 = [_spread(el.value, column) for el in els2]
    elements, proj1_elements, proj2_elements = {}, {}, {}
    for i, (e1, refs) in enumerate(zip(ids1, grid)):
        el1 = g1.elements[e1]
        v1, halves1 = el1.value, _spread(el1.value, row)
        for j, (e2, el2, halves2, ref) in enumerate(zip(ids2, els2, spread2, refs)):
            eid = ref.element
            elements[eid] = Element(names[el1.label, el2.label], Pair(
                v1 if halves1 is None else halves1[j],
                el2.value if halves2 is None else halves2[i]))
            proj1_elements[eid] = e1
            proj2_elements[eid] = e2
    graph = Graph(Schema(labels, g1.schema.registry), elements)
    return ConstructionResult(
        graph,
        {
            "proj1": Morphism(graph, g1, proj1_labels, proj1_elements),
            "proj2": Morphism(graph, g2, proj2_labels, proj2_elements),
        },
    )


def _spread(v, line):
    """None when v holds no reference; else v's images along a line of
    pairs, the k-th with each reference to e replaced by line(e)[k].  The
    walk is directed by v alone, one frame per value level, as
    transport_value's.  transport_value keeps its own walk: built on this one
    with a line of one, it took 1.8x as long over the 12,000 label-typed values
    of the seed-5 ingest graph (CPython 3.11, one Xeon core)."""
    kind = type(v)
    if kind is Ref:
        return line(v.element)
    if kind is Unit or kind is PrimVal:
        return None
    if kind is Inl or kind is Inr:
        inner = _spread(v.inner, line)
        return None if inner is None else [kind(x) for x in inner]
    first, second = _spread(v.first, line), _spread(v.second, line)
    if first is None:
        return None if second is None else [Pair(v.first, b) for b in second]
    if second is None:
        return [Pair(a, v.second) for a in first]
    return [Pair(a, b) for a, b in zip(first, second)]


def _relink(graph: Graph, image):
    """relink(el): el's value with each reference to e replaced by image()[e].
    A label-free label's value is kept as it is, so an unvalidated graph's
    reference there still names an input element, and image is called only
    when some element's label is not one of those."""
    free = {l for l, t in graph.schema.labels.items() if label_free(t)}
    bound = any(el.label not in free for el in graph.elements.values())
    values = image() if bound else {}
    return lambda el: el.value if el.label in free else transport_value(values, el.value)


def pair(f: Morphism, g: Morphism) -> Morphism:
    """The map into a product induced by two maps out of one graph."""
    if f.source != g.source:
        raise PreconditionError("pairing needs a common source")
    target = product(f.target, g.target)
    return Morphism(
        f.source,
        target.graph,
        {l: _pair_label(f.on_labels[l], g.on_labels[l]) for l in f.source.schema.labels},
        {e: PairId(f.on_elements[e], g.on_elements[e]) for e in f.source.elements},
    )


# ---------------------------------------------------------------------------
# Coproduct

def _tagged_union(g1: Graph, g2: Graph, schema: Schema, left_prefix: str,
                  right_prefix: str) -> ConstructionResult:
    """Elements of g1 tagged Left and of g2 tagged Right, over schema.

    Each label l of g1 becomes left_prefix + l (right_prefix for g2), and
    stored references follow their elements' tags.
    """
    elements: dict[ElementId, Element] = {}
    sides = []
    for g, tag, prefix in ((g1, Left, left_prefix), (g2, Right, right_prefix)):
        # One tagged id per element: the element key, the leg image and the
        # target of every Ref to it are the same object.
        on_elements = {e: tag(e) for e in g.sorted_ids()}
        relink = _relink(g, lambda: {e: Ref(t) for e, t in on_elements.items()})
        for e, t in on_elements.items():
            el = g.elements[e]
            elements[t] = Element(prefix + el.label, relink(el))
        sides.append((g, {l: prefix + l for l in g.schema.labels}, on_elements))
    graph = Graph(schema, elements)
    inj1, inj2 = (Morphism(g, graph, on_labels, on_elements)
                  for g, on_labels, on_elements in sides)
    return ConstructionResult(graph, {"inj1": inj1, "inj2": inj2})


def coproduct(g1: Graph, g2: Graph) -> ConstructionResult:
    """The disjoint union with tagged labels and tagged elements."""
    _require_same_registry(g1, g2)
    labels: dict[str, object] = {}
    for g, prefix in ((g1, "L:"), (g2, "R:")):
        tagged = {m: Lbl(prefix + m) for m in g.schema.labels}
        for l in g.schema.sorted_labels():
            labels[prefix + l] = transport_type(tagged, g.schema.labels[l])
    return _tagged_union(g1, g2, Schema(labels, g1.schema.registry), "L:", "R:")


def case_analysis(f: Morphism, g: Morphism) -> Morphism:
    """The map out of a coproduct induced by two maps into one graph."""
    if f.target != g.target:
        raise PreconditionError("case analysis needs a common target")
    source = coproduct(f.source, g.source)
    on_labels = {"L:" + l: f.on_labels[l] for l in f.source.schema.labels}
    on_labels.update({"R:" + l: g.on_labels[l] for l in g.source.schema.labels})
    on_elements = {Left(e): f.on_elements[e] for e in f.source.elements}
    on_elements.update({Right(e): g.on_elements[e] for e in g.source.elements})
    return Morphism(source.graph, f.target, on_labels, on_elements)


# ---------------------------------------------------------------------------
# Equalizer

def equalizer(h: Morphism, j: Morphism) -> ConstructionResult:
    """The subgraph of the common source where the parallel pair agrees.

    Label references inside surviving declared types weaken to an option
    (1 + l when l survives, plain 1 otherwise), and stored values wrap or
    collapse their references to match, through _relink.
    """
    if h.source != j.source or h.target != j.target:
        raise PreconditionError("not a parallel pair")
    g = h.source
    surviving = {l for l in g.schema.labels if h.on_labels.get(l) == j.on_labels.get(l)}
    f = {
        l: Sum(One(), Lbl(l)) if l in surviving else One()
        for l in g.schema.labels
    }
    kept = {e: g.elements[e] for e in g.sorted_ids() if g.elements[e].label in surviving
            and h.on_elements.get(e) == j.on_elements.get(e)}
    unit, absent = Unit(), Inl(Unit())
    relink = _relink(g, lambda: {e: Inr(Ref(e)) if e in kept else absent if el.label in surviving
                                 else unit for e, el in g.elements.items()})
    labels = {l: transport_type(f, g.schema.labels[l]) for l in surviving}
    elements = {e: Element(el.label, relink(el)) for e, el in kept.items()}
    graph = Graph(Schema(labels, g.schema.registry), elements)
    leg = Morphism(graph, g, {l: l for l in labels}, {e: e for e in elements})
    return ConstructionResult(graph, {"eq": leg})


# ---------------------------------------------------------------------------
# Disjoint union on a shared schema, coequalizer, pushout

def disjoint_union(g1: Graph, g2: Graph) -> ConstructionResult:
    """Element-level disjoint union of two graphs on the same schema.

    This is the coproduct in the fixed-schema setting: labels stay as they
    are and only the elements pick up tags.
    """
    if g1.schema != g2.schema:
        raise PreconditionError("disjoint union needs a shared schema")
    return _tagged_union(g1, g2, g1.schema, "", "")


def _quotient(schema: Schema, inputs, pairs):
    """The quotient on schema of the inputs' elements by the equivalence the
    pairs generate, and one leg per input, its ids in canonical order.

    Each input is (graph, tag), and each pair names two members, each as
    (input index, id).  The union-find runs on positions in the concatenation
    of the inputs' sorted ids, so positions rank as (input index, render_id)
    and the first member met of a class is its least.  Classes must be
    label-uniform; the error names the first that is not, by least member.  A
    class is Class(tag(rep)) for its least member rep, the classes are listed
    in that order, and only reps are copied, each relinked through its own
    input's map.
    """
    position, start = [], 0  # position[k][e]: the place of input k's id e
    for g, _ in inputs:
        position.append({e: i for i, e in enumerate(g.sorted_ids(), start)})
        start += len(position[-1])
    els = [g.elements[e] for (g, _), at in zip(inputs, position) for e in at]
    parent = list(range(start))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for (k, a), (m, b) in pairs:
        parent[find(position[k][a])] = find(position[m][b])
    roots = [find(i) for i in range(start)]
    least: dict[int, int] = {}  # root -> its class's least member, the first met
    mixed = set()
    for i, r in enumerate(roots):
        if els[i].label != els[least.setdefault(r, i)].label:
            mixed.add(r)
    if mixed:
        root = next(r for r in least if r in mixed)
        group = [i for i, r in enumerate(roots) if r == root]
        names = [render_id(tag(e)) for (_, tag), at in zip(inputs, position) for e in at]
        listed, labels = ", ".join(sorted(names[i] for i in group)), {els[i].label for i in group}
        raise PreconditionError(f"class {{{listed}}} mixes labels {sorted(labels)}")
    classes, elements, maps = {}, {}, []  # classes: root -> its Class
    for (g, tag), at in zip(inputs, position):
        on_elements, first = {}, []  # first: the members met first of their class, here
        for e, i in at.items():
            cls = classes.get(roots[i])
            if cls is None:
                cls = classes[roots[i]] = Class(tag(e))
                first.append(i)
            on_elements[e] = cls
        relink = _relink(g, lambda: {e: Ref(c) for e, c in on_elements.items()})
        for i in first:
            elements[classes[roots[i]]] = Element(els[i].label, relink(els[i]))
        maps.append(on_elements)
    quotient = Graph(schema, elements)
    return quotient, [Morphism(g, quotient, {l: l for l in schema.labels}, on_elements)
                      for (g, _), on_elements in zip(inputs, maps)]


def coequalizer(h: Morphism, j: Morphism) -> ConstructionResult:
    """Identify h(e) with j(e) in the common target, elementwise.

    Both graphs must share one schema and both label maps must be the
    identity; the quotient leaves the schema alone.
    """
    if h.source != j.source or h.target != j.target:
        raise PreconditionError("not a parallel pair")
    if h.source.schema != h.target.schema:
        raise PreconditionError("coequalizer needs both graphs on one schema")
    for m in (h, j):
        for l, image in m.on_labels.items():
            if image != l:
                raise PreconditionError("coequalizer needs identity label maps")
    pairs = (((0, h.on_elements[e]), (0, j.on_elements[e])) for e in h.source.elements)
    quotient, (leg,) = _quotient(h.target.schema, [(h.target, lambda e: e)], pairs)
    return ConstructionResult(quotient, {"coeq": leg})


def pushout(f: Morphism, g: Morphism) -> ConstructionResult:
    """Glue the targets of a span along its apex.

    All three graphs must share one schema and both legs must be identity on
    labels.  The result is the disjoint union of the targets with f(e) and
    g(e) identified for every apex element e; its legs send each target
    element to its class.  Only the value of a class's named member is read,
    and a reference in it under a label-free type is copied as it is.
    """
    if f.source != g.source:
        raise PreconditionError("pushout needs a span with a common source")
    if f.target.schema != g.target.schema:
        raise PreconditionError("pushout targets must share a schema")
    for m, role in ((f, "left"), (g, "right")):
        if m.source.schema.registry != m.target.schema.registry:
            raise PreconditionError(f"{role} leg mixes primitive registries")
        for l, image in m.on_labels.items():
            if image != l:
                raise PreconditionError(f"{role} leg is not identity on labels")
        for l in m.source.schema.labels:
            if m.source.schema.labels[l] != m.target.schema.labels.get(l):
                raise PreconditionError(f"{role} leg does not preserve the declared type of {l!r}")
    pairs = (((0, a), (1, g.on_elements[e])) for e, a in f.on_elements.items())
    quotient, (left, right) = _quotient(f.target.schema, [(f.target, Left), (g.target, Right)],
                                        pairs)
    return ConstructionResult(quotient, {"left": left, "right": right})
