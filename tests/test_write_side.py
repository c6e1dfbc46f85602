"""The write side's constructions, checked against references: product and
delta_migrate as they were before each id and Ref was made once, with
enumerate_values re-enumerating the right factor of a product per left value.
Also pins the sharing itself: one Ref per referenced element, the very id
object that keys it; that values which do not fit their type move as
test-local oracles say, and that a migration leaves their report to the
validator; and the work done, counted: one walk of each input value in a
product, whatever the number of pairs, and one compiled term and one minting
plan per source label in a migration."""

import random

import pytest

from apg import catops, migrate
from apg.adt import (
    Atom,
    Class,
    Enc,
    Inl,
    Inr,
    Lbl,
    Left,
    One,
    Pair,
    PairId,
    Prim,
    Prod,
    Ref,
    Right,
    Sum,
    Unit,
    Zero,
    label_free,
    render_id,
    render_type,
    render_value,
    transport_type,
    transport_value,
    type_nodes,
)
from apg.catops import (
    ConstructionResult,
    _pair_label,
    _require_same_registry,
    coproduct,
    initial_graph,
    pair,
    product,
    pushout,
    unique_morphism,
)
from apg.errors import PreconditionError
from apg.files import write_graph
from apg.graph import Element, Graph, Schema, validate_graph
from apg.migrate import (
    SchemaMapping,
    delta_migrate,
    enumerate_values,
    eval_term,
    parse_term,
    typecheck_mapping,
)
from apg.morphism import Morphism, identity

from .generators import random_graph, random_mapping


def reference_product(g1, g2):
    _require_same_registry(g1, g2)
    left_f = {l2: {m: Lbl(_pair_label(m, l2)) for m in g1.schema.labels}
              for l2 in g2.schema.labels}
    right_f = {l1: {m: Lbl(_pair_label(l1, m)) for m in g2.schema.labels}
               for l1 in g1.schema.labels}
    labels, proj1_labels, proj2_labels = {}, {}, {}
    for l1 in g1.schema.sorted_labels():
        for l2 in g2.schema.sorted_labels():
            name = _pair_label(l1, l2)
            labels[name] = Prod(transport_type(left_f[l2], g1.schema.labels[l1]),
                                transport_type(right_f[l1], g2.schema.labels[l2]))
            proj1_labels[name] = l1
            proj2_labels[name] = l2
    elements, proj1_elements, proj2_elements = {}, {}, {}
    ids2 = g2.sorted_ids()
    for e1 in g1.sorted_ids():
        el1 = g1.elements[e1]
        for e2 in ids2:
            el2 = g2.elements[e2]
            eid = PairId(e1, e2)
            value = Pair(transport_value(lambda e: Ref(PairId(e, e2)), el1.value),
                         transport_value(lambda e: Ref(PairId(e1, e)), el2.value))
            elements[eid] = Element(_pair_label(el1.label, el2.label), value)
            proj1_elements[eid] = e1
            proj2_elements[eid] = e2
    graph = Graph(Schema(labels, g1.schema.registry), elements)
    return ConstructionResult(graph, {
        "proj1": Morphism(graph, g1, proj1_labels, proj1_elements),
        "proj2": Morphism(graph, g2, proj2_labels, proj2_elements),
    })


def reference_enumerate(t, graph):
    if isinstance(t, Prim):
        raise PreconditionError(f"cannot enumerate the primitive type {t.name}")
    if isinstance(t, Zero):
        return []
    if isinstance(t, One):
        return [Unit()]
    if isinstance(t, Lbl):
        return [Ref(e) for e in graph.ids_of(t.name)]
    if isinstance(t, Sum):
        return ([Inl(v) for v in reference_enumerate(t.left, graph)]
                + [Inr(v) for v in reference_enumerate(t.right, graph)])
    return [Pair(a, b) for a in reference_enumerate(t.left, graph)
            for b in reference_enumerate(t.right, graph)]


def reference_delta_migrate(m, graph):
    report = typecheck_mapping(m)
    if not report.ok:
        raise PreconditionError(f"mapping does not typecheck:\n{report}")
    if graph.schema != m.target:
        raise PreconditionError("graph is not on the mapping's target schema")
    data_report = validate_graph(graph)
    if not data_report.ok:
        raise PreconditionError(f"input graph is not valid:\n{data_report}")
    for label in m.source.sorted_labels():
        if any(isinstance(node, Prim) for node in type_nodes(m.on_labels[label])):
            raise PreconditionError(
                f"mapped type of {label!r} is outside the enumerable fragment: "
                + render_type(m.on_labels[label]))
    witnesses = {label: reference_enumerate(m.on_labels[label], graph)
                 for label in m.source.sorted_labels()}
    minted = {label: set(values) for label, values in witnesses.items()}

    def reindex(v, t, path):
        if isinstance(t, Lbl):
            if v not in minted.get(t.name, ()):
                where = "".join("." + step for step in path) or "root"
                raise PreconditionError(f"no migrated element of {t.name!r} for witness "
                                        f"{render_value(v)} (at {where})")
            return Ref(Enc(t.name, v))
        if isinstance(t, Prod):
            return Pair(reindex(v.first, t.left, path + ("fst",)),
                        reindex(v.second, t.right, path + ("snd",)))
        if isinstance(t, Sum):
            if isinstance(v, Inl):
                return Inl(reindex(v.inner, t.left, path + ("inl",)))
            return Inr(reindex(v.inner, t.right, path + ("inr",)))
        return v

    elements = {}
    for label in m.source.sorted_labels():
        for w in witnesses[label]:
            raw = eval_term(m.on_terms[label], w, graph)
            elements[Enc(label, w)] = Element(label, reindex(raw, m.source.labels[label], ()))
    return Graph(m.source, elements)


def reference_relink(graph, refs):
    """How coproduct and pushout move values: a label-free label's value is
    kept as it is, any other is transported whole."""
    free = {l for l, t in graph.schema.labels.items() if label_free(t)}
    return lambda el: el.value if el.label in free else transport_value(refs, el.value)


def reference_moves(graph, image):
    """Each element's value, in id order, with each reference to e moved to
    Ref(image[e]); the first reference outside the graph raises."""
    relink = reference_relink(graph, {e: Ref(image[e]) for e in graph.elements})
    return {e: relink(graph.elements[e]) for e in graph.sorted_ids()}


def reference_coproduct(g1, g2):
    """The tagged union, written out: no code of catops runs but the result record."""
    labels, elements, sides = {}, {}, []
    for g, tag, prefix in ((g1, Left, "L:"), (g2, Right, "R:")):
        tagged = {m: Lbl(prefix + m) for m in g.schema.labels}
        for l in g.schema.sorted_labels():
            labels[prefix + l] = transport_type(tagged, g.schema.labels[l])
        image = {e: tag(e) for e in g.sorted_ids()}
        for e, value in reference_moves(g, image).items():
            elements[image[e]] = Element(prefix + g.elements[e].label, value)
        sides.append((g, {l: prefix + l for l in g.schema.labels}, image))
    graph = Graph(Schema(labels, g1.schema.registry), elements)
    inj1, inj2 = (Morphism(g, graph, on_labels, image) for g, on_labels, image in sides)
    return ConstructionResult(graph, {"inj1": inj1, "inj2": inj2})


def reference_pushout(f, g):
    """The targets' tagged union glued along the apex, written out for spans
    whose classes keep to one label: each class is named by its least member
    and listed in that order."""
    sides = ((f.target, Left), (g.target, Right))
    members = {tag(e): {tag(e)} for side, tag in sides for e in side.elements}
    for a in f.source.elements:
        merged = members[Left(f.on_elements[a])] | members[Right(g.on_elements[a])]
        for t in merged:
            members[t] = merged
    name = {t: Class(min(group, key=render_id)) for t, group in members.items()}
    moved = {}
    for side, tag in sides:
        for e, value in reference_moves(side, {e: name[tag(e)] for e in side.elements}).items():
            moved[tag(e)] = Element(side.elements[e].label, value)
    elements = {name[t]: moved[t] for t in sorted(moved, key=render_id) if name[t].rep == t}
    graph = Graph(f.target.schema, elements)
    labels = {l: l for l in graph.schema.labels}
    return ConstructionResult(graph, {
        role: Morphism(m.target, graph, dict(labels), {e: name[tag(e)] for e in m.target.sorted_ids()})
        for role, m, tag in (("left", f, Left), ("right", g, Right))})


def outcome(graph_or_result):
    """write_graph bytes, element order, schema and leg maps in order."""
    if isinstance(graph_or_result, Graph):
        graph, legs = graph_or_result, {}
    else:
        graph, legs = graph_or_result.graph, graph_or_result.legs
    return (write_graph(graph), list(graph.elements), graph.schema,
            {name: (leg.on_labels, list(leg.on_elements.items())) for name, leg in legs.items()})


def attempt(construct, *args):
    try:
        return outcome(construct(*args))
    except PreconditionError as err:
        return str(err)


def refs_in(v):
    stack = [v]
    while stack:
        v = stack.pop()
        if isinstance(v, Ref):
            yield v
        elif isinstance(v, Pair):
            stack += (v.first, v.second)
        elif isinstance(v, (Inl, Inr)):
            stack.append(v.inner)


def assert_shared(graph):
    """Every Ref's id is the object keying its element, and each id has one Ref."""
    keys = {e: e for e in graph.elements}
    ref_of = {}
    for el in graph.elements.values():
        for ref in refs_in(el.value):
            assert keys[ref.element] is ref.element
            assert ref_of.setdefault(ref.element, ref) is ref


# ---------------------------------------------------------------------------
# references

def test_product_matches_the_reference():
    rng = random.Random("product")
    for _ in range(300):
        g1, g2 = random_graph(rng), random_graph(rng)
        assert outcome(product(g1, g2)) == outcome(reference_product(g1, g2))


def test_delta_migrate_matches_the_reference():
    rng = random.Random("migrate")
    produced = 0
    for _ in range(300):
        g = random_graph(rng)
        m = random_mapping(rng, g)
        expected = attempt(reference_delta_migrate, m, g)
        assert attempt(delta_migrate, m, g) == expected
        produced += not isinstance(expected, str)
    assert produced == 300


def test_enumerate_values_matches_the_reference():
    rng = random.Random("enumerate")
    for _ in range(300):
        g = random_graph(rng)
        for t in random_mapping(rng, g).on_labels.values():
            assert enumerate_values(t, g) == reference_enumerate(t, g)
    g = random_graph(random.Random(0))
    for t in (Prod(Zero(), Prim("String")), Sum(Zero(), Prod(Zero(), Prim("Nat")))):
        assert enumerate_values(t, g) == reference_enumerate(t, g) == []


def test_a_product_of_unvalidated_graphs_matches_the_reference():
    schema = Schema({"V": One(), "E": Prod(Lbl("V"), Lbl("V"))})
    g1 = Graph(schema, {Atom("v"): Element("V", Unit()),
                        Atom("e"): Element("E", Pair(Ref(Atom("v")), Ref(Atom("ghost")))),
                        Atom("s"): Element("Stray", Ref(Atom("v")))})
    g2 = Graph(schema, {Atom("w"): Element("V", Unit()),
                        Atom("f"): Element("E", Pair(Ref(Atom("nowhere")), Ref(Atom("w"))))})
    result = product(g1, g2)
    assert outcome(result) == outcome(reference_product(g1, g2))
    dangling = result.graph.elements[PairId(Atom("e"), Atom("w"))].value.first.second
    assert dangling == Ref(PairId(Atom("ghost"), Atom("w")))
    assert result.graph.elements[PairId(Atom("s"), Atom("f"))].label == "(Stray,E)"


def test_a_product_with_an_empty_side_has_no_elements():
    """Either side empty, over the other side's schema or none: no element
    of the other side has a line of pairs to move its references onto."""
    rng = random.Random("empty side")
    for _ in range(30):
        g = random_graph(rng)
        for empty in (Graph(g.schema, {}), initial_graph(g.schema.registry)):
            for g1, g2 in ((empty, g), (g, empty)):
                result = product(g1, g2)
                assert result.graph.elements == {}
                assert outcome(result) == outcome(reference_product(g1, g2))
        f = unique_morphism(g, "from-initial")
        assert pair(identity(f.source), f).on_elements == {}


# ---------------------------------------------------------------------------
# one object per id

def test_every_product_ref_is_the_key_of_its_element():
    rng = random.Random("product sharing")
    for _ in range(100):
        graph = product(random_graph(rng), random_graph(rng)).graph
        assert_shared(graph)
        assert_shared(product(graph, random_graph(rng)).graph)  # ids nested in ids


def test_every_migrated_ref_is_the_key_of_its_element():
    rng = random.Random("migrate sharing")
    checked = 0
    for _ in range(200):
        g = random_graph(rng)
        graph = delta_migrate(random_mapping(rng, g), g)
        assert_shared(graph)
        checked += any(True for el in graph.elements.values() for _ in refs_in(el.value))
    assert checked >= 20  # migrations whose source types hold reference positions


class ScanCounter(dict):
    """A dict that counts the passes made over it."""

    scans = 0

    def _counted(name):
        def scan(self):
            type(self).scans += 1
            return getattr(dict, name)(self)
        return scan

    __iter__, keys, values, items = map(_counted, ("__iter__", "keys", "values", "items"))
    del _counted


def test_enumerating_a_product_scans_the_graph_once_per_label():
    schema = Schema({"V": One(), "W": One()})
    elements = ScanCounter({Atom(f"v{i:03}"): Element("V", Unit()) for i in range(200)})
    elements[Atom("w")] = Element("W", Unit())
    graph = Graph(schema, elements)
    ScanCounter.scans = 0
    values = enumerate_values(Prod(Lbl("V"), Lbl("V")), graph)
    assert ScanCounter.scans <= 1
    assert len(values) == 200 * 200
    assert values[:2] == [Pair(Ref(Atom("v000")), Ref(Atom("v000"))),
                          Pair(Ref(Atom("v000")), Ref(Atom("v001")))]
    ScanCounter.scans = 0
    enumerate_values(Sum(Prod(Lbl("V"), Lbl("W")), Lbl("W")), graph)
    assert ScanCounter.scans <= 2


# ---------------------------------------------------------------------------
# values that do not fit their type (unvalidated input)

EDGE_SCHEMA = Schema({"V": One(), "E": Prod(Lbl("V"), Lbl("V")), "P": Prod(Lbl("V"), One())})


def edge_graph(value, *extra):
    """V elements v and w, and one E element e holding value."""
    elements = {Atom("v"): Element("V", Unit()), Atom("w"): Element("V", Unit()),
                Atom("e"): Element("E", value)}
    elements.update(extra)
    return Graph(EDGE_SCHEMA, elements)


def edge_misfits():
    """Graphs on EDGE_SCHEMA that the validator refuses, one misfit each."""
    v, w = Ref(Atom("v")), Ref(Atom("w"))
    return [edge_graph(Unit()), edge_graph(Inl(v)), edge_graph(Pair(v, Inr(w))),
            edge_graph(Pair(v, Ref(Atom("ghost")))),
            edge_graph(Pair(v, w), (Atom("s"), Element("V", w))),  # a reference in a 1
            edge_graph(Pair(v, w), (Atom("t"), Element("Stray", Pair(v, w)))),
            # in a label-free part of a type that holds a label: a reference,
            # one deeper down, and a misfit that holds none
            edge_graph(Pair(v, w), (Atom("p"), Element("P", Pair(v, w)))),
            edge_graph(Pair(v, w), (Atom("p"), Element("P", Pair(v, Inl(Pair(Unit(), w)))))),
            edge_graph(Pair(v, w), (Atom("p"), Element("P", Pair(v, Inr(Unit())))))]


def test_unvalidated_shapes_move_as_the_value_directed_references():
    v, w = Ref(Atom("v")), Ref(Atom("w"))
    fitting = edge_graph(Pair(v, w), (Atom("p"), Element("P", Pair(w, Unit()))))
    apex = Graph(EDGE_SCHEMA, {Atom("v"): Element("V", Unit())})
    misfits = edge_misfits()
    for g in misfits:
        assert not validate_graph(g).ok
        legs = [Morphism(apex, target, {l: l for l in EDGE_SCHEMA.labels},
                         {e: e for e in apex.elements}) for target in (g, fitting)]
        got = [attempt(product, g, fitting), attempt(product, fitting, g),
               attempt(coproduct, g, fitting), attempt(pushout, *legs)]
        assert got == [attempt(reference_product, g, fitting),
                       attempt(reference_product, fitting, g),
                       attempt(reference_coproduct, g, fitting), attempt(reference_pushout, *legs)]
    assert attempt(coproduct, misfits[3], fitting) == "element ghost outside the transport domain"
    odd = edge_graph(Pair(v, Ref(5)))  # a reference to what is not an id
    assert product(odd, fitting).graph.elements == reference_product(odd, fitting).graph.elements


def test_the_oracles_agree_with_the_constructions_on_random_graphs():
    rng = random.Random("oracles")
    for _ in range(100):
        g1, g2 = random_graph(rng), random_graph(rng)
        assert outcome(coproduct(g1, g2)) == outcome(reference_coproduct(g1, g2))
        legs = [identity(g1), identity(g1)]
        assert outcome(pushout(*legs)) == outcome(reference_pushout(*legs))


# Node, Link and Dot read V, E and V; Tagged reads P, whose 1 is label-free.
EDGE_MAPPING = SchemaMapping(
    Schema({"Node": One(), "Link": Prod(Lbl("Node"), Lbl("Node")),
            "Tagged": Prod(Lbl("Node"), One()), "Dot": One()}),
    EDGE_SCHEMA,
    {"Node": Lbl("V"), "Link": Lbl("E"), "Tagged": Lbl("P"), "Dot": Lbl("V")},
    {"Node": parse_term("()"), "Link": parse_term("phi x"), "Tagged": parse_term("phi x"),
     "Dot": parse_term("phi x")})


def test_a_migrated_value_that_does_not_fit_names_its_position():
    """Only an unvalidated graph, read without the check, can give a term a
    value that does not fit the source type; the validator then names it, in
    the words validate=True uses."""
    v = Ref(Atom("v"))
    for value, message in ((Unit(), "error: e: expected V * V, found ()"),
                           (Pair(v, Unit()), "error: e.snd: expected a reference to V, found ()"),
                           (Pair(v, Ref(Atom("ghost"))),
                            "error: e.snd: reference to missing element ghost")):
        assert attempt(delta_migrate, EDGE_MAPPING, edge_graph(value), False) == (
            "input graph is not valid:\n" + message)
    raised = 0
    for g in edge_misfits():
        got = attempt(delta_migrate, EDGE_MAPPING, g, False)
        if isinstance(got, str):
            raised += 1
            assert got == attempt(delta_migrate, EDGE_MAPPING, g)
            assert got == attempt(reference_delta_migrate, EDGE_MAPPING, g)
    assert raised == 4  # the misfits of E; the rest sit in label-free parts or unmapped labels


def test_an_unvalidated_reference_in_a_label_free_part_is_kept():
    """The minting rebuilds only label positions: a reference that an
    invalid graph holds in a label-free part comes out as it went in."""
    v, w = Ref(Atom("v")), Ref(Atom("w"))
    for stored in (Pair(v, w), Pair(v, Inl(Pair(Unit(), w)))):
        g = edge_graph(Pair(v, w), (Atom("p"), Element("P", stored)))
        value = delta_migrate(EDGE_MAPPING, g, validate=False).elements[
            Enc("Tagged", Ref(Atom("p")))].value
        assert value == Pair(Ref(Enc("Node", v)), stored.second)
        assert value.second is stored.second
    g = edge_graph(Pair(v, w), (Atom("s"), Element("V", w)))  # a label-free label: kept whole
    assert delta_migrate(EDGE_MAPPING, g, validate=False).elements[
        Enc("Dot", Ref(Atom("s")))].value is w


# ---------------------------------------------------------------------------
# work, counted

def nodes_in(v):
    if isinstance(v, Pair):
        return 1 + nodes_in(v.first) + nodes_in(v.second)
    if isinstance(v, (Inl, Inr)):
        return 1 + nodes_in(v.inner)
    return 1


def test_a_product_walks_each_input_value_once(monkeypatch):
    """The product's walk of values is bounded by the nodes of its input
    values, not by its number of pairs, and it transports no value per pair."""
    walked, transported = [], []
    spread, transport = catops._spread, catops.transport_value
    monkeypatch.setattr(catops, "_spread", lambda v, line: walked.append(v) or spread(v, line))
    monkeypatch.setattr(catops, "transport_value",
                        lambda g, v: transported.append(v) or transport(g, v))

    def graph_of(n):
        ids = [Atom(f"x{i:03}") for i in range(n)]
        kinds = [("V", lambda e: Unit()), ("E", lambda e: Pair(Ref(ids[0]), Ref(e))),
                 ("P", lambda e: Pair(Ref(e), Unit()))]
        return Graph(EDGE_SCHEMA, {e: Element(label, value(e))
                                   for e, (label, value) in zip(ids, kinds * n)})

    for n1, n2 in ((1, 400), (400, 1), (40, 40)):
        g1, g2 = graph_of(n1), graph_of(n2)
        walked.clear()
        result = product(g1, g2)
        assert len(result.graph.elements) == n1 * n2
        nodes = sum(nodes_in(el.value) for g in (g1, g2) for el in g.elements.values())
        assert 0 < len(walked) <= nodes
        assert outcome(result) == outcome(reference_product(g1, g2))
    assert nodes < n1 * n2  # at 40 x 40 the bound is below the number of pairs
    assert transported == []


def test_a_reference_to_a_non_id_is_refused_when_written():
    """Only a programmatic, unvalidated graph can hold one; the product pairs
    it up as any reference outside its graph, and the writer names it."""
    graph = product(edge_graph(Pair(Ref(Atom("v")), Ref(5))), edge_graph(Unit())).graph
    with pytest.raises(PreconditionError, match="non-id int"):
        write_graph(graph)


def test_delta_migrate_compiles_each_term_once(monkeypatch):
    compiled = []
    real = migrate.compile_term
    monkeypatch.setattr(migrate, "compile_term", lambda t, g: compiled.append(t) or real(t, g))
    m = SchemaMapping(Schema({"Node": One(), "Link": Prod(Lbl("Node"), Lbl("Node"))}), EDGE_SCHEMA,
                      {"Node": Lbl("V"), "Link": Lbl("E")},
                      {"Node": parse_term("()"), "Link": parse_term("phi x")})
    for n in (1, 40, 400):
        ids = [Atom(f"v{i}") for i in range(n)]
        g = Graph(EDGE_SCHEMA, {**{e: Element("V", Unit()) for e in ids},
                                **{Atom(f"e{i}"): Element("E", Pair(Ref(e), Ref(ids[0])))
                                   for i, e in enumerate(ids)}})
        compiled.clear()
        assert len(delta_migrate(m, g).elements) == 2 * n
        assert sorted(map(str, compiled)) == sorted(map(str, m.on_terms.values()))


def test_delta_migrate_builds_one_minting_plan_per_label(monkeypatch):
    """The minting of each source type is built once, whatever the number of
    witnesses; a label-free label gets none, so its values are the very
    values its term returned."""
    built = []
    real = migrate._minting
    monkeypatch.setattr(migrate, "_minting",
                        lambda t, minted: built.append((t, real(t, minted))) or built[-1][1])
    target = Schema({"V": One(), "W": Prod(One(), Sum(One(), One())),
                     "E": Prod(Lbl("V"), Lbl("V"))})
    source = Schema({"Node": One(), "Pad": Prod(One(), Sum(One(), One())),
                     "Link": Prod(Lbl("Node"), Lbl("Node"))})
    m = SchemaMapping(source, target, {"Node": Lbl("V"), "Pad": Lbl("W"), "Link": Lbl("E")},
                      {"Node": parse_term("()"), "Pad": parse_term("phi x"),
                       "Link": parse_term("phi x")})
    counts = set()
    for n in (1, 40, 400):
        ids = [Atom(f"v{i}") for i in range(n)]
        g = Graph(target, {**{e: Element("V", Unit()) for e in ids},
                           **{Atom(f"w{i}"): Element("W", Pair(Unit(), Inr(Unit())))
                              for i in range(n)},
                           **{Atom(f"e{i}"): Element("E", Pair(Ref(e), Ref(ids[0])))
                              for i, e in enumerate(ids)}})
        built.clear()
        out = delta_migrate(m, g)
        assert len(out.elements) == 3 * n
        roots = {label: [made for t, made in built if t is source.labels[label]]
                 for label in source.labels}
        assert [len(made) for made in roots.values()] == [1, 1, 1]
        assert roots["Node"] == roots["Pad"] == [None] and roots["Link"] != [None]
        counts.add(len(built))
        for i in range(n):
            stored = g.elements[Atom(f"w{i}")].value
            assert out.elements[Enc("Pad", Ref(Atom(f"w{i}")))].value is stored
    assert len(counts) == 1  # the same builds at 1, 40 and 400 witnesses a label
