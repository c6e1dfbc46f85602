import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from apg.adt import (
    Atom,
    DEFAULT_REGISTRY,
    Enc,
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
    Zero,
    parse_type,
    render_id,
    type_nodes,
)
from apg import files
from apg.catops import coproduct, product
from apg.errors import ParseError, ValidationFailure
from apg.fixtures import load
from apg.files import (
    graph_from_json,
    graph_to_json,
    read_graph,
    read_mapping,
    read_morphism,
    read_schema,
    registry_from_json,
    registry_to_json,
    value_to_json,
    write_graph,
    write_mapping,
    write_morphism,
)
from apg.graph import Element, Graph, Schema
from apg.integrate import merge_by_key
from apg.migrate import SchemaMapping, delta_migrate, parse_term
from .generators import label_free_graph, permutation_morphism, random_graph

FIXTURES = [
    "vertices.apg", "edges.apg", "names.apg", "plates1.apg",
    "plates2.apg", "trips.apg", "mapping_input.apg",
]


def test_write_read_identity_on_fixtures():
    for name in FIXTURES:
        text = load(name)
        g = read_graph(text)
        assert write_graph(g) == text
        assert read_graph(write_graph(g)) == g


def test_write_read_identity_on_random_graphs():
    rng = random.Random(51)
    for _ in range(25):
        g = random_graph(rng)
        assert read_graph(write_graph(g)) == g


def test_empty_document_is_the_empty_graph():
    g = read_graph("{}")
    assert not g.schema.labels and not g.elements
    assert g.schema.registry == DEFAULT_REGISTRY


def test_writing_is_canonical():
    g = read_graph(load("plates1.apg"))
    text = write_graph(g)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == text


def test_bad_json_reports_line_and_column():
    with pytest.raises(ParseError, match="line 2 column"):
        read_graph('{\n  "schema": }')


def test_top_level_must_be_an_object():
    with pytest.raises(ParseError, match="object"):
        read_graph("[1, 2]")


def test_validation_failure_names_the_dangling_reference():
    doc = {
        "schema": {"User": "1", "name": "User * String"},
        "elements": {
            "n1": {"label": "name", "value": {
                "pair": [{"ref": "ghost"}, {"prim": {"type": "String", "value": "A"}}]
            }},
        },
    }
    with pytest.raises(ValidationFailure) as caught:
        read_graph(json.dumps(doc))
    assert "ghost" in str(caught.value)
    g = read_graph(json.dumps(doc), validate=False)
    assert g.elements[Atom("n1")].value.first == Ref(Atom("ghost"))


def test_registry_round_trips_custom_entries():
    registry = PrimRegistry({"String": "string", "Celsius": "double"})
    raw = registry_to_json(registry)
    assert raw == [{"kind": "double", "name": "Celsius"}, "String"]
    assert registry_from_json(raw) == registry


def test_registry_entry_shapes():
    assert registry_from_json(None) == DEFAULT_REGISTRY
    assert registry_from_json(["Nat"]).kind("Nat") == "nat"
    assert registry_from_json([{"name": "Meters", "kind": "double"}]).kind("Meters") == "double"
    with pytest.raises(ParseError, match="not a stock primitive"):
        registry_from_json(["Furlongs"])
    with pytest.raises(ParseError, match="entries are names"):
        registry_from_json([7])
    with pytest.raises(ParseError, match="must be a list"):
        registry_from_json({"Nat": "nat"})
    with pytest.raises(ParseError, match="unknown primitive kind"):
        registry_from_json([{"name": "X", "kind": "decimal"}])


def read_value(raw):
    """raw read as the value of the one element of a document with no schema,
    which decodes it form by form."""
    graph = graph_from_json({"elements": {"x": {"label": "L", "value": raw}}})
    return graph.elements[Atom("x")].value


def test_value_forms_round_trip():
    values = [
        Unit(),
        Pair(Unit(), PrimVal("Nat", 3)),
        Inl(Ref(Atom("e7"))),
        PrimVal("Double", 2.5),
        PrimVal("String", "snow ❄"),
    ]
    for v in values:
        assert read_value(value_to_json(v)) == v


def test_value_form_errors_name_their_position():
    with pytest.raises(ParseError, match=r"elements\.x\.value: .*exactly one"):
        read_value({"unit": {}, "inl": {}})
    with pytest.raises(ParseError, match=r"elements\.x\.value\.fst"):
        read_value({"pair": [{"bogus": 1}, {"unit": {}}]})
    with pytest.raises(ParseError, match="two-element list"):
        read_value({"pair": [{"unit": {}}]})
    with pytest.raises(ParseError, match="unknown value form"):
        read_value({"maybe": {}})
    with pytest.raises(ParseError, match="id string"):
        read_value({"ref": 9})


def test_doubles_coerce_from_integer_literals():
    v = read_value({"prim": {"type": "Double", "value": 3}})
    assert v == PrimVal("Double", 3.0)
    assert isinstance(v.literal, float)


def test_element_entries_are_exact():
    doc = {"schema": {"User": "1"},
           "elements": {"u1": {"label": "User", "value": {"unit": {}}, "note": "?"}}}
    with pytest.raises(ParseError, match="exactly label and value"):
        read_graph(json.dumps(doc))


def test_schema_errors_name_the_label():
    doc = {"schema": {"User": "1 +"}}
    with pytest.raises(ParseError, match=r"schema\.User"):
        read_graph(json.dumps(doc))


def test_morphism_round_trip():
    rng = random.Random(52)
    g = random_graph(rng)
    h = permutation_morphism(rng, g)
    text = write_morphism(h)
    back = read_morphism(text, g, g)
    assert back.on_labels == h.on_labels
    assert back.on_elements == h.on_elements


def test_morphism_reading_checks_the_maps():
    g = read_graph(load("vertices.apg"))
    bad = json.dumps({"onLabels": {"User": "User", "Trip": "Trip"},
                      "onElements": {"u1": "t1", "t1": "t1"}})
    with pytest.raises(ValidationFailure):
        read_morphism(bad, g, g)
    h = read_morphism(bad, g, g, validate=False)
    assert h.on_elements[Atom("u1")] == Atom("t1")
    with pytest.raises(ParseError, match="unknown morphism keys"):
        read_morphism(json.dumps({"extra": {}}), g, g)


def test_mapping_round_trip():
    text = load("mapping.apgm")
    m = read_mapping(text)
    assert write_mapping(m) == text
    assert set(m.source.labels) == {"record"}
    assert set(m.target.labels) == {"summary"}


def test_mapping_reading_typechecks():
    doc = json.loads(load("mapping.apgm"))
    doc["onTerms"]["record"] = "(fst phi x, (snd phi x, Integer 0))"
    with pytest.raises(ValidationFailure):
        read_mapping(json.dumps(doc))
    m = read_mapping(json.dumps(doc), validate=False)
    assert "record" in m.on_terms


def test_mapping_term_errors_name_the_label():
    doc = json.loads(load("mapping.apgm"))
    doc["onTerms"]["record"] = "fst ("
    with pytest.raises(ParseError, match=r"onTerms\.record"):
        read_mapping(json.dumps(doc))


def test_writing_keeps_unicode_literal():
    doc = {"schema": {"m": "String"},
           "elements": {"e": {"label": "m",
                              "value": {"prim": {"type": "String", "value": "snow ❄"}}}}}
    text = write_graph(read_graph(json.dumps(doc)))
    assert "snow ❄" in text
    assert "\\u2744" not in text
    doc = graph_to_json(read_graph(load("names.apg")))
    assert doc["elements"]["n1"]["value"]["pair"][1]["prim"]["value"] == "Arthur Dent"


# ---------------------------------------------------------------------------
# write_graph against the generic encoder

def generic_text(g: Graph) -> str:
    return json.dumps(graph_to_json(g), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def witness_migration(g: Graph) -> Graph:
    """Mint one element per (l, 1 + l) pair: ids like E:Wl:(@e,inr(@f))."""
    labels = g.schema.labels
    mapping = SchemaMapping(
        Schema({"W" + l: One() for l in labels}),
        g.schema,
        {"W" + l: Prod(Lbl(l), Sum(One(), Lbl(l))) for l in labels},
        {"W" + l: parse_term("()") for l in labels},
    )
    return delta_migrate(mapping, g)


def written_as_the_generic_encoder(g: Graph) -> bool:
    """write_graph(g) is the generic encoder's text both with the emitters its
    counts repay and with an emitter for every shape within the bounds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_COMPILE_AT", 0)
        compiled = write_graph(g)
    return write_graph(g) == compiled == generic_text(g)


LEAVES = [(One(), lambda i: Unit()), (Prim("String"), lambda i: PrimVal("String", f"s{i}")),
          (Sum(One(), Prim("Nat")), lambda i: Inr(PrimVal("Nat", i)) if i % 2 else Inl(Unit()))]


def labels_graph(prefix: str, n: int) -> Graph:
    """n labels of six shapes with one element each: label i has type 1,
    String or 1 + Nat, paired, for odd i past 2, with a reference to label i - 3."""
    labels, elements = {}, {}
    for i in range(n):
        t, leaf = LEAVES[i % 3]
        value = leaf(i)
        if i >= 3 and i % 2:
            t, value = Prod(Lbl(f"{prefix}{i - 3}"), t), Pair(Ref(f"{prefix}e{i - 3}"), value)
        labels[f"{prefix}{i}"] = t
        elements[f"{prefix}e{i}"] = Element(f"{prefix}{i}", value)
    return Graph(Schema(labels), elements)


@given(st.integers(0, 2 ** 32))
def test_write_graph_equals_the_generic_encoder(seed):
    rng = random.Random(seed)
    g1, g2 = random_graph(rng), random_graph(rng)
    flat = label_free_graph(rng)
    for g in (g1, product(g1, g2).graph, coproduct(g1, g2).graph,
              merge_by_key(flat, flat), witness_migration(g1)):
        assert written_as_the_generic_encoder(g)


# JSON documents: nested lists and objects of text keys over scalars that
# include text past ASCII, ints past 64 bits, the extreme doubles, NaN and
# the infinities.
SCALARS = st.one_of(st.none(), st.booleans(), st.text(), st.integers(-2 ** 256, 2 ** 256),
                    st.floats(),
                    st.sampled_from([-0.0, 5e-324, 1e300, "⊤ é \"q\" \\ \n"]))
DOCUMENTS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                         | st.dictionaries(st.text(), inner, max_size=4), max_leaves=24)
INDENTS = st.sampled_from(["\n", "\n  ", "\n    ", "\n      "])


@given(DOCUMENTS, INDENTS)
def test_text_is_the_indenting_encoders(doc, nl):
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    assert files._text(doc, nl) == expected.replace("\n", nl)


@given(st.integers(0, 2 ** 32), INDENTS)
def test_text_of_a_value_is_the_text_of_its_json(seed, nl):
    for el in random_graph(random.Random(seed)).elements.values():
        doc = value_to_json(el.value)
        assert files._text(el.value, nl) == files._text(doc, nl) == json.dumps(
            doc, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", nl)


@given(st.text(), st.text(), st.text())
def test_write_graph_escapes_any_text(label, literal, prim):
    g = Graph(Schema({label: Prim("String")}),
              {Atom("e"): Element(label, PrimVal("String", literal)),
               Enc(label, PrimVal(prim, literal)): Element(label, Unit())})
    assert write_graph(g) == generic_text(g)


# Values that take no form of their label's type, as only unvalidated graphs hold.
MISFITS = Graph(Schema({"z": Sum(Zero(), One()), "u": One(), "s": Prim("String"),
                        "p": Prod(Lbl("u"), Prim("String"))}), {
    "z1": Element("z", Inl(Unit())),  # Inl where Inr is expected
    "z2": Element("z", Inr(Unit())),
    "z3": Element("z", Unit()),  # neither injection where a sum is
    "u1": Element("u", Ref("u2")),  # Ref where Unit is
    "u2": Element("u", Unit()),
    "s1": Element("s", Pair(Unit(), Unit())),  # Pair where a primitive is
    "s2": Element("s", PrimVal("String", [1, {"b": [], "a": "é"}])),  # a container literal
    "s3": Element("s", PrimVal("String", "x")),
    "p1": Element("p", Pair(Ref("u2"), PrimVal("String", "y"))),
    "p2": Element("p", Pair(Unit(), PrimVal("String", "y"))),
    "g1": Element("ghost", Pair(Unit(), PrimVal("String", "y"))),  # an undeclared label
})


def over_the_bounds() -> Graph:
    """Types past the writer's bounds: a 40-way sum, with more forms and
    nodes, and a product of ten 1 + 1, with more forms only."""
    wide, bits = parse_type(" + ".join(["1"] * 40), {}), parse_type(" * ".join(["(1 + 1)"] * 10), {})
    elements = {}
    for i in range(40):
        v = Unit() if i == 39 else Inl(Unit())
        for _ in range(i):
            v = Inr(v)
        elements[f"w{i}"] = Element("w", v)
    for i in range(4):
        v = Inl(Unit()) if i % 2 else Inr(Unit())
        for _ in range(9):
            v = Pair(Inr(Unit()) if i // 2 else Inl(Unit()), v)
        elements[f"b{i}"] = Element("b", v)
    return Graph(Schema({"w": wide, "b": bits}), elements)


def deep_sum(depth: int) -> Graph:
    """One element of the right-nested sum 1 + 1 + … + 1 of depth + 1 terms,
    its value depth right injections of ()."""
    t, v = One(), Unit()
    for _ in range(depth):
        t, v = Sum(One(), t), Inr(v)
    return Graph(Schema({"D": t}), {"d1": Element("D", v)})


def numbers_and_booleans() -> Graph:
    """128 values each of Nat, Integer, Double and Boolean, enough that each
    label's emitter is compiled, among them the extreme doubles and 2 ** 80."""
    doubles = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.0 ** 80, -2.5e-7]
    literals = {"Nat": lambda i: 2 ** 80 + i if i % 5 == 0 else i * 1009,
                "Integer": lambda i: (-1) ** i * i * 10 ** (i % 23),
                "Double": lambda i: doubles[i % 8] if i % 3 else i / 7,
                "Boolean": lambda i: i % 3 == 0}
    return Graph(Schema({name: Prim(name) for name in literals}), {
        Atom(f"{name}{i}"): Element(name, PrimVal(name, literal(i)))
        for name, literal in literals.items() for i in range(128)})


def test_write_graph_edge_cases():
    odd = 'say "hi"\\ \t\n\x00\x1f\x7f é ❄ 𝄞 \u2028'
    nested = PrimVal("Boolean", False)
    for depth in range(150):
        nested = Inl(nested) if depth % 2 else Inr(nested)
    graphs = [
        read_graph("{}"),
        read_graph('{"primitives": []}'),
        read_graph(json.dumps({
            "primitives": ["String", {"name": "Celsius", "kind": "double"}],
            "schema": {"t": "Celsius * String"},
            "elements": {"t1": {"label": "t", "value": {"pair": [
                {"prim": {"type": "Celsius", "value": 21.5}},
                {"prim": {"type": "String", "value": "x"}}]}}},
        })),
        Graph(Schema({odd: Prim("String")}),
              {Atom("s"): Element(odd, PrimVal("String", odd))}),
        Graph(Schema({"d": Prim("Double")}), {
            Atom(f"d{i}"): Element("d", PrimVal("Double", x))
            for i, x in enumerate([-0.0, 1e300, 0.1, 5e-324, -2.5])}),
        Graph(Schema({"n": Prim("Nat"), "b": Prim("Boolean")}), {
            Atom("n1"): Element("n", PrimVal("Nat", 2 ** 80 + 1)),
            Atom("n2"): Element("n", PrimVal("Nat", 0)),
            Atom("b1"): Element("b", PrimVal("Boolean", True)),
            Atom("b2"): Element("b", PrimVal("Boolean", False))}),
        Graph(Schema({"deep": Prim("Boolean")}), {Atom("x"): Element("deep", nested)}),
        numbers_and_booleans(),
        MISFITS,
        over_the_bounds(),
        product(labels_graph("a", 30), labels_graph("b", 30)).graph,
        deep_sum(31),  # 63 type nodes: the deepest sum within the writer's bound
        deep_sum(975),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))  # the generic encoder recurses twice per level
    try:
        for g in graphs:
            assert written_as_the_generic_encoder(g)
    finally:
        sys.setrecursionlimit(limit)
    assert write_graph(graphs[0]) == (
        '{\n  "elements": {},\n  "primitives": [\n    "Boolean",\n    "Double",\n'
        '    "Integer",\n    "Nat",\n    "String"\n  ],\n  "schema": {}\n}\n')
    assert '"primitives": [],' in write_graph(graphs[1])


@pytest.mark.parametrize("compile_at", [25, files._COMPILE_AT])
def test_the_writer_compiles_only_the_shapes_that_repay_it(monkeypatch, compile_at):
    """The product of two 30-label graphs has 900 labels of 36 shapes, each
    taken by 16 to 36 values: each shape is compiled once at most, and only
    when compile_at values take it."""
    g = product(labels_graph("a", 30), labels_graph("b", 30)).graph
    shape = lambda t: tuple(map(type, type_nodes(t)))
    values = Counter(shape(g.schema.labels[el.label]) for el in g.elements.values())
    compiled, compile = [], files._compile
    monkeypatch.setattr(files, "_compile", lambda t: compiled.append(t) or compile(t))
    monkeypatch.setattr(files, "_COMPILE_AT", compile_at)
    assert write_graph(g) == generic_text(g)
    assert len(values) == 36 and len({shape(t) for t in compiled}) == len(compiled)
    assert {shape(t) for t in compiled} == {
        shape(t) for t in g.schema.labels.values() if values[shape(t)] >= compile_at}
    assert 0 < len(compiled) < 36 if compile_at == 25 else not compiled


def test_an_emitter_grows_with_the_nodes_of_its_type(monkeypatch):
    """A record of eight optional fields takes 256 forms; its emitter is
    compiled once and has at most three lines of source per node of its type."""
    fields = 8
    t = parse_type(" * ".join(["(1 + String)"] * fields), {})
    elements = {}
    for i in range(128):  # the bits of i * 37 % 256 set the fields: 128 forms, one a value
        v = None
        for k in reversed(range(fields)):
            field = Inr(PrimVal("String", f"s{i}.{k} é")) if i * 37 >> k & 1 else Inl(Unit())
            v = field if v is None else Pair(field, v)
        elements[f"r{i}"] = Element("R", v)
    g = Graph(Schema({"R": t}), elements)
    emitters, compile = [], files._compile
    monkeypatch.setattr(files, "_compile", lambda t: emitters.append(compile(t)) or emitters[-1])
    assert write_graph(g) == generic_text(g)
    emit, = emitters
    lines = max(line for *_, line in emit.__code__.co_lines() if line)
    assert lines <= 3 * len(list(type_nodes(t)))


def test_write_graph_keeps_literals_read_without_validation():
    doc = {"schema": {"m": "Double"}, "elements": {
        "nan": {"label": "m", "value": {"prim": {"type": "Double", "value": float("nan")}}},
        "inf": {"label": "m", "value": {"prim": {"type": "Double", "value": float("-inf")}}},
        "nil": {"label": "m", "value": {"prim": {"type": "Double", "value": None}}},
        "box": {"label": "m", "value": {"prim": {"type": "Double",
                                                 "value": {"z": [1, {"y": "é"}], "a": []}}}},
    }}
    g = read_graph(json.dumps(doc), validate=False)
    text = write_graph(g)
    assert text == generic_text(g)
    assert '"value": NaN' in text and '"value": -Infinity' in text


# ---------------------------------------------------------------------------
# Reader errors and shared ids

_EDGE_SCHEMA = {"V": "1", "E": "V * (V + 1)"}


def _doc(elements, **extra):
    return json.dumps({"schema": _EDGE_SCHEMA, "elements": elements, **extra})


@pytest.mark.parametrize("elements, message", [
    ({"e1": {"label": "E", "value": {"pair": [{"ref": "v1"}, {"inl": {"maybe": {}}}]}}},
     "elements.e1.value.snd.inl: unknown value form 'maybe'"),
    ({"e1": {"label": "E", "value": {"pair": [
        {"ref": "v1"}, {"inr": {"pair": [{"unit": {}}, {"inl": {"unit": 3}}]}}]}}},
     "elements.e1.value.snd.inr.snd.inl: unit carries an empty object"),
    ({"v1": {"label": "V", "value": {"pair": [{"prim": {"type": "Nat"}}, {"unit": {}}]}}},
     'elements.v1.value.fst: prim carries {"type", "value"}'),
    ({"v1": {"label": "V", "value": {"inr": {"prim": {"type": 1, "value": 2}}}}},
     "elements.v1.value.inr: primitive type name must be a string"),
    ({"v1": {"label": "V", "value": {"inl": {"pair": [{"unit": {}}]}}}},
     "elements.v1.value.inl: pair carries a two-element list"),
    ({"v1": {"label": "V", "value": {"pair": [{"unit": {}}, {"ref": 9}]}}},
     "elements.v1.value.snd: ref carries an id string"),
    ({"v1": {"label": "V", "value": {"unit": {}, "inl": {}}}},
     "elements.v1.value: a value is an object with exactly one of unit/pair/inl/inr/prim/ref"),
    ({"e1": {"label": "E", "value": {"pair": [{"ref": "(v1,"}, {"unit": {}}]}}},
     "elements.e1.value.fst: expected a name (at 4)"),
    ({"e1": {"label": "E", "value": {"inl": {"ref": "v 1"}}}},
     "elements.e1.value.inl: trailing characters in element id (at 1)"),
    ({"(a,b": {"label": "V", "value": {"unit": {}}}},
     "elements.(a,b: expected ')' (at 4)"),
    ({"a b": {"label": "V", "value": {"unit": {}}}},
     "elements.a b: trailing characters in element id (at 1)"),
    ({"v1": ["V", {"unit": {}}]}, "elements.v1 must be a JSON object"),
    ({"v1": {"label": "V", "value": {"unit": {}}, "note": 1}},
     "elements.v1: entries carry exactly label and value"),
    ({"v1": {"label": 3, "value": {"unit": {}}}}, "elements.v1: label must be a string"),
])
def test_reader_errors_are_exact(elements, message):
    with pytest.raises(ParseError) as caught:
        read_graph(_doc(elements))
    assert str(caught.value) == message


def test_reader_reports_the_first_bad_element_in_id_order():
    bad = {"label": "V", "value": {"maybe": {}}}
    with pytest.raises(ParseError) as caught:
        read_graph(_doc({"v9": bad, "(a,": bad, "v2": bad}))
    assert str(caught.value) == "elements.(a,: expected a name (at 3)"


def test_value_reader_errors_are_exact():
    with pytest.raises(ParseError) as caught:
        read_value({"pair": [{"unit": {}}, {"inr": {"ref": "(a,"}}]})
    assert str(caught.value) == "elements.x.value.snd.inr: expected a name (at 3)"
    with pytest.raises(ParseError) as caught:
        read_value([])
    assert str(caught.value) == (
        "elements.x.value: a value is an object with exactly one of unit/pair/inl/inr/prim/ref")


def test_reader_shares_one_object_per_id():
    doc = _doc({
        "v1": {"label": "V", "value": {"unit": {}}},
        "v2": {"label": "V", "value": {"unit": {}}},
        "(v1,v2)": {"label": "V", "value": {"unit": {}}},
        "e1": {"label": "E", "value": {"pair": [{"ref": "v1"}, {"inl": {"ref": "v2"}}]}},
        "e2": {"label": "E", "value": {"pair": [{"ref": "v1"}, {"inl": {"ref": "(v1,v2)"}}]}},
    })
    g = read_graph(doc)
    keys = {render_id(e): e for e in g.elements}
    e1, e2 = g.elements[keys["e1"]].value, g.elements[keys["e2"]].value
    assert e1.first.element is keys["v1"]
    assert e2.first.element is keys["v1"]
    assert e1.second.inner.element is keys["v2"]
    assert e2.second.inner.element is keys["(v1,v2)"]


EQUAL_IDS = ["E:x:Nat=1", "E:x:Nat=1.0", "E:x:Nat=true"]


def test_ids_that_parse_equal_are_rejected():
    doc = _doc({text: {"label": "V", "value": {"unit": {}}} for text in EQUAL_IDS})
    with pytest.raises(ParseError) as err:
        read_graph(doc)
    assert str(err.value) == "elements: ids 'E:x:Nat=1' and 'E:x:Nat=1.0' name the same element"


def test_morphism_ids_that_parse_equal_are_rejected():
    g = read_graph(load("vertices.apg"))
    text = json.dumps({"onElements": {text: "u1" for text in EQUAL_IDS[1:]}})
    with pytest.raises(ParseError) as err:
        read_morphism(text, g, g, validate=False)
    assert str(err.value) == (
        "onElements: ids 'E:x:Nat=1.0' and 'E:x:Nat=true' name the same element")


def test_read_schema_reads_a_schema_whose_labels_are_label_and_value():
    """Such a schema object is dropped with the elements by the schema read's
    hook, so the schema comes from the plain read."""
    doc = {"schema": {"label": "1", "value": "label * String"},
           "elements": {"a": {"label": "label", "value": {"unit": {}}}}}
    assert read_schema(json.dumps(doc)) == Schema(
        {"label": One(), "value": Prod(Lbl("label"), Prim("String"))})
    assert read_schema(json.dumps({"label": "x", "value": 1})) == Schema({})


def test_read_schema_ignores_the_elements():
    for name in FIXTURES:
        assert read_schema(load(name)) == read_graph(load(name)).schema
    doc = {"schema": {"V": "1"}, "elements": {"v": {"label": "V", "value": {"bogus": 1}},
                                              "w": {"label": "V", "value": {"ref": "a b"}}}}
    assert read_schema(json.dumps(doc)) == Schema({"V": One()})
