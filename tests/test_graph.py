import random

import pytest

from apg.adt import (Atom, Class, Enc, Lbl, Left, One, Pair, PairId, PrimVal, Prod, Ref, Right,
                     Unit)
from apg.errors import ParseError, PreconditionError
from apg.fixtures import load
from apg.files import read_graph, write_graph
from apg.graph import (
    UNLABELED,
    Element,
    Graph,
    Schema,
    check_primary_key,
    check_unique_property,
    validate_graph,
    validate_schema,
)

from .generators import graph_of, random_graph, schema_of

FIXTURES = [
    "vertices.apg",
    "edges.apg",
    "names.apg",
    "plates1.apg",
    "plates2.apg",
    "trips.apg",
    "mapping_input.apg",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_validate(name):
    graph = read_graph(load(name), validate=False)
    assert validate_graph(graph).ok


def test_empty_graph_validates():
    assert validate_graph(Graph(Schema({}), {})).ok


def test_driver_edge_mutation_is_localized():
    graph = read_graph(load("edges.apg"))
    broken = dict(graph.elements)
    broken[Atom("d1")] = Element("driver", Pair(Ref(Atom("t1")), Ref(Atom("t1"))))
    report = validate_graph(Graph(graph.schema, broken))
    assert not report.ok
    (finding,) = report.findings
    assert finding.subject == "d1"
    assert finding.path == ".snd"
    assert "User" in finding.message and "Trip" in finding.message


def test_undeclared_label_is_reported():
    graph = graph_of({"User": "1"}, {"u1": ("Ghost", Unit())})
    report = validate_graph(graph)
    assert any("Ghost" in f.message and f.subject == "u1" for f in report)


def test_dangling_ref_is_reported():
    graph = graph_of(
        {"User": "1", "name": "User * String"},
        {"n1": ("name", Pair(Ref(Atom("u9")), PrimVal("String", "x")))},
    )
    report = validate_graph(graph)
    assert any("u9" in f.message for f in report)


def test_schema_validation_catches_undeclared_label_refs():
    from apg.adt import Lbl, Prim, Prod

    report = validate_schema(Schema({"name": Prod(Lbl("User"), Prim("String"))}))
    assert not report.ok


def test_schema_validation_rejects_prim_shadowing():
    report = validate_schema(schema_of({"String": "1"}))
    assert not report.ok
    assert any("shadow" in f.message for f in report)


def test_unlabeled_label_must_be_unit():
    ok = Schema({UNLABELED: One()})
    assert validate_schema(ok).ok
    bad = schema_of({UNLABELED: "String"})
    assert not validate_schema(bad).ok


def test_unique_property_fixture_values_differ():
    graph = read_graph(load("names.apg"))
    assert check_unique_property(graph, "name") == []


def test_unique_property_flags_equal_values():
    graph = read_graph(load("names.apg"))
    elements = dict(graph.elements)
    elements[Atom("n3")] = elements[Atom("n1")]
    doubled = Graph(graph.schema, elements)
    assert check_unique_property(doubled, "name") == [(Atom("n1"), Atom("n3"))]


def test_unique_property_vacuous_and_unknown():
    graph = read_graph(load("names.apg"))
    empty = graph_of({"name": "String"}, {})
    assert check_unique_property(empty, "name") == []
    with pytest.raises(PreconditionError):
        check_unique_property(graph, "nope")


def test_primary_key_on_plates():
    graph = read_graph(load("plates1.apg"))
    assert check_primary_key(graph, "PlateNumber") == []


def test_primary_key_flags_shared_first_component():
    graph = graph_of(
        {"kv": "String * Nat"},
        {
            "a": ("kv", Pair(PrimVal("String", "k"), PrimVal("Nat", 1))),
            "b": ("kv", Pair(PrimVal("String", "k"), PrimVal("Nat", 2))),
        },
    )
    assert check_primary_key(graph, "kv") == [(Atom("a"), Atom("b"))]


def test_primary_key_requires_product():
    graph = graph_of({"User": "1"}, {})
    with pytest.raises(PreconditionError):
        check_primary_key(graph, "User")


def test_random_graphs_validate():
    rng = random.Random(3)
    for _ in range(50):
        assert validate_graph(random_graph(rng)).ok


def test_findings_are_listed_in_rendered_id_order():
    schema = Schema({"V": One(), "E": Prod(Lbl("V"), Lbl("V")), "Nat": One()})
    elements = {
        Atom("v9"): Element("Ghost", Unit()),
        Atom("v1"): Element("V", Unit()),
        Atom("e2"): Element("E", Pair(Ref(Atom("v1")), Ref(Atom("v7")))),
        Left(Atom("x")): Element("V", PrimVal("Nat", 1)),
        Atom("e10"): Element("E", Pair(Ref(Atom("v1")), Ref(Atom("e2")))),
        PairId(Atom("a"), Atom("b")): Element("E", Unit()),
        Atom("e3"): Element("E", Pair(Ref(Atom("v1")), Ref(Atom("v1")))),
    }
    report = validate_graph(Graph(schema, elements))
    assert [str(f) for f in report] == [
        "error: Nat: label shadows a primitive type name",
        "error: (a,b): expected V * V, found ()",
        "error: L:x: expected (), found a Nat literal",
        "error: e10.snd: expected a reference to V, found one to e2 labeled E",
        "error: e2.snd: reference to missing element v7",
        "error: v9: element has undeclared label 'Ghost'",
    ]


def test_each_key_that_is_no_element_id_is_one_finding():
    schema = Schema({"V": One()})
    elements = {Atom("v1"): Element("V", Unit()), "a b": Element("V", Unit()),
                5: Element("Ghost", Unit()), Left(Atom("x")): Element("V", Unit())}
    report = validate_graph(Graph(schema, elements))
    assert [str(f) for f in report] == ["error: 'a b': not an element id",
                                        "error: 5: not an element id",
                                        "error: 5: element has undeclared label 'Ghost'"]


@pytest.mark.parametrize("key", [
    PairId("a b", "c"), Left(PairId("x", "")), Class(Right("⊤ ⊤")), Enc("a b", Unit()),
    Enc("V", PrimVal("Double", float("nan"))), Enc("V", PrimVal("N t", 1)),
    Enc("V", PrimVal("String", None)), Enc("V", Pair(Unit(), Ref("a,b"))),
], ids=repr)
def test_a_composite_key_with_a_bad_part_is_one_finding(key):
    """Its text, written, is one that read_graph refuses."""
    g = Graph(Schema({"V": One()}), {key: Element("V", Unit())})
    assert [str(f) for f in validate_graph(g)] == [f"error: {key!r}: not an element id"]
    with pytest.raises(ParseError):
        read_graph(write_graph(g))


def test_composite_keys_whose_text_reads_back_are_element_ids():
    good = [PairId("a", Left("b")), Class(Right("⊤")),
            Enc("L:(x,y)", Pair(Ref(PairId("a", "b")), PrimVal("Double", 1)))]
    assert validate_graph(Graph(Schema({"V": One()}), {e: Element("V", Unit()) for e in good})).ok
