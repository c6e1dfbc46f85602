"""Behaviour pinned at the shared helpers: one type walk, one tagged union and
one key grouping each serve several callers, so a wrong walk order, a lost
prefix or a mis-ordered group shows up here first."""

import json

import pytest

from apg.adt import Atom, Lbl, Left, One, PrimVal, Prim, Prod, Right, Sum, Unit, label_free, labels_in
from apg.catops import coproduct, disjoint_union
from apg.errors import PreconditionError
from apg.files import read_graph
from apg.fixtures import load
from apg.graph import Graph, Schema, check_primary_key, check_unique_property, validate_schema
from apg.migrate import SchemaMapping, delta_migrate, parse_term
from apg.morphism import check_morphism
from apg.taxonomy import classify_graph, describe

from .generators import graph_of, schema_of


def fixture(name):
    return read_graph(load(name))


# ---------------------------------------------------------------------------
# Type walk

def test_validate_schema_reports_type_problems_in_walk_order():
    # Depth-first, left before right: a breadth-first walk would report
    # Phantom first, a right-first walk Blob first.
    t = Prod(Sum(Lbl("Ghost"), Prod(Lbl(""), Prim("Blob"))), Lbl("Phantom"))
    report = validate_schema(Schema({"Bad": t, "V": One()}))
    assert [str(f) for f in report] == [
        "error: Bad: type references undeclared label 'Ghost'",
        "error: Bad: the reserved unlabeled-vertex label cannot be referenced",
        "error: Bad: type references unregistered primitive 'Blob'",
        "error: Bad: type references undeclared label 'Phantom'",
    ]


def deep_product(factors: int, last):
    """String * (String * ... (String * last)), nested factors deep."""
    t = last
    for _ in range(factors - 1):
        t = Prod(Prim("String"), t)
    return t


def test_type_walks_handle_a_5000_factor_product():
    t = deep_product(5000, Lbl("V"))
    assert not label_free(t)
    assert labels_in(t) == {"V"}
    assert validate_schema(Schema({"V": One(), "Wide": t})).ok
    assert label_free(deep_product(5000, Prim("Nat")))
    assert labels_in(deep_product(5000, Prim("Nat"))) == set()


def test_classification_handles_a_5000_factor_product():
    schema = Schema({"V": One(), "Wide": deep_product(5000, Lbl("V"))})
    for strict in (True, False):
        kinds = classify_graph(schema, strict=strict)
        assert describe(kinds["Wide"]) == "Hyperelement"


def test_generalized_alias_check_waits_at_the_first_unsettled_label():
    # X = Y + V: Y is unsettled when X is first tried, so X waits even though
    # V, further right, is already known not to be an alias.  X and Y then
    # form a cycle and both become hyperelements; deciding X early would
    # make Y a Tag(Hyperelement) instead.
    schema = Schema({"V": One(), "X": Sum(Lbl("Y"), Lbl("V")), "Y": Lbl("X")})
    kinds = classify_graph(schema, strict=False)
    assert {l: describe(k) for l, k in kinds.items()} == {
        "V": "Vertex", "X": "Hyperelement", "Y": "Hyperelement",
    }


@pytest.mark.parametrize("witness, rendered", [
    (Sum(One(), Prim("Nat")), "1 + Nat"),
    (Prod(Lbl("User"), Prim("String")), "User * String"),
])
def test_migrate_rejects_a_nested_primitive(witness, rendered):
    g = fixture("vertices.apg")
    m = SchemaMapping(
        source=schema_of({"V": "1"}),
        target=g.schema,
        on_labels={"V": witness},
        on_terms={"V": parse_term("()")},
    )
    with pytest.raises(PreconditionError) as err:
        delta_migrate(m, g)
    assert str(err.value) == (
        f"mapped type of 'V' is outside the enumerable fragment: {rendered}"
    )


# ---------------------------------------------------------------------------
# Key grouping

def test_unique_property_lists_every_colliding_pair_in_id_order():
    x, y, z = (PrimVal("String", s) for s in "xyz")
    graph = graph_of(
        {"name": "String"},
        {"e": ("name", x), "d": ("name", y), "c": ("name", x), "f": ("name", z),
         "b": ("name", y), "a": ("name", x)},
    )
    a, b, c, d, e = (Atom(n) for n in "abcde")
    assert check_unique_property(graph, "name") == [(a, c), (a, e), (b, d), (c, e)]


def test_unique_property_pairs_three_equal_values():
    v = PrimVal("String", "same")
    graph = graph_of({"name": "String"}, {n: ("name", v) for n in "cba"})
    a, b, c = (Atom(n) for n in "abc")
    assert check_unique_property(graph, "name") == [(a, b), (a, c), (b, c)]


def test_primary_key_names_the_first_element_without_a_pair():
    doc = {
        "schema": {"kv": "String * Nat"},
        "elements": {
            "a": {"label": "kv", "value": {"pair": [
                {"prim": {"type": "String", "value": "k"}},
                {"prim": {"type": "Nat", "value": 1}},
            ]}},
            "z": {"label": "kv", "value": {"unit": {}}},
            "b": {"label": "kv", "value": {"prim": {"type": "Nat", "value": 3}}},
        },
    }
    graph = read_graph(json.dumps(doc), validate=False)
    backwards = Graph(graph.schema, dict(reversed(graph.elements.items())))
    for g in (graph, backwards):
        with pytest.raises(PreconditionError) as err:
            check_primary_key(g, "kv")
        assert str(err.value) == "element b does not hold a pair"


@pytest.mark.parametrize("check", [check_unique_property, check_primary_key])
def test_key_checks_refuse_an_unknown_label(check):
    with pytest.raises(PreconditionError) as err:
        check(graph_of({"kv": "String * Nat"}, {}), "nope")
    assert str(err.value) == "unknown label 'nope'"


def test_primary_key_refuses_a_non_product_label():
    with pytest.raises(PreconditionError) as err:
        check_primary_key(graph_of({"V": "1"}, {"v": ("V", Unit())}), "V")
    assert str(err.value) == "the type of 'V' is not a product"


# ---------------------------------------------------------------------------
# Tagged union

def test_coproduct_and_disjoint_union_tag_alike():
    g = fixture("edges.apg")
    tagged = coproduct(g, g)
    shared = disjoint_union(g, g)
    order = [Left(e) for e in g.sorted_ids()] + [Right(e) for e in g.sorted_ids()]
    assert list(tagged.graph.elements) == order
    assert list(shared.graph.elements) == order
    assert shared.graph.schema == g.schema
    assert sorted(tagged.graph.schema.labels) == sorted(
        p + l for p in ("L:", "R:") for l in g.schema.labels
    )
    for e, el in tagged.graph.elements.items():
        prefix = "L:" if isinstance(e, Left) else "R:"
        assert el.label == prefix + shared.graph.elements[e].label
        assert el.value == shared.graph.elements[e].value
    for result in (tagged, shared):
        for leg in result.legs.values():
            assert check_morphism(leg).ok
