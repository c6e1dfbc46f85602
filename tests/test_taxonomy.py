import pytest

from apg.adt import Lbl, One, Prod
from apg.errors import PreconditionError
from apg.fixtures import load
from apg.files import read_graph
from apg.graph import Schema
from apg.taxonomy import (
    DataTypeAlias,
    Edge,
    EdgeProperty,
    HigherOrderEdge,
    Hyperelement,
    MetaProperty,
    Tag,
    Vertex,
    VertexProperty,
    classify_graph,
    classify_label,
    describe,
)

from .generators import schema_of

RIDES = {
    "Person": "1",
    "User": "1",
    "Place": "1",
    "Trip": "User * User",
    "driver": "Trip * User",
    "rider": "Trip * User",
    "knows": "Person * Person",
    "name": "User * String",
    "driverStatus": "driver * String",
    "DegreesLatitude": "Double",
    "DegreesLongitude": "Double",
    "UnixTimeSeconds": "Integer",
    "Completed": "Trip",
    "Updated": "Trip",
    "Cancelled": "Trip",
}


def test_the_ride_sharing_vocabulary_classifies_strictly():
    kinds = classify_graph(schema_of(RIDES))
    expected = {
        "Person": Vertex(),
        "User": Vertex(),
        "Place": Vertex(),
        "Trip": Edge(),
        "driver": HigherOrderEdge(),
        "rider": HigherOrderEdge(),
        "knows": Edge(),
        "name": VertexProperty(),
        "driverStatus": Hyperelement(),
        "DegreesLatitude": DataTypeAlias(),
        "DegreesLongitude": DataTypeAlias(),
        "UnixTimeSeconds": DataTypeAlias(),
        "Completed": Tag(Edge()),
        "Updated": Tag(Edge()),
        "Cancelled": Tag(Edge()),
    }
    assert kinds == expected


def test_trip_as_a_plain_edge_end_makes_properties_of_it():
    types = dict(RIDES, Trip="1", driver="Trip * User", driverStatus="driver * String")
    kinds = classify_graph(schema_of(types))
    assert kinds["Trip"] == Vertex()
    assert kinds["driver"] == Edge()
    assert kinds["driverStatus"] == EdgeProperty()
    assert kinds["Completed"] == Tag(Vertex())


def test_the_trip_record_is_a_hyperelement():
    g = read_graph(load("trips.apg"))
    kinds = classify_graph(g.schema)
    assert kinds["User"] == Vertex()
    assert kinds["Place"] == Vertex()
    assert kinds["UnixTimeSeconds"] == DataTypeAlias()
    assert kinds["PlaceEvent"] == Hyperelement()
    assert kinds["Trip"] == Hyperelement()


def test_generalized_mode_chases_alias_chains():
    g = read_graph(load("trips.apg"))
    kinds = classify_graph(g.schema, strict=False)
    # the data half of PlaceEvent dereferences to an Integer alias
    assert kinds["PlaceEvent"] == VertexProperty()
    # but Trip still references PlaceEvent, which is not an alias
    assert kinds["Trip"] == Hyperelement()

    chained = schema_of({
        "Status": "String",
        "Flag": "Status + Status",
        "User": "1",
        "owns": "User * User",
        "note": "owns * Flag",
    })
    strict = classify_graph(chained)
    assert strict["Flag"] == Hyperelement()
    assert strict["note"] == Hyperelement()
    loose = classify_graph(chained, strict=False)
    assert loose["Status"] == DataTypeAlias()
    assert loose["Flag"] == DataTypeAlias()
    assert loose["note"] == EdgeProperty()


def test_generalized_mode_still_rejects_structural_references():
    types = schema_of({"User": "1", "pair": "User * User", "odd": "pair + String"})
    kinds = classify_graph(types, strict=False)
    # a sum mentioning an edge is no alias in either mode
    assert kinds["odd"] == Hyperelement()
    assert classify_graph(types)["odd"] == Hyperelement()


def test_meta_properties_hang_off_properties():
    types = schema_of({
        "User": "1",
        "name": "User * String",
        "since": "name * Integer",
    })
    kinds = classify_graph(types)
    assert kinds["since"] == MetaProperty()


def test_cycles_become_hyperelements_in_both_modes():
    looped = schema_of({"a": "b", "b": "a", "c": "a"})
    for strict in (True, False):
        kinds = classify_graph(looped, strict=strict)
        assert kinds["a"] == Hyperelement()
        assert kinds["b"] == Hyperelement()
        assert kinds["c"] == Tag(Hyperelement())


def test_self_reference_is_a_cycle():
    kinds = classify_graph(schema_of({"a": "a"}))
    assert kinds["a"] == Hyperelement()


def test_tags_report_what_they_tag():
    types = schema_of({"User": "1", "Active": "User", "Marked": "Active"})
    kinds = classify_graph(types)
    assert kinds["Active"] == Tag(Vertex())
    assert kinds["Marked"] == Tag(Tag(Vertex()))
    assert describe(kinds["Marked"]) == "Tag(Tag(Vertex))"


def test_undeclared_references_classify_as_hyperelements():
    # the type parser would reject the dangling name, so build it directly
    schema = Schema({"User": One(), "ghostly": Lbl("Ghost")})
    kinds = classify_graph(schema)
    assert kinds["ghostly"] == Tag(Hyperelement())


def test_an_undeclared_left_side_still_lets_a_cycle_settle():
    # the right side waits on the label itself; the stall walk must see it
    schema = Schema({"E": Prod(Lbl("Ghost"), Lbl("E"))})
    assert classify_graph(schema, strict=True) == {"E": Hyperelement()}
    assert classify_graph(schema, strict=False) == {"E": Hyperelement()}


def test_classify_label_checks_its_argument():
    schema = schema_of({"User": "1"})
    assert classify_label(schema, "User") == Vertex()
    with pytest.raises(PreconditionError):
        classify_label(schema, "Nothing")


def test_describe_is_flat_text():
    assert describe(Vertex()) == "Vertex"
    assert describe(Tag(Edge())) == "Tag(Edge)"
    assert describe(Hyperelement()) == "Hyperelement"
