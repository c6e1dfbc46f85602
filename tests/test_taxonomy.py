import hashlib
import random

import pytest

from apg import taxonomy
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

from .generators import random_type, schema_of, tag_chain

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
    # the right side waits on the label itself, which closes a cycle
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


def seeded_schemas(count: int):
    """Schemas of one to six labels whose types refer to any label, itself
    and an undeclared one included, so cycles and self-references occur."""
    for seed in range(count):
        rng = random.Random(seed)
        labels = [f"l{i}" for i in range(rng.randint(1, 6))]
        yield Schema({label: random_type(rng, [*labels, "ghost"], rng.randint(0, 2))
                      for label in labels})


# sha256 of the strict classification of seeded_schemas(2000), as the
# pass-by-pass classifier with its stall search wrote it
STRICT_DIGEST = "b9e64681dc56d969516bc10729e89fc6b012af23415bb9e1c8e3afece7f3ffac"


def test_strict_classification_of_seeded_schemas_is_as_recorded():
    h = hashlib.sha256()
    for schema in seeded_schemas(2000):
        kinds = classify_graph(schema)
        h.update("".join(f"{label}\t{describe(kinds[label])}\n"
                         for label in schema.sorted_labels()).encode() + b"\n")
    assert h.hexdigest() == STRICT_DIGEST


@pytest.mark.parametrize("strict", [True, False])
def test_each_kind_is_what_its_rule_gives_or_a_hyperelement(strict):
    for schema in seeded_schemas(500):
        kinds = classify_graph(schema, strict)
        assert kinds.keys() == schema.labels.keys()
        for label, kind in kinds.items():
            if kind != Hyperelement():
                assert kind == taxonomy._attempt(schema, label, kinds, strict), (schema, label)


@pytest.mark.parametrize("strict", [True, False])
def test_a_tag_chain_takes_a_linear_number_of_rule_attempts(monkeypatch, strict):
    # in sorted order every label waits on the next, the worst order for a chain
    schema = schema_of(tag_chain(3000))
    attempts = []
    attempt = taxonomy._attempt
    monkeypatch.setattr(taxonomy, "_attempt", lambda *args: attempts.append(1) or attempt(*args))
    kinds = classify_graph(schema, strict)
    assert len(attempts) <= 2 * len(schema.labels)
    assert describe(kinds["l00000"]) == "Tag(" * 3000 + "Vertex" + ")" * 3000


def test_a_tag_chain_compares_hashes_and_prints_without_recursion():
    schema = schema_of(tag_chain(3000))
    first, second = classify_graph(schema), classify_graph(schema)
    assert first == second
    assert hash(first["l00000"]) == hash(second["l00000"])
    assert repr(first["l00000"]) == "Tag(of=" * 3000 + "Vertex()" + ")" * 3000
    assert first["l00000"] != first["l00001"] and first["l00000"] != Vertex()
    assert Tag(Vertex()) != Tag(Edge()) and Tag(Vertex()) == Tag(Vertex())
    assert repr(Tag(Edge())) == "Tag(of=Edge())"


@pytest.mark.parametrize("strict", [True, False])
def test_classify_label_settles_only_what_the_label_waits_on(monkeypatch, strict):
    schema = schema_of(tag_chain(3000))
    attempts = []
    attempt = taxonomy._attempt
    monkeypatch.setattr(taxonomy, "_attempt", lambda *args: attempts.append(1) or attempt(*args))
    assert classify_label(schema, "l03000", strict) == Vertex()
    assert len(attempts) == 1


@pytest.mark.parametrize("strict", [True, False])
def test_classify_label_gives_what_classify_graph_gives(strict):
    for schema in seeded_schemas(2000):
        kinds = classify_graph(schema, strict)
        assert {label: classify_label(schema, label, strict) for label in schema.labels} == kinds
