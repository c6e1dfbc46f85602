import random

import pytest

from apg.adt import Atom, Class, Left, PairId, Pair, PrimVal, Right
from apg.errors import PreconditionError
from apg.fixtures import load
from apg.files import read_graph
from apg.graph import Graph, validate_graph
from apg.integrate import match_by_key, merge_by_key
from apg.morphism import check_morphism

from .generators import graph_of, label_free_graph

PLATE_TYPES = {"PlateNumber": "String * String * String"}


def plates(country, region, number):
    return Pair(PrimVal("String", country),
                Pair(PrimVal("String", region), PrimVal("String", number)))


def fixture(name):
    return read_graph(load(name))


def test_match_finds_the_shared_plate():
    apex, m1, m2 = match_by_key(fixture("plates1.apg"), fixture("plates2.apg"))
    eid = PairId(Atom("p1"), Atom("q1"))
    assert set(apex.elements) == {eid}
    assert apex.elements[eid].value == plates("US", "CA", "6TRJ244")
    assert m1.on_elements == {eid: Atom("p1")}
    assert m2.on_elements == {eid: Atom("q1")}
    assert check_morphism(m1).ok and check_morphism(m2).ok


def test_match_of_disjoint_graphs_is_empty():
    other = graph_of(PLATE_TYPES, {"z1": ("PlateNumber", plates("CA", "ON", "CXKW-102"))})
    apex, _, _ = match_by_key(fixture("plates1.apg"), other)
    assert not apex.elements


def test_match_with_itself_is_the_diagonal():
    g = fixture("plates1.apg")
    apex, _, _ = match_by_key(g, g)
    assert set(apex.elements) == {PairId(Atom("p1"), Atom("p1")),
                                  PairId(Atom("p2"), Atom("p2"))}


def test_key_paths_narrow_the_comparison():
    g1, g2 = fixture("plates1.apg"), fixture("plates2.apg")
    by_country, _, _ = match_by_key(g1, g2, key="fst")
    assert set(by_country.elements) == {PairId(Atom("p1"), Atom("q1")),
                                        PairId(Atom("p2"), Atom("q2"))}
    by_region, _, _ = match_by_key(g1, g2, key="snd.fst")
    assert set(by_region.elements) == {PairId(Atom("p1"), Atom("q1"))}
    by_number, _, _ = match_by_key(g1, g2, key="snd.snd")
    assert set(by_number.elements) == {PairId(Atom("p1"), Atom("q1"))}


def test_match_requires_one_schema():
    with pytest.raises(PreconditionError):
        match_by_key(fixture("plates1.apg"), fixture("vertices.apg"))


def test_match_refuses_types_with_label_references():
    g = fixture("names.apg")
    with pytest.raises(PreconditionError, match="references labels"):
        match_by_key(g, g)


def test_match_rejects_bad_keys():
    g1, g2 = fixture("plates1.apg"), fixture("plates2.apg")
    with pytest.raises(PreconditionError, match="expected fst or snd"):
        match_by_key(g1, g2, key="fst.bogus")
    with pytest.raises(PreconditionError, match="not a product"):
        match_by_key(g1, g2, key="fst.fst")


def test_merge_collapses_the_shared_plate():
    merged = merge_by_key(fixture("plates1.apg"), fixture("plates2.apg"))
    assert validate_graph(merged).ok
    expected = {
        Class(Left(Atom("p1"))): plates("US", "CA", "6TRJ244"),
        Class(Left(Atom("p2"))): plates("MX", "BC", "AHD-41-02"),
        Class(Right(Atom("q2"))): plates("MX", "SON", "VUK-17-75"),
    }
    assert {e: el.value for e, el in merged.elements.items()} == expected


def test_merge_of_disjoint_graphs_keeps_everything():
    other = graph_of(PLATE_TYPES, {"z1": ("PlateNumber", plates("CA", "ON", "CXKW-102"))})
    merged = merge_by_key(fixture("plates1.apg"), other)
    assert len(merged.elements) == 3
    assert all(isinstance(e, Class) for e in merged.elements)


def test_merge_with_an_empty_graph_preserves_values():
    g = fixture("plates1.apg")
    empty = Graph(g.schema, {})
    merged = merge_by_key(g, empty)
    assert {el.value for el in merged.elements.values()} == {
        el.value for el in g.elements.values()
    }
    assert len(merged.elements) == len(g.elements)


def test_merge_is_symmetric_in_content():
    g1, g2 = fixture("plates1.apg"), fixture("plates2.apg")
    a = merge_by_key(g1, g2)
    b = merge_by_key(g2, g1)
    assert sorted(repr(el.value) for el in a.elements.values()) == \
        sorted(repr(el.value) for el in b.elements.values())


def test_merge_with_itself_collapses_equal_values():
    rng = random.Random(31)
    for _ in range(10):
        g = label_free_graph(rng)
        assert validate_graph(g).ok
        merged = merge_by_key(g, g)
        distinct = {(el.label, el.value) for el in g.elements.values()}
        assert len(merged.elements) == len(distinct)
        assert validate_graph(merged).ok
