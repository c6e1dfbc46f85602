import random
import re
from collections import Counter
from itertools import product

import pytest

from apg import catops, integrate
from apg.adt import (Atom, Class, Inl, Inr, Left, One, PairId, Pair, Prim, PrimVal, Prod,
                     Right, Unit)
from apg.catops import pushout
from apg.errors import PreconditionError
from apg.fixtures import load
from apg.files import read_graph, write_graph
from apg.graph import Element, Graph, validate_graph
from apg.integrate import match_by_key, merge_by_key
from apg.morphism import check_morphism

from .generators import graph_of, label_free_graph, random_id, schema_of

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


def test_merge_walks_no_value_for_references(monkeypatch):
    """merge_by_key takes label-free types only, so the pushout copies each
    value as it is; a type that holds a label is still walked."""
    walked = []
    transport = catops.transport_value
    monkeypatch.setattr(catops, "transport_value",
                        lambda refs, v: walked.append(v) or transport(refs, v))
    merge_by_key(fixture("plates1.apg"), fixture("plates2.apg"))
    assert walked == []
    edges = fixture("edges.apg")
    catops.coproduct(edges, edges)
    assert walked


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


# ---------------------------------------------------------------------------
# Merge glues along a spanning subset of the span; the full span is the oracle

KEYS = ("", "fst", "snd", "snd.fst")


def assert_merge_matches_the_full_span(g1, g2, key):
    """merge_by_key writes what the pushout of the full span writes, or
    raises what match_by_key raises; False when the key does not apply."""
    try:
        expected = write_graph(pushout(*match_by_key(g1, g2, key)[1:]).graph)
    except PreconditionError as err:
        with pytest.raises(PreconditionError, match=re.escape(err.args[0])):
            merge_by_key(g1, g2, key)
        return False
    assert write_graph(merge_by_key(g1, g2, key)) == expected
    return True


def test_merge_equals_the_full_span_pushout_on_the_fixtures():
    graphs = [fixture(name) for name in
              ("plates1.apg", "plates2.apg", "vertices.apg", "mapping_input.apg")]
    applied = [key for g1, g2 in product(graphs, repeat=2) if g1.schema == g2.schema
               for key in KEYS if assert_merge_matches_the_full_span(g1, g2, key)]
    assert sorted(set(applied)) == sorted(KEYS)


POOLED_TYPES = {"A": "String * (Nat * Boolean)", "B": "(1 + Nat) * (String * (1 + 1))"}
POOL = {"String": ["a", "b"], "Nat": [0, 1], "Boolean": [True, False]}


def pooled_value(rng, t):
    """A value of t whose literals come from POOL, so keys repeat often."""
    if isinstance(t, One):
        return Unit()
    if isinstance(t, Prim):
        return PrimVal(t.name, rng.choice(POOL[t.name]))
    if isinstance(t, Prod):
        return Pair(pooled_value(rng, t.left), pooled_value(rng, t.right))
    return Inl(pooled_value(rng, t.left)) if rng.random() < 0.5 else Inr(pooled_value(rng, t.right))


def pooled_graph(rng, schema):
    elements = {}
    for label in sorted(schema.labels):
        for _ in range(rng.randrange(12)):
            elements.setdefault(random_id(rng, 2),
                                Element(label, pooled_value(rng, schema.labels[label])))
    return Graph(schema, elements)


def test_merge_equals_the_full_span_pushout_on_random_pairs():
    rng = random.Random(1414)
    schema = schema_of(POOLED_TYPES)
    both_sides_repeat = 0
    for trial in range(300):
        g1, g2 = pooled_graph(rng, schema), pooled_graph(rng, schema)
        key = KEYS[trial % len(KEYS)]
        assert assert_merge_matches_the_full_span(g1, g2, key)
        apex = match_by_key(g1, g2, key)[0]
        left = Counter(e.first for e in apex.elements)
        right = Counter(e.second for e in apex.elements)
        both_sides_repeat += any(left[e.first] > 1 and right[e.second] > 1 for e in apex.elements)
    assert both_sides_repeat >= 150


def one_key_graph(prefix, n):
    return graph_of({"Plate": "String * Nat"}, {
        f"{prefix}{i}": ("Plate", Pair(PrimVal("String", "US"), PrimVal("Nat", i)))
        for i in range(n)})


def test_a_single_shared_key_reaches_the_pushout_as_n1_plus_n2_pairs(monkeypatch):
    apex_sizes = []

    def recording(f, g):
        apex_sizes.append(len(f.source.elements))
        return pushout(f, g)

    monkeypatch.setattr(integrate, "pushout", recording)
    n1 = n2 = 4096
    merged = merge_by_key(one_key_graph("p", n1), one_key_graph("q", n2), key="fst")
    assert len(apex_sizes) == 1 and apex_sizes[0] <= n1 + n2
    assert list(merged.elements) == [Class(Left(Atom("p0")))]


def test_match_keeps_the_full_span_of_a_single_shared_key():
    g1, g2 = one_key_graph("p", 5), one_key_graph("q", 7)
    apex, m1, m2 = match_by_key(g1, g2, key="fst")
    assert set(apex.elements) == {PairId(a, b) for a, b in product(g1.elements, g2.elements)}
    assert check_morphism(m1).ok and check_morphism(m2).ok
