import random

import pytest

from apg import catops
from apg.adt import (
    Atom,
    Class,
    Inl,
    Inr,
    Lbl,
    Left,
    One,
    Pair,
    PairId,
    Prim,
    PrimRegistry,
    PrimVal,
    Prod,
    Ref,
    Right,
    Sum,
    Unit,
)
from apg.catops import (
    TERMINAL_LABEL,
    case_analysis,
    coequalizer,
    coproduct,
    disjoint_union,
    equalizer,
    initial_graph,
    pair,
    product,
    pushout,
    terminal_graph,
    unique_morphism,
)
from apg.errors import PreconditionError
from apg.fixtures import load
from apg.files import read_graph
from apg.graph import Element, Graph, Schema, validate_graph
from apg.morphism import Morphism, check_morphism, compose, identity

from .generators import (
    graph_of,
    parallel_pair,
    permutation_morphism,
    random_graph,
    renamed_copy,
    subgraph_inclusion,
)


def fixture(name):
    return read_graph(load(name))


def same_maps(h, j):
    return h.on_labels == j.on_labels and h.on_elements == j.on_elements


def name_swap(g):
    swap = {Atom("n1"): Atom("n2"), Atom("n2"): Atom("n1"), Atom("u1"): Atom("u1")}
    return Morphism(g, g, {l: l for l in g.schema.labels}, swap)


# ---------------------------------------------------------------------------
# Initial and terminal graphs

def test_initial_graph_is_empty():
    g = initial_graph()
    assert not g.schema.labels and not g.elements
    assert validate_graph(g).ok


def test_terminal_graph_is_one_point():
    g = terminal_graph()
    assert g.schema.labels == {TERMINAL_LABEL: One()}
    assert list(g.elements.values()) == [Element(TERMINAL_LABEL, Unit())]
    assert validate_graph(g).ok


def test_unique_morphisms_are_morphisms():
    g = fixture("edges.apg")
    assert check_morphism(unique_morphism(g, "from-initial")).ok
    assert check_morphism(unique_morphism(g, "to-terminal")).ok
    with pytest.raises(PreconditionError):
        unique_morphism(g, "sideways")


# ---------------------------------------------------------------------------
# Product

def test_product_of_single_vertices():
    g = fixture("vertices.apg")
    r = product(g, g)
    assert set(r.graph.schema.labels) == {
        "(Trip,Trip)", "(Trip,User)", "(User,Trip)", "(User,User)"
    }
    assert all(t == Prod(One(), One()) for t in r.graph.schema.labels.values())
    assert len(r.graph.elements) == 4
    eid = PairId(Atom("u1"), Atom("t1"))
    assert r.graph.elements[eid] == Element("(User,Trip)", Pair(Unit(), Unit()))
    assert r.legs["proj1"].on_elements[eid] == Atom("u1")
    assert r.legs["proj2"].on_elements[eid] == Atom("t1")


def test_product_pairs_references_with_the_fixed_side():
    edges = fixture("edges.apg")
    vertices = fixture("vertices.apg")
    r = product(edges, vertices)
    assert r.graph.schema.labels["(driver,User)"] == Prod(
        Prod(Lbl("(Trip,User)"), Lbl("(User,User)")), One()
    )
    eid = PairId(Atom("d1"), Atom("u1"))
    assert r.graph.elements[eid] == Element(
        "(driver,User)",
        Pair(
            Pair(Ref(PairId(Atom("t1"), Atom("u1"))), Ref(PairId(Atom("u1"), Atom("u1")))),
            Unit(),
        ),
    )


def test_product_counting_and_legs_random():
    rng = random.Random(21)
    for _ in range(10):
        g1, g2 = random_graph(rng), random_graph(rng)
        r = product(g1, g2)
        assert len(r.graph.elements) == len(g1.elements) * len(g2.elements)
        assert len(r.graph.schema.labels) == len(g1.schema.labels) * len(g2.schema.labels)
        assert validate_graph(r.graph).ok
        assert check_morphism(r.legs["proj1"]).ok
        assert check_morphism(r.legs["proj2"]).ok


def test_pairing_satisfies_projection_equations():
    rng = random.Random(22)
    for _ in range(10):
        x = random_graph(rng)
        f = permutation_morphism(rng, x)
        g = permutation_morphism(rng, x)
        paired = pair(f, g)
        assert check_morphism(paired).ok
        r = product(x, x)
        assert same_maps(compose(r.legs["proj1"], paired), f)
        assert same_maps(compose(r.legs["proj2"], paired), g)


def test_pairing_needs_common_source():
    with pytest.raises(PreconditionError):
        pair(identity(fixture("vertices.apg")), identity(fixture("edges.apg")))


def test_product_rejects_mixed_registries():
    g = fixture("vertices.apg")
    other = Graph(Schema({}, PrimRegistry({"Text": "string"})), {})
    with pytest.raises(PreconditionError):
        product(g, other)


# ---------------------------------------------------------------------------
# Coproduct

def test_coproduct_tags_both_sides():
    r = coproduct(fixture("plates1.apg"), fixture("plates2.apg"))
    assert set(r.graph.schema.labels) == {"L:PlateNumber", "R:PlateNumber"}
    assert set(r.graph.elements) == {
        Left(Atom("p1")), Left(Atom("p2")), Right(Atom("q1")), Right(Atom("q2"))
    }
    assert r.graph.elements[Left(Atom("p1"))].label == "L:PlateNumber"
    assert r.legs["inj1"].on_elements[Atom("p1")] == Left(Atom("p1"))
    assert validate_graph(r.graph).ok


def test_coproduct_retags_references():
    r = coproduct(fixture("edges.apg"), fixture("vertices.apg"))
    assert r.graph.schema.labels["L:driver"] == Prod(Lbl("L:Trip"), Lbl("L:User"))
    assert r.graph.elements[Left(Atom("d1"))].value == Pair(
        Ref(Left(Atom("t1"))), Ref(Left(Atom("u1")))
    )


def test_the_coproduct_makes_refs_only_for_label_typed_values(monkeypatch):
    refs = []
    monkeypatch.setattr(catops, "Ref", lambda e: refs.append(e) or Ref(e))
    coproduct(fixture("plates1.apg"), fixture("plates2.apg"))
    assert len(refs) == 0  # every label of the plates is label-free
    coproduct(fixture("edges.apg"), fixture("edges.apg"))
    assert len(refs) > 0


def test_the_equalizer_makes_refs_only_for_label_typed_values(monkeypatch):
    refs = []
    monkeypatch.setattr(catops, "Ref", lambda e: refs.append(e) or Ref(e))
    plates = fixture("plates1.apg")
    assert len(equalizer(identity(plates), identity(plates)).graph.elements) > 0
    assert len(refs) == 0  # every label of the plates is label-free
    equalizer(identity(fixture("edges.apg")), identity(fixture("edges.apg")))
    assert len(refs) > 0


def _refs_in(v):
    stack = [v]
    while stack:
        v = stack.pop()
        if isinstance(v, Ref):
            yield v
        elif isinstance(v, Pair):
            stack += (v.first, v.second)
        elif isinstance(v, (Inl, Inr)):
            stack.append(v.inner)


@pytest.mark.parametrize("construct", [
    coproduct, disjoint_union, lambda g1, g2: pushout(identity(g1), identity(g2)),
], ids=["coproduct", "disjoint_union", "pushout"])
def test_each_new_id_is_one_object(construct):
    """The element key, every leg image and the id inside every Ref to an
    element are one object, not equal copies."""
    g = fixture("trips.apg")
    r = construct(g, g)
    key = {e: e for e in r.graph.elements}
    for leg in r.legs.values():
        assert all(key[image] is image for image in leg.on_elements.values())
    refs = [ref for el in r.graph.elements.values() for ref in _refs_in(el.value)]
    assert refs and all(key[ref.element] is ref.element for ref in refs)


def test_coproduct_counting_and_legs_random():
    rng = random.Random(23)
    for _ in range(10):
        g1, g2 = random_graph(rng), random_graph(rng)
        r = coproduct(g1, g2)
        assert len(r.graph.elements) == len(g1.elements) + len(g2.elements)
        assert len(r.graph.schema.labels) == len(g1.schema.labels) + len(g2.schema.labels)
        assert validate_graph(r.graph).ok
        assert check_morphism(r.legs["inj1"]).ok
        assert check_morphism(r.legs["inj2"]).ok


def test_case_analysis_satisfies_injection_equations():
    rng = random.Random(24)
    for _ in range(10):
        x = random_graph(rng)
        f = permutation_morphism(rng, x)
        g = identity(x)
        merged = case_analysis(f, g)
        assert check_morphism(merged).ok
        r = coproduct(x, x)
        assert same_maps(compose(merged, r.legs["inj1"]), f)
        assert same_maps(compose(merged, r.legs["inj2"]), g)


def test_case_analysis_needs_common_target():
    with pytest.raises(PreconditionError):
        case_analysis(identity(fixture("vertices.apg")), identity(fixture("edges.apg")))


# ---------------------------------------------------------------------------
# Equalizer

def test_equalizer_of_identities_keeps_everything_wrapped():
    g = fixture("names.apg")
    r = equalizer(identity(g), identity(g))
    assert set(r.graph.elements) == set(g.elements)
    assert r.graph.schema.labels["name"] == Prod(
        Sum(One(), Lbl("User")), Prim("String")
    )
    assert r.graph.elements[Atom("n1")].value == Pair(
        Inr(Ref(Atom("u1"))), PrimVal("String", "Arthur Dent")
    )
    assert r.graph.elements[Atom("u1")].value == Unit()
    assert validate_graph(r.graph).ok
    assert check_morphism(r.legs["eq"]).ok


def test_equalizer_drops_disagreeing_elements():
    g = fixture("names.apg")
    r = equalizer(name_swap(g), identity(g))
    assert set(r.graph.elements) == {Atom("u1")}
    # both names survive as labels because the label maps agree
    assert set(r.graph.schema.labels) == {"User", "name"}


def test_equalizer_equalizes_random():
    rng = random.Random(25)
    pairs = [parallel_pair(rng, random_graph(rng)) for _ in range(15)]
    g = fixture("names.apg")
    pairs.append((name_swap(g), identity(g)))
    for h, j in pairs:
        r = equalizer(h, j)
        assert validate_graph(r.graph).ok
        assert same_maps(compose(h, r.legs["eq"]), compose(j, r.legs["eq"]))


def test_equalizer_keeps_unit_for_a_reference_into_a_dropped_label():
    g = graph_of({"A": "1", "B": "A"}, {"a": ("A", Unit()), "b": ("B", Ref(Atom("a")))})
    target = graph_of({"A": "1", "A2": "1", "B": "A"},
                      {"a": ("A", Unit()), "a2": ("A2", Unit()), "b": ("B", Ref(Atom("a")))})
    b = {Atom("b"): Atom("b")}
    h = Morphism(g, target, {"A": "A", "B": "B"}, {Atom("a"): Atom("a"), **b})
    j = Morphism(g, target, {"A": "A2", "B": "B"}, {Atom("a"): Atom("a2"), **b})
    assert check_morphism(h).ok and check_morphism(j).ok
    r = equalizer(h, j)  # A's images differ, so only B survives, and its type A becomes 1
    assert r.graph.schema.labels == {"B": One()}
    assert r.graph.elements[Atom("b")].value == Unit()
    assert validate_graph(r.graph).ok


def test_equalizer_refuses_a_dangling_reference_as_the_other_constructions_do():
    g = graph_of({"V": "1", "E": "V"}, {"v": ("V", Unit()), "e": ("E", Ref(Atom("ghost")))})
    for construct in (lambda: equalizer(identity(g), identity(g)),
                      lambda: coequalizer(identity(g), identity(g)),
                      lambda: coproduct(g, g), lambda: pushout(identity(g), identity(g))):
        with pytest.raises(PreconditionError, match="^element ghost outside the transport domain$"):
            construct()


def test_equalizer_needs_a_parallel_pair():
    with pytest.raises(PreconditionError):
        equalizer(identity(fixture("names.apg")), identity(fixture("edges.apg")))


# ---------------------------------------------------------------------------
# Disjoint union and coequalizer

def test_disjoint_union_keeps_schema_and_tags_elements():
    g1, g2 = fixture("plates1.apg"), fixture("plates2.apg")
    r = disjoint_union(g1, g2)
    assert r.graph.schema == g1.schema
    assert set(r.graph.elements) == {
        Left(Atom("p1")), Left(Atom("p2")), Right(Atom("q1")), Right(Atom("q2"))
    }
    assert validate_graph(r.graph).ok
    assert check_morphism(r.legs["inj1"]).ok
    assert check_morphism(r.legs["inj2"]).ok


def test_disjoint_union_needs_shared_schema():
    with pytest.raises(PreconditionError):
        disjoint_union(fixture("plates1.apg"), fixture("vertices.apg"))


def test_coequalizer_collapses_the_swapped_pair():
    g = fixture("names.apg")
    r = coequalizer(name_swap(g), identity(g))
    assert set(r.graph.elements) == {Class(Atom("n1")), Class(Atom("u1"))}
    assert r.graph.elements[Class(Atom("n1"))].value == Pair(
        Ref(Class(Atom("u1"))), PrimVal("String", "Arthur Dent")
    )
    leg = r.legs["coeq"]
    assert leg.on_elements[Atom("n1")] == Class(Atom("n1"))
    assert leg.on_elements[Atom("n2")] == Class(Atom("n1"))
    assert validate_graph(r.graph).ok
    assert check_morphism(leg).ok


def test_coequalizer_coequalizes_random():
    rng = random.Random(26)
    for _ in range(15):
        g = random_graph(rng)
        h, j = parallel_pair(rng, g)
        r = coequalizer(h, j)
        assert validate_graph(r.graph).ok
        assert same_maps(compose(r.legs["coeq"], h), compose(r.legs["coeq"], j))


def test_coequalizer_requires_identity_label_maps():
    g = fixture("names.apg")
    crooked = Morphism(g, g, {"User": "User", "name": "User"},
                       {e: e for e in g.elements})
    with pytest.raises(PreconditionError):
        coequalizer(crooked, identity(g))


def test_quotient_refuses_to_mix_labels():
    g = fixture("names.apg")
    apex = Graph(g.schema, {Atom("s"): Element("User", Unit())})
    ids = {l: l for l in g.schema.labels}
    h = Morphism(apex, g, ids, {Atom("s"): Atom("u1")})
    j = Morphism(apex, g, ids, {Atom("s"): Atom("n1")})
    with pytest.raises(PreconditionError, match="mixes labels"):
        coequalizer(h, j)


# ---------------------------------------------------------------------------
# Pushout

def test_pushout_along_identities_collapses_the_copies():
    g = fixture("names.apg")
    r = pushout(identity(g), identity(g))
    assert set(r.graph.elements) == {Class(Left(Atom(e))) for e in ("u1", "n1", "n2")}
    assert same_maps(r.legs["left"], r.legs["right"])
    assert validate_graph(r.graph).ok


def test_pushout_square_commutes_random():
    rng = random.Random(27)
    for _ in range(10):
        g = random_graph(rng)
        include = subgraph_inclusion(rng, g)
        copy, iso = renamed_copy(g, "c_")
        f = include
        k = compose(iso, include)
        r = pushout(f, k)
        assert same_maps(compose(r.legs["left"], f), compose(r.legs["right"], k))
        assert len(r.graph.elements) == 2 * len(g.elements) - len(include.source.elements)
        assert validate_graph(r.graph).ok
        assert check_morphism(r.legs["left"]).ok
        assert check_morphism(r.legs["right"]).ok


def test_pushout_preconditions():
    names, edges = fixture("names.apg"), fixture("edges.apg")
    with pytest.raises(PreconditionError, match="span"):
        pushout(identity(names), identity(edges))
    crooked = Morphism(names, names, {"User": "User", "name": "User"},
                       {e: e for e in names.elements})
    with pytest.raises(PreconditionError, match="identity on labels"):
        pushout(identity(names), crooked)
    retyped = Graph(Schema({"User": Prim("String"), "name": names.schema.labels["name"]}),
                    {})
    askew = Morphism(retyped, names, {"User": "User", "name": "name"}, {})
    with pytest.raises(PreconditionError, match="declared type"):
        pushout(askew, askew)
