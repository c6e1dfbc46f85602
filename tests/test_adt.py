import copy
import pickle
import random
import typing

import pytest
from hypothesis import given, strategies as st

from apg import adt
from apg.adt import (
    Atom,
    Class,
    DEFAULT_REGISTRY,
    ElementId,
    Enc,
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
    Zero,
    check_value,
    label_free,
    labels_in,
    parse_id,
    parse_type,
    render_id,
    render_type,
    render_value,
    transport_type,
    transport_value,
)
from apg.errors import ParseError, PreconditionError
from apg.bridges import Column, Table, TableSet
from apg.graph import Schema, ValidationReport

from .generators import random_graph, random_id, random_type

LABELS = {"Person", "User", "Trip", "PlaceEvent", "Org"}


def t(text: str):
    return parse_type(text, LABELS, DEFAULT_REGISTRY)


# ---------------------------------------------------------------------------
# Parsing and printing

def test_parse_basic_forms():
    assert t("1") == One()
    assert t("0") == Zero()
    assert t("Person * Person") == Prod(Lbl("Person"), Lbl("Person"))
    assert t("String") == Prim("String")
    assert t("1 + PlaceEvent") == Sum(One(), Lbl("PlaceEvent"))


def test_parse_right_associativity_and_precedence():
    assert t("User*User*(1+PlaceEvent)*(1+PlaceEvent)") == Prod(
        Lbl("User"),
        Prod(
            Lbl("User"),
            Prod(
                Sum(One(), Lbl("PlaceEvent")),
                Sum(One(), Lbl("PlaceEvent")),
            ),
        ),
    )
    # * binds tighter than +
    assert t("1 + 1 * 0") == Sum(One(), Prod(One(), Zero()))
    assert t("1 + 1 + 1") == Sum(One(), Sum(One(), One()))


def test_parse_resolves_labels_before_primitives():
    shadowing = parse_type("String", {"String"}, DEFAULT_REGISTRY)
    assert shadowing == Lbl("String")


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ParseError):
        t("Widget")


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        t("1 + ")
    assert "(at 4)" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("1 + Widget", "unknown type name 'Widget' (at 4)"),
    ("(1 + 1", "expected ')' (at 6)"),
    ("1 * )", "expected a type, found ')' (at 4)"),
    ("1 +  ", "unexpected end of type (at 5)"),
    ("1 1", "trailing characters '1' in type expression (at 2)"),
    ("1 * 0x", "bad token starting at '0x' (at 4)"),
    ("1 + $", "unexpected character '$' (at 4)"),
    ("L:", "expected a name (at 2)"),
    ("(User,", "unexpected character ',' (at 5)"),
    ("1 * 0é", "bad token starting at '0é' (at 4)"),
    ("1²", "bad token starting at '1²' (at 0)"),
])
def test_each_type_syntax_error_names_its_position(text, message):
    with pytest.raises(ParseError) as err:
        t(text)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [100, 200])
def test_each_start_of_a_label_name_is_read_at_most_once(monkeypatch, n):
    calls = []
    read = adt._Scanner.label_name
    monkeypatch.setattr(adt._Scanner, "label_name", lambda s: calls.append(s.pos) or read(s))
    assert parse_type("(" * n + "1" + ")" * n, set()) == One()
    assert len(calls) <= 2 * n + 2


def test_render_minimal_parens():
    assert render_type(t("Person * String")) == "Person * String"
    assert render_type(t("(1 + User) * String")) == "(1 + User) * String"
    assert render_type(t("1 + User * String")) == "1 + User * String"
    assert render_type(Zero()) == "0"


@given(st.integers(0, 2 ** 32))
def test_render_parse_round_trip_random(seed):
    rng = random.Random(seed)
    ty = random_type(rng, sorted(LABELS), depth=4)
    assert parse_type(render_type(ty), LABELS, DEFAULT_REGISTRY) == ty


def test_types_compare_and_hash_by_structure_at_any_depth():
    def right_nested(ctor, n):
        ty = One()
        for _ in range(n):
            ty = ctor(One(), ty)
        return ty

    deep = right_nested(Sum, 5000)
    assert deep == right_nested(Sum, 5000) and hash(deep) == hash(right_nested(Sum, 5000))
    assert deep != right_nested(Sum, 4999)
    assert deep != right_nested(Prod, 5000)
    assert Sum(Prim("A"), One()) != Sum(Lbl("A"), One())
    assert Prod(Sum(One(), One()), One()) != Prod(One(), Sum(One(), One()))
    rng = random.Random(7)
    types = [random_type(rng, sorted(LABELS), depth=3) for _ in range(300)]
    for a, b in zip(types, types[1:]):
        assert (a == b) == (render_type(a) == render_type(b))
        assert a == parse_type(render_type(a), LABELS, DEFAULT_REGISTRY)
        assert hash(a) == hash(parse_type(render_type(a), LABELS, DEFAULT_REGISTRY))


def test_structured_label_names_parse_as_single_tokens():
    labels = {"(a,b)", "L:a", "R:b", "C:x", "⊤"}
    for name in labels:
        assert parse_type(name, labels, DEFAULT_REGISTRY) == Lbl(name)
    assert parse_type("(a,b) * L:a", labels, DEFAULT_REGISTRY) == Prod(
        Lbl("(a,b)"), Lbl("L:a")
    )


# ---------------------------------------------------------------------------
# Registry

def test_default_registry_contents():
    assert sorted(DEFAULT_REGISTRY) == ["Boolean", "Double", "Integer", "Nat", "String"]


def test_literal_domains():
    r = DEFAULT_REGISTRY
    assert r.check_literal("Nat", 0)
    assert not r.check_literal("Nat", -1)
    assert not r.check_literal("Nat", True)  # bools are not numbers here
    assert r.check_literal("Integer", -5)
    assert not r.check_literal("Integer", 1.0)
    assert r.check_literal("Double", 37.78)
    assert not r.check_literal("Double", float("nan"))
    assert not r.check_literal("Double", float("inf"))
    assert r.check_literal("Boolean", False)
    assert r.check_literal("String", "")
    assert not r.check_literal("NoSuch", "x")


def test_custom_registry_rejects_bad_names():
    with pytest.raises(ParseError):
        PrimRegistry({"bad name": "string"})
    with pytest.raises(ParseError):
        PrimRegistry({"Temp": "float"})


# ---------------------------------------------------------------------------
# Ids

def test_a_plain_id_is_its_checked_text():
    assert Atom("a") == "a" and type(Atom("a")) is str
    assert isinstance(parse_id("a"), Atom) and type(parse_id("a")) is str
    for bad in ("a b", 5):
        with pytest.raises(ParseError, match="bad element id"):
            Atom(bad)


def test_id_rendering_shapes():
    assert render_id(Atom("p1")) == "p1"
    assert render_id(PairId(Atom("a"), Atom("b"))) == "(a,b)"
    assert render_id(Left(Atom("a"))) == "L:a"
    assert render_id(Right(PairId(Atom("a"), Atom("b")))) == "R:(a,b)"
    assert render_id(Class(Left(Atom("p1")))) == "C:L:p1"
    assert render_id(Enc("record", Ref(Atom("e1")))) == "E:record:@e1"


def test_render_id_names_what_is_not_an_id():
    for value, kind in ((5, "int"), (Ref(Atom("e1")), "Ref"), (None, "NoneType")):
        with pytest.raises(PreconditionError, match=f"cannot render a non-id {kind} "):
            render_id(value)


@given(st.integers(0, 2 ** 32))
def test_id_render_parse_round_trip(seed):
    i = random_id(random.Random(seed), 3)
    assert parse_id(render_id(i)) == i


def test_distinct_ids_render_distinctly():
    ids = [
        Atom("a"), Atom("ab"), PairId(Atom("a"), Atom("b")),
        Left(Atom("a")), Right(Atom("a")), Class(Atom("a")),
        Enc("l", Unit()), Enc("l", PrimVal("String", "a")),
        Enc("m", PrimVal("String", "a")),
    ]
    rendered = [render_id(i) for i in ids]
    assert len(set(rendered)) == len(ids)


def test_atom_validates_its_text():
    with pytest.raises(ParseError):
        Atom("no spaces")
    with pytest.raises(ParseError):
        Atom("")


@pytest.mark.parametrize("text, message", [
    ("", "expected a name (at 0)"),
    ("é", "expected a name (at 0)"),
    ("a b", "trailing characters in element id (at 1)"),
    ("(a", "expected ',' (at 2)"),
    ("L:", "expected a name (at 2)"),
    ("E:l", "expected ':' (at 3)"),
])
def test_bad_ids_keep_their_messages(text, message):
    """parse_id matches a plain id once; what it rejects it names as before."""
    with pytest.raises(ParseError) as err:
        parse_id(text)
    assert str(err.value) == message
    if text:
        with pytest.raises(ParseError) as err:
            Atom(text)
        assert str(err.value) == f"bad element id {text!r}"


# ---------------------------------------------------------------------------
# Transports

def test_transport_type_replaces_labels_only():
    f = {"Person": Lbl("(Person,Org)")}
    assert transport_type(f, parse_type("Person * String", {"Person"}, DEFAULT_REGISTRY)) == Prod(
        Lbl("(Person,Org)"), Prim("String")
    )
    assert transport_type({}, Prim("String")) == Prim("String")


def test_transport_type_equalizer_shape():
    f = {"User": Sum(One(), Lbl("User"))}
    src = parse_type("User * String", {"User"}, DEFAULT_REGISTRY)
    assert transport_type(f, src) == Prod(Sum(One(), Lbl("User")), Prim("String"))


def test_transport_type_outside_domain():
    with pytest.raises(PreconditionError):
        transport_type({}, Lbl("User"))


def test_transport_value_relabels_refs():
    v = Pair(Ref(Atom("t1")), Ref(Atom("u1")))
    g = {Atom("t1"): Ref(Left(Atom("t1"))), Atom("u1"): Ref(Left(Atom("u1")))}
    moved = transport_value(g, v)
    assert moved == Pair(Ref(Left(Atom("t1"))), Ref(Left(Atom("u1"))))


def test_transport_value_keeps_prims():
    v = PrimVal("Double", 37.78)
    assert transport_value({}, v) == v
    record = Pair(PrimVal("String", "MX"), Inl(Pair(Unit(), Inr(v))))
    assert transport_value({}, record) is record
    mixed = Pair(Ref(Atom("t1")), record)
    assert transport_value({Atom("t1"): Ref(Atom("t2"))}, mixed).second is record


def test_transport_value_missing_ref():
    with pytest.raises(PreconditionError):
        transport_value({}, Ref(Atom("t1")))


def test_transport_identity_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng)
        ident_l = {l: Lbl(l) for l in g.schema.labels}
        for e, el in g.elements.items():
            ty = g.schema.labels[el.label]
            assert transport_type(ident_l, ty) == ty
            moved = transport_value(lambda x: Ref(x), el.value)
            assert moved == el.value


# ---------------------------------------------------------------------------
# Checking

def _label_of(assignments):
    return lambda e: assignments.get(e)


def test_check_value_positive_cases():
    schema = Schema({"Person": One(), "knows": Prod(Lbl("Person"), Lbl("Person"))})
    label_of = _label_of({Atom("v1"): "Person", Atom("v2"): "Person"})
    assert check_value(Pair(Ref(Atom("v1")), Ref(Atom("v2"))),
                       schema.labels["knows"], schema, label_of) is None
    assert check_value(Unit(), One(), schema, label_of) is None


def test_check_value_label_mismatch_at_root():
    schema = Schema({"Person": One(), "Org": One()})
    label_of = _label_of({Atom("v1"): "Person"})
    miss = check_value(Ref(Atom("v1")), Lbl("Org"), schema, label_of)
    assert miss is not None
    assert miss.path == ()


def test_check_value_reports_paths():
    schema = Schema({"User": One(), "name": Prod(Lbl("User"), Prim("String"))})
    label_of = _label_of({Atom("u1"): "User"})
    miss = check_value(Pair(Ref(Atom("u1")), PrimVal("Nat", 3)),
                       schema.labels["name"], schema, label_of)
    assert miss.path == ("snd",)
    assert "String" in miss.message or "Nat" in miss.message


def test_check_value_zero_uninhabited():
    schema = Schema({})
    for v in [Unit(), PrimVal("Nat", 0), Inl(Unit()), Pair(Unit(), Unit())]:
        assert check_value(v, Zero(), schema, _label_of({})) is not None


def test_check_value_injections_pick_sides():
    schema = Schema({})
    ty = Sum(One(), Prim("Nat"))
    assert check_value(Inl(Unit()), ty, schema, _label_of({})) is None
    assert check_value(Inr(PrimVal("Nat", 4)), ty, schema, _label_of({})) is None
    assert check_value(Inr(Unit()), ty, schema, _label_of({})) is not None


def test_check_value_dangling_ref():
    schema = Schema({"User": One()})
    miss = check_value(Ref(Atom("ghost")), Lbl("User"), schema, _label_of({}))
    assert miss is not None
    assert "missing" in miss.message


def test_check_after_transport_random():
    # transported values check against transported types
    rng = random.Random(21)
    for _ in range(20):
        g = random_graph(rng)
        f = {l: Sum(One(), Lbl(l)) for l in g.schema.labels}

        def move(e):
            return Inr(Ref(e))

        wrapped_schema = Schema(
            {l: transport_type(f, ty) for l, ty in g.schema.labels.items()},
            g.schema.registry,
        )
        label_of = {e: el.label for e, el in g.elements.items()}
        for e, el in g.elements.items():
            ty = g.schema.labels[el.label]
            out = transport_value(move, el.value)
            miss = check_value(out, transport_type(f, ty), wrapped_schema, label_of)
            assert miss is None, miss


def test_label_free_and_labels_in():
    ty = t("User * (1 + PlaceEvent)")
    assert not label_free(ty)
    assert labels_in(ty) == {"User", "PlaceEvent"}
    assert label_free(t("String * (1 + Nat)"))


def test_render_value_forms():
    v = Pair(PrimVal("String", "US"), Ref(Atom("e1")))
    assert render_value(v) == '(String="US",@e1)'
    assert render_value(Inl(Unit())) == "inl(())"


# ---------------------------------------------------------------------------
# Records

FIELD_NAMES = ("text", "first", "second", "inner", "rep", "label", "witness",
               "prim", "literal", "element", "extra")


@given(st.integers(0, 2 ** 32))
def test_ids_and_values_are_immutable_values(seed):
    # Each id and value is built twice, from the same seed.
    ids = [random_id(random.Random(seed), 3) for _ in range(2)]
    graphs = [random_graph(random.Random(seed)) for _ in range(2)]
    values = list(zip(*([el.value for el in g.elements.values()] for g in graphs)))
    for a, b in [tuple(ids)] + values:
        assert a is not b or isinstance(a, str)  # CPython may share equal texts
        assert a == b and not a != b and hash(a) == hash(b)
        for name in FIELD_NAMES:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        assert a == b
    assert parse_id(render_id(ids[0])) == ids[0]
    for a, _ in [tuple(ids)] + values:
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for v, _ in values:
        assert Inl(v) != Inr(v) and Inl(v) == Inl(v)
    assert PrimVal("Nat", 0) != PrimVal("Integer", 0)


def test_records_print_like_dataclasses():
    assert repr(PairId(Atom("a"), Left(Atom("b")))) == "PairId(first='a', second=Left(inner='b'))"
    assert repr(Enc("l", PrimVal("Nat", 1))) == (
        "Enc(label='l', witness=PrimVal(prim='Nat', literal=1))")
    assert repr(Unit()) == "Unit()"


def test_other_records_keep_their_defaults_and_mutability():
    assert typing.get_args(ElementId) == (Atom, PairId, Left, Right, Class, Enc)
    assert Schema({}).registry is DEFAULT_REGISTRY
    reports, tables = [ValidationReport() for _ in "ab"], [Table("L", []) for _ in "ab"]
    assert reports[0].findings == [] and reports[0].findings is not reports[1].findings
    assert tables[0].rows == [] and tables[0].rows is not tables[1].rows
    assert Column("id", "id") == Column(name="id", kind="id", target=None)
    for bad in (lambda: Column("id"), lambda: Column("id", "id", None, None),
                lambda: Column("id", "id", name="x"), lambda: Column("id", "id", width=3)):
        with pytest.raises(TypeError):
            bad()
    table, report = Table("L", [Column("id", "id")]), ValidationReport()
    table.rows = [(Atom("a"), {})]
    report.findings = []
    assert table == Table("L", [Column("id", "id")], [(Atom("a"), {})])
    for mutable in (table, report, TableSet({})):
        with pytest.raises(TypeError):
            hash(mutable)
    with pytest.raises(AttributeError):
        Schema({}).labels = {}
