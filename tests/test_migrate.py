import random

import pytest
from hypothesis import given, strategies as st

from apg.adt import (
    Atom,
    Enc,
    Inl,
    Inr,
    Lbl,
    One,
    Pair,
    Prim,
    PrimVal,
    Prod,
    Ref,
    Sum,
    Unit,
    Zero,
    render_id,
)
from apg.errors import ParseError, PreconditionError
from apg.fixtures import load
from apg.files import read_graph, read_mapping
from apg.graph import Graph, validate_graph
from apg.migrate import (
    CaseT,
    Fst,
    InlT,
    Lit,
    PairT,
    Phi,
    RewriteLimit,
    SchemaMapping,
    Snd,
    TermTypeError,
    UnitT,
    Var,
    check_term,
    delta_migrate,
    enumerate_values,
    eval_term,
    free_vars,
    has_redex,
    infer_term,
    normalize_term,
    parse_term,
    render_term,
    substitute,
    term_size,
    typecheck_mapping,
)

from .generators import graph_of, random_graph, random_term, reachable_term_type, schema_of


def fixture(name):
    return read_graph(load(name))


def shipped_mapping():
    return read_mapping(load("mapping.apgm"))


# ---------------------------------------------------------------------------
# Syntax

def test_parse_the_reshaping_term():
    t = parse_term('(snd phi x, (fst phi x, Integer 0))')
    assert t == PairT(Snd(Phi(Var("x"))), PairT(Fst(Phi(Var("x"))), Lit("Integer", 0)))


def test_parse_case_unit_and_literals():
    t = parse_term("case x of { inl a -> inl a ; inr b -> x }")
    assert t == CaseT(Var("x"), "a", InlT(Var("a")), "b", Var("x"))
    assert parse_term("()") == UnitT()
    assert parse_term("(x)") == Var("x")
    assert parse_term('String "hi"') == Lit("String", "hi")
    assert parse_term("Boolean true") == Lit("Boolean", True)
    assert parse_term("Double -1.5") == Lit("Double", -1.5)


def test_parse_rejects_junk():
    with pytest.raises(ParseError):
        parse_term("case x of { inl a -> a }")
    with pytest.raises(ParseError, match="trailing"):
        parse_term("x y")
    with pytest.raises(ParseError):
        parse_term("fst $")
    with pytest.raises(ParseError):
        parse_term("")


@pytest.mark.parametrize("text, message", [
    ("case x { inl a -> a ; inr b -> b }", "expected 'of', found '{' (at 7)"),
    ("case x of { inl fst -> x ; inr b -> b }", "expected a name, found 'fst' (at 16)"),
    ("(x; x)", "expected ',' or ')', found ';' (at 2)"),
    ("fst ;", "expected a term, found ';' (at 4)"),
    ("snd  ", "unexpected end of term (at 5)"),
    ("x y", "trailing characters 'y' in term (at 2)"),
    ("(x,  $)", "bad token '  $)' (at 3)"),
    ("x 01", "bad literal (at 2)"),
    ('x "\\q"', "bad literal (at 2)"),
])
def test_each_term_syntax_error_names_its_position(text, message):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert str(err.value) == message


def test_render_parse_round_trip():
    texts = [
        "(snd phi x, (fst phi x, Integer 0))",
        "case x of { inl a -> a ; inr b -> x }",
        "fst snd x",
        "()",
        'String "hi"',
        "inl (x, inr ())",
        "case fst x of { inl a -> (a, ()) ; inr b -> (b, ()) }",
    ]
    for text in texts:
        assert render_term(parse_term(text)) == text


@given(st.integers(0, 2 ** 32))
def test_random_terms_render_and_parse_back(seed):
    rng = random.Random(seed)
    schema = random_graph(rng).schema
    x_type = schema.labels[rng.choice(schema.sorted_labels())]
    try:
        wanted = reachable_term_type(rng, x_type, schema, 3)
        term = random_term(rng, wanted, x_type, schema, rng.randrange(0, 7))
    except ValueError:  # a type the generator cannot fill from x
        return
    assert parse_term(render_term(term)) == term


# ---------------------------------------------------------------------------
# Typing

def test_infer_projects_through_phi():
    schema = fixture("mapping_input.apg").schema
    t = infer_term(Phi(Var("x")), {"x": Lbl("summary")}, schema)
    assert t == Prod(Prim("Nat"), Prim("String"))
    assert infer_term(parse_term("snd phi x"), {"x": Lbl("summary")}, schema) == Prim("String")


def test_shipped_mapping_typechecks():
    assert typecheck_mapping(shipped_mapping()).ok


def test_swapped_components_fail_typechecking():
    m = shipped_mapping()
    backwards = SchemaMapping(
        m.source, m.target, m.on_labels,
        {"record": parse_term("(fst phi x, (snd phi x, Integer 0))")},
    )
    report = typecheck_mapping(backwards)
    assert not report.ok
    assert any("expected" in f.message for f in report)


def test_mapping_diagnostics_are_per_label():
    m = shipped_mapping()
    report = typecheck_mapping(SchemaMapping(m.source, m.target, {}, m.on_terms))
    assert [f.message for f in report] == ["no target type given"]
    report = typecheck_mapping(SchemaMapping(m.source, m.target, m.on_labels, {}))
    assert [f.message for f in report] == ["no term given"]
    stray = SchemaMapping(m.source, m.target, {"record": Lbl("Nowhere")}, m.on_terms)
    assert any("undeclared label" in f.message for f in typecheck_mapping(stray))


def test_injections_and_pairs_check_but_do_not_infer():
    schema = schema_of({})
    check_term(parse_term("inl ()"), Sum(One(), Prim("Nat")), {}, schema)
    with pytest.raises(TermTypeError, match="cannot infer"):
        infer_term(parse_term("inl ()"), {}, schema)
    with pytest.raises(TermTypeError, match="expected"):
        check_term(parse_term("inl ()"), Prod(One(), One()), {}, schema)


def test_type_errors_are_specific():
    schema = schema_of({})
    with pytest.raises(TermTypeError, match="unbound"):
        infer_term(Var("y"), {}, schema)
    with pytest.raises(TermTypeError, match="not a sum"):
        infer_term(parse_term("case x of { inl a -> a ; inr b -> b }"), {"x": One()}, schema)
    with pytest.raises(TermTypeError, match="fst applied"):
        infer_term(Fst(UnitT()), {}, schema)
    with pytest.raises(TermTypeError, match="outside the Nat domain"):
        infer_term(Lit("Nat", -1), {}, schema)
    with pytest.raises(TermTypeError, match="not a label"):
        infer_term(Phi(UnitT()), {}, schema)


# ---------------------------------------------------------------------------
# Rewriting

def test_free_vars_respect_binders():
    t = parse_term("case x of { inl a -> a ; inr b -> y }")
    assert free_vars(t) == {"x", "y"}
    assert free_vars(parse_term("()")) == set()


def test_substitute_replaces_free_occurrences():
    assert substitute(parse_term("fst x"), "x", Var("y")) == parse_term("fst y")
    shadowed = parse_term("case s of { inl a -> (a, x) ; inr b -> x }")
    kept = substitute(shadowed, "a", Var("z"))
    assert kept == shadowed


def test_substitute_avoids_capture():
    t = parse_term("case s of { inl a -> (a, x) ; inr b -> x }")
    out = substitute(t, "x", Var("a"))
    assert out.left_name != "a"
    assert out.left_body == PairT(Var(out.left_name), Var("a"))
    assert out.right_body == Var("a")


def test_normalize_examples():
    assert normalize_term(parse_term("fst (x, Integer 0)")) == Var("x")
    reduced = normalize_term(
        parse_term("case inl () of { inl a -> Integer 1 ; inr b -> Integer 2 }")
    )
    assert reduced == Lit("Integer", 1)
    assert normalize_term(Var("x")) == Var("x")
    nested = parse_term('fst snd ((), (fst (x, ()), String "s"))')
    assert normalize_term(nested) == Var("x")
    branchy = parse_term("case inl (x, ()) of { inl a -> fst a ; inr b -> x }")
    assert normalize_term(branchy) == Var("x")


def test_normalize_leaves_no_redex():
    stuck = parse_term("case x of { inl a -> fst (a, ()) ; inr b -> b }")
    assert has_redex(stuck)
    done = normalize_term(stuck)
    assert not has_redex(done)
    assert done == parse_term("case x of { inl a -> a ; inr b -> b }")


def test_step_limit_is_enforced():
    t = parse_term("fst fst ((x, ()), ())")
    assert normalize_term(t, step_limit=2) == Var("x")
    with pytest.raises(RewriteLimit):
        normalize_term(t, step_limit=1)


def test_term_size_counts_nodes():
    assert term_size(parse_term("fst (x, ())")) == 4
    assert term_size(Var("x")) == 1


# ---------------------------------------------------------------------------
# Enumeration and evaluation

def test_enumerate_values_orders_deterministically():
    g = fixture("edges.apg")
    assert enumerate_values(Sum(One(), Lbl("User")), g) == [
        Inl(Unit()), Inr(Ref(Atom("u1"))), Inr(Ref(Atom("u2"))),
    ]
    assert enumerate_values(Prod(One(), One()), g) == [Pair(Unit(), Unit())]
    assert enumerate_values(Zero(), g) == []
    assert enumerate_values(Sum(Zero(), One()), g) == [Inr(Unit())]
    pairs = enumerate_values(Prod(Sum(One(), One()), Lbl("User")), g)
    assert pairs == [
        Pair(Inl(Unit()), Ref(Atom("u1"))),
        Pair(Inl(Unit()), Ref(Atom("u2"))),
        Pair(Inr(Unit()), Ref(Atom("u1"))),
        Pair(Inr(Unit()), Ref(Atom("u2"))),
    ]


def test_enumerate_refuses_primitive_types():
    with pytest.raises(PreconditionError, match="enumerate"):
        enumerate_values(Prim("Nat"), fixture("edges.apg"))


def test_eval_reshapes_the_record():
    g = fixture("mapping_input.apg")
    term = parse_term("(snd phi x, (fst phi x, Integer 0))")
    out = eval_term(term, Ref(Atom("e1")), g)
    assert out == Pair(
        PrimVal("String", "abc"), Pair(PrimVal("Nat", 7), PrimVal("Integer", 0))
    )


def test_eval_agrees_with_normalization():
    g = fixture("mapping_input.apg")
    binding = Ref(Atom("e1"))
    for text in [
        "fst (snd phi x, ())",
        "case inr phi x of { inl a -> a ; inr b -> fst b }",
        "(fst phi x, snd (phi x, ()))",
    ]:
        t = parse_term(text)
        assert eval_term(t, binding, g) == eval_term(normalize_term(t), binding, g)


def test_eval_failure_modes():
    g = fixture("mapping_input.apg")
    with pytest.raises(PreconditionError, match="non-reference"):
        eval_term(parse_term("phi ()"), Unit(), g)
    with pytest.raises(PreconditionError, match="non-pair"):
        eval_term(parse_term("fst x"), Unit(), g)
    with pytest.raises(PreconditionError, match="non-injection"):
        eval_term(parse_term("case x of { inl a -> a ; inr b -> b }"), Unit(), g)
    with pytest.raises(PreconditionError, match="missing element"):
        eval_term(parse_term("phi x"), Ref(Atom("ghost")), g)
    with pytest.raises(PreconditionError, match="unbound"):
        eval_term(Var("y"), Unit(), g)


# ---------------------------------------------------------------------------
# Migration

def test_migrate_the_shipped_mapping():
    out = delta_migrate(shipped_mapping(), fixture("mapping_input.apg"))
    assert out.schema == shipped_mapping().source
    eid = Enc("record", Ref(Atom("e1")))
    assert set(out.elements) == {eid}
    assert render_id(eid) == "E:record:@e1"
    assert out.elements[eid].value == Pair(
        PrimVal("String", "abc"), Pair(PrimVal("Nat", 7), PrimVal("Integer", 0))
    )
    assert validate_graph(out).ok


def test_migrate_identity_style_mapping_preserves_values():
    g = fixture("plates1.apg")
    m = SchemaMapping(
        source=g.schema,
        target=g.schema,
        on_labels={"PlateNumber": Lbl("PlateNumber")},
        on_terms={"PlateNumber": parse_term("phi x")},
    )
    out = delta_migrate(m, g)
    assert sorted(render_id(e) for e in out.elements) == [
        "E:PlateNumber:@p1", "E:PlateNumber:@p2",
    ]
    assert {el.value for el in out.elements.values()} == {
        el.value for el in g.elements.values()
    }
    assert validate_graph(out).ok


def test_migrate_reindexes_reference_positions():
    g = fixture("edges.apg")
    source = schema_of({"V": "1", "E": "V * V"})
    m = SchemaMapping(
        source=source,
        target=g.schema,
        on_labels={"V": Lbl("User"), "E": Lbl("driver")},
        on_terms={"V": parse_term("()"), "E": parse_term("(snd phi x, snd phi x)")},
    )
    out = delta_migrate(m, g)
    assert validate_graph(out).ok
    edge = out.elements[Enc("E", Ref(Atom("d1")))]
    minted = Ref(Enc("V", Ref(Atom("u1"))))
    assert edge.value == Pair(minted, minted)
    assert len(out.elements) == 3


def test_migrate_rejects_wrong_input_schema():
    with pytest.raises(PreconditionError, match="target schema"):
        delta_migrate(shipped_mapping(), fixture("plates1.apg"))


def test_migrate_rejects_broken_mappings():
    m = shipped_mapping()
    with pytest.raises(PreconditionError, match="typecheck"):
        delta_migrate(SchemaMapping(m.source, m.target, m.on_labels, {}),
                      fixture("mapping_input.apg"))


def test_migrate_rejects_unenumerable_witness_types():
    g = fixture("vertices.apg")
    source = schema_of({"V": "1"})
    m = SchemaMapping(
        source=source,
        target=g.schema,
        on_labels={"V": Prim("Nat")},
        on_terms={"V": parse_term("()")},
    )
    with pytest.raises(PreconditionError, match="enumerable"):
        delta_migrate(m, g)


def test_migrate_empty_graph_yields_unit_witnesses_only():
    g = fixture("mapping_input.apg")
    out = delta_migrate(shipped_mapping(), Graph(g.schema, {}))
    assert not out.elements


def test_migrate_names_the_witness_a_reference_misses():
    """Without the check of its input, a dangling edge reaches the minting of
    its reference, which finds no element; the validator then names the
    missing element and where it sits, as the check would have."""
    g = graph_of({"Node": "1", "Edge": "Node * Node"}, {
        "n1": ("Node", Unit()),
        "e1": ("Edge", Pair(Ref(Atom("n1")), Ref(Atom("ghost")))),
    })
    m = SchemaMapping(
        source=g.schema,
        target=g.schema,
        on_labels={"Node": Lbl("Node"), "Edge": Lbl("Edge")},
        on_terms={"Node": parse_term("phi x"), "Edge": parse_term("phi x")},
    )
    message = "input graph is not valid:\nerror: e1.snd: reference to missing element ghost"
    for validate in (False, True):
        with pytest.raises(PreconditionError) as err:
            delta_migrate(m, g, validate=validate)
        assert str(err.value) == message


def case_over_a_sum():
    """N: 1 + 1 pulled back from V: 1 + 1 by a case on the referenced value,
    over a graph whose one element of V holds () where the sum is declared."""
    g = graph_of({"V": "1 + 1"}, {"v": ("V", Unit())})
    m = SchemaMapping(
        source=schema_of({"N": "1 + 1"}),
        target=g.schema,
        on_labels={"N": Lbl("V")},
        on_terms={"N": parse_term("case phi x of { inl a -> inl () ; inr b -> inr () }")},
    )
    return m, g


def test_a_fault_in_the_term_is_named_by_the_validator():
    """Without the check of its input, the term itself meets the misfit
    first; the validator then names the element and what it holds, as the
    check would have."""
    m, g = case_over_a_sum()
    message = "input graph is not valid:\nerror: v: expected 1 + 1, found ()"
    for validate in (False, True):
        with pytest.raises(PreconditionError) as err:
            delta_migrate(m, g, validate=validate)
        assert str(err.value) == message


def test_a_fault_on_a_valid_graph_keeps_its_own_text(monkeypatch):
    """When the validator finds nothing, the term's fault is raised as it was."""
    m, _ = case_over_a_sum()
    g = graph_of({"V": "1 + 1"}, {"v": ("V", Inl(Unit()))})

    def failing(t, graph):
        def run(w):
            raise PreconditionError("case of a non-injection value")
        return run
    monkeypatch.setattr("apg.migrate.compile_term", failing)
    with pytest.raises(PreconditionError, match="^case of a non-injection value$"):
        delta_migrate(m, g, validate=False)
