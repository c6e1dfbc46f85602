"""The one value checker, checked against a reference: the recursive check
that re-dispatched on the type at every node of a value, with
validate_graph built on it.  Every finding must agree, subject, path and
message, on broken mutations of random and fixture graphs."""

import random
import subprocess
import sys

import pytest

from apg import adt
from apg.adt import (
    Atom,
    Inl,
    Inr,
    Lbl,
    Mismatch,
    One,
    Pair,
    Prim,
    PrimVal,
    Prod,
    Ref,
    Sum,
    Unit,
    Zero,
    check_value,
    render_id,
    render_type,
)
from apg.files import read_graph
from apg.fixtures import load
from apg.graph import Element, Finding, Graph, Schema, validate_graph, validate_schema

from .generators import breaking_mutations, random_graph, random_type, random_value

FIXTURES = ["vertices.apg", "edges.apg", "names.apg", "plates1.apg", "plates2.apg",
            "trips.apg", "mapping_input.apg"]


def _describe(v):
    if isinstance(v, Unit):
        return "()"
    if isinstance(v, Pair):
        return "a pair"
    if isinstance(v, Inl):
        return "a left injection"
    if isinstance(v, Inr):
        return "a right injection"
    if isinstance(v, PrimVal):
        return f"a {v.prim} literal"
    return f"a reference to {render_id(v.element)}"


def _under(step, miss):
    return None if miss is None else Mismatch((step,) + miss.path, miss.message)


def reference_check(v, t, registry, look):
    if isinstance(t, Lbl):
        if not isinstance(v, Ref):
            return Mismatch((), f"expected a reference to {t.name}, found {_describe(v)}")
        target_label = look(v.element)
        if target_label == t.name:
            return None
        if target_label is None:
            return Mismatch((), f"reference to missing element {render_id(v.element)}")
        return Mismatch(
            (),
            f"expected a reference to {t.name}, found one to "
            f"{render_id(v.element)} labeled {target_label}",
        )
    if isinstance(t, Prod):
        if isinstance(v, Pair):
            miss = reference_check(v.first, t.left, registry, look)
            if miss is not None:
                return _under("fst", miss)
            return _under("snd", reference_check(v.second, t.right, registry, look))
        return Mismatch((), f"expected {render_type(t)}, found {_describe(v)}")
    if isinstance(t, Prim):
        if not isinstance(v, PrimVal):
            return Mismatch((), f"expected a {t.name} literal, found {_describe(v)}")
        if v.prim != t.name:
            return Mismatch((), f"expected a {t.name} literal, found a {v.prim} literal")
        if not registry.check_literal(v.prim, v.literal):
            return Mismatch((), f"literal {v.literal!r} is outside the {v.prim} domain")
        return None
    if isinstance(t, One):
        if isinstance(v, Unit):
            return None
        return Mismatch((), f"expected (), found {_describe(v)}")
    if isinstance(t, Sum):
        if isinstance(v, Inl):
            return _under("inl", reference_check(v.inner, t.left, registry, look))
        if isinstance(v, Inr):
            return _under("inr", reference_check(v.inner, t.right, registry, look))
        return Mismatch((), f"expected {render_type(t)}, found {_describe(v)}")
    return Mismatch((), "no value inhabits the empty type 0")


def reference_validate(graph):
    """The findings validate_graph gave before the checker was built per label."""
    findings = list(validate_schema(graph.schema))
    labels = graph.schema.labels
    label_of = {e: el.label for e, el in graph.elements.items()}
    found = []
    for e, el in graph.elements.items():
        expected = labels.get(el.label)
        if expected is None:
            found.append(Finding(render_id(e), "", f"element has undeclared label {el.label!r}"))
            continue
        miss = reference_check(el.value, expected, graph.schema.registry, label_of.get)
        if miss is not None:
            found.append(Finding(render_id(e), miss.path_text(), miss.message))
    found.sort(key=lambda finding: finding.subject)
    return findings + found


@pytest.mark.parametrize("seed", range(6))
def test_findings_agree_with_the_reference_on_broken_random_graphs(seed):
    rng = random.Random(seed)
    compared = 0
    while compared < 40:
        g = random_graph(rng)
        assert validate_graph(g).findings == reference_validate(g) == []
        if not g.elements:
            continue
        for _, _, broken in breaking_mutations(rng, g, want=10):
            assert validate_graph(broken).findings == reference_validate(broken)
            compared += 1


@pytest.mark.parametrize("name", FIXTURES)
def test_findings_agree_with_the_reference_on_broken_fixtures(name):
    g = read_graph(load(name))
    for _, _, broken in breaking_mutations(random.Random(7), g, want=30):
        findings = validate_graph(broken).findings
        assert findings and findings == reference_validate(broken)


def test_check_value_agrees_with_the_reference_on_random_values():
    """Values drawn for one type, checked against another: most miss, at
    every depth and form of the two."""
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        g = random_graph(rng, max_labels=4, max_elements=12)
        populated = sorted({el.label for el in g.elements.values()})
        label_of = {e: el.label for e, el in g.elements.items()}
        del label_of[min(label_of, key=render_id)]  # references to it dangle
        for _ in range(20):
            t = random_type(rng, sorted(g.schema.labels), 3)
            v = random_value(rng, random_type(rng, populated, 3, allow_zero=False), g)
            want = reference_check(v, t, g.schema.registry, label_of.get)
            assert check_value(v, t, g.schema, label_of) == want, (render_type(t), v)
            checked += want is not None


def test_an_unregistered_primitive_is_reported_not_raised():
    schema = Schema({"X": Prim("Foo"), "Y": Prod(Prim("Foo"), Zero())})
    graph = Graph(schema, {Atom("x"): Element("X", PrimVal("Foo", 1)),
                           Atom("y"): Element("Y", Pair(PrimVal("Foo", "a"), Unit()))})
    findings = validate_graph(graph).findings
    assert findings == reference_validate(graph)
    assert [str(f) for f in findings] == [
        "error: X: type references unregistered primitive 'Foo'",
        "error: Y: type references unregistered primitive 'Foo'",
        "error: x: literal 1 is outside the Foo domain",
        "error: y.fst: literal 'a' is outside the Foo domain",
    ]


def test_a_value_that_is_not_a_value_is_reported_not_raised():
    """A library caller can store anything; the checker names its class."""
    schema = Schema({"X": One(), "E": Prod(Lbl("X"), Prim("String")), "S": Sum(One(), Lbl("X"))})
    graph = Graph(schema, {Atom("x"): Element("X", 5),
                           Atom("e"): Element("E", Pair(Ref(Atom("x")), None)),
                           Atom("f"): Element("E", Pair(Ref(5), Ref(7))),
                           Atom("s"): Element("S", [Unit()])})
    assert [str(f) for f in validate_graph(graph)] == [
        "error: e.snd: expected a String literal, found a non-value NoneType",
        "error: f.fst: expected a reference to X, found a reference to a non-id int",
        "error: s: expected 1 + X, found a non-value list",
        "error: x: expected (), found a non-value int",
    ]
    assert str(check_value(5.0, Lbl("X"), schema, {})) == (
        "at root: expected a reference to X, found a non-value float")


def test_a_900_deep_sum_with_a_bad_leaf_is_one_finding(tmp_path):
    """The read falls back to the plain decoder and validate_graph, and
    both reach 900 levels in a fresh process."""
    depth = 900
    value = '{"inr": ' * depth + '{"prim": {"type": "Nat", "value": -1}}' + "}" * depth
    deep = tmp_path / "deep.apg"
    deep.write_text('{"schema": {"D": "%s"}, "elements": {"a": {"label": "D", "value": %s}}}'
                    % ("1 + " * depth + "Nat", value))
    proc = subprocess.run([sys.executable, "-m", "apg", "validate", str(deep)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: a" + ".inr" * depth + ": literal -1 is outside the Nat domain\n")


@pytest.mark.parametrize("depth", [1, 50, 300])
def test_a_misfit_at_any_depth_makes_one_mismatch(monkeypatch, depth):
    """Each node's check knows its path from the root, so the misfit's one
    Mismatch is the finding; none is rebuilt at each level on the way out."""
    made = []

    def counted(path, message):
        made.append(path)
        return Mismatch(path, message)

    monkeypatch.setattr(adt, "Mismatch", counted)
    t, v, path = Prim("Nat"), PrimVal("String", "x"), []
    for level in range(depth):
        if level % 2:
            t, v = Prod(One(), t), Pair(Unit(), v)
        else:
            t, v = Sum(One(), t), Inr(v)
        path.insert(0, "snd" if level % 2 else "inr")
    assert check_value(v, t, Schema({}), {}) == Mismatch(
        tuple(path), "expected a Nat literal, found a String literal")
    assert len(made) == 1
