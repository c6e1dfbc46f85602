"""export_rdf, which writes each label's triples from the leaf plan that
bridges._layout fixes once per label, checked against a reference: the
value-directed walk it replaced, which builds each leaf's access path and
predicate as it meets the leaf."""

import random
import urllib.parse

import pytest

from apg import bridges
from apg.adt import Atom, Inl, Inr, Pair, PrimVal, Ref, Unit, render_id
from apg.bridges import export_rdf
from apg.catops import coproduct, product
from apg.files import read_graph
from apg.fixtures import load

from .generators import graph_of, random_graph

_RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_KIND_DATATYPE = {
    "nat": _XSD + "nonNegativeInteger",
    "integer": _XSD + "integer",
    "double": _XSD + "double",
    "boolean": _XSD + "boolean",
}


def _quote(text):
    return urllib.parse.quote(text, safe="")


def _literal_node(v, registry):
    kind = registry.kind(v.prim)
    if kind == "string":
        text = v.literal.replace("\\", "\\\\").replace('"', '\\"')
        text = text.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{text}"'
    if kind == "boolean":
        lexical = "true" if v.literal else "false"
    else:
        lexical = repr(v.literal) if isinstance(v.literal, float) else str(v.literal)
    return f'"{lexical}"^^<{_KIND_DATATYPE[kind]}>'


def reference_export_rdf(graph):
    registry = graph.schema.registry
    lines = []
    for e in graph.sorted_ids():
        el = graph.elements[e]
        subject = f"<apg:e/{_quote(render_id(e))}>"
        lines.append(f"{subject} {_RDF_TYPE} <apg:l/{_quote(el.label)}> .")

        def emit(v, path):
            predicate = f"<apg:p/{_quote(el.label)}{''.join('/' + step for step in path)}>"
            if isinstance(v, Unit):
                lines.append(f"{subject} {predicate} <apg:unit> .")
            elif isinstance(v, PrimVal):
                lines.append(f"{subject} {predicate} {_literal_node(v, registry)} .")
            elif isinstance(v, Ref):
                lines.append(f"{subject} {predicate} <apg:e/{_quote(render_id(v.element))}> .")
            elif isinstance(v, Pair):
                emit(v.first, path + ("fst",))
                emit(v.second, path + ("snd",))
            elif isinstance(v, Inl):
                emit(v.inner, path + ("inl",))
            else:
                emit(v.inner, path + ("inr",))

        emit(el.value, ())
    return "\n".join(sorted(lines)) + "\n" if lines else ""


@pytest.mark.parametrize("name", [
    "vertices.apg", "edges.apg", "names.apg", "plates1.apg",
    "plates2.apg", "trips.apg", "mapping_input.apg",
])
def test_same_bytes_on_fixtures(name):
    g = read_graph(load(name))
    assert export_rdf(g) == reference_export_rdf(g)


def test_same_bytes_on_random_pairs_their_products_and_coproducts():
    # products give pair ids and labels, coproducts L:/R: tags: both are %-quoted
    rng = random.Random(11)
    compared = 0
    for _ in range(300):
        g1, g2 = random_graph(rng), random_graph(rng)
        for g in (g1, g2, product(g1, g2).graph, coproduct(g1, g2).graph):
            assert export_rdf(g) == reference_export_rdf(g)
            compared += 1
    assert compared == 1200


def test_same_bytes_on_edge_literals():
    g = graph_of(
        {"lit": "String * (Nat * (Integer * (Double * Boolean)))", "odd name/x": "1 + lit"},
        {
            "a": ("lit", Pair(PrimVal("String", 'tab\there\r\n "q" \\ é ❄'), Pair(
                PrimVal("Nat", 0), Pair(PrimVal("Integer", -7), Pair(
                    PrimVal("Double", 1e16), PrimVal("Boolean", False)))))),
            "b": ("lit", Pair(PrimVal("String", ""), Pair(
                PrimVal("Nat", 10**30), Pair(PrimVal("Integer", 0), Pair(
                    PrimVal("Double", -0.0), PrimVal("Boolean", True)))))),
            "c": ("odd name/x", Inl(Unit())),
            "e": ("odd name/x", Inr(Ref(Atom("a")))),
        },
    )
    assert export_rdf(g) == reference_export_rdf(g)


def test_each_element_iri_is_quoted_once_and_a_dangling_reference_as_met(monkeypatch):
    quoted = []
    element_iri = bridges._element_iri
    monkeypatch.setattr(bridges, "_element_iri", lambda e: quoted.append(e) or element_iri(e))
    g = read_graph(load("trips.apg"))
    assert export_rdf(g) == reference_export_rdf(g)
    assert sorted(map(render_id, quoted)) == sorted(map(render_id, g.elements))
    dangling = graph_of({"V": "1", "R": "V"}, {"v": ("V", Unit()), "r": ("R", Ref(Atom("gone")))})
    quoted.clear()
    assert export_rdf(dangling) == reference_export_rdf(dangling)
    assert sorted(map(render_id, quoted)) == ["gone", "r", "v"]
