"""The positional quotient behind coequalizer and pushout, checked against a
reference: the dict-based union-find over element ids it replaced."""

import random

import pytest

from apg import catops
from apg.adt import Atom, Class, One, Ref, Unit, render_id, transport_value
from apg.catops import coequalizer, disjoint_union, pushout
from apg.errors import PreconditionError
from apg.files import write_graph
from apg.graph import Element, Graph, Schema
from apg.integrate import match_by_key
from apg.morphism import Morphism, compose

from .generators import (
    label_free_graph,
    parallel_pair,
    permutation_morphism,
    random_graph,
    renamed_copy,
    subgraph_inclusion,
)


def reference_quotient(graph, pairs):
    """(quotient, leg on_elements) for id pairs, by a union-find keyed on ids,
    walking the graph in canonical order."""
    order = sorted(graph.elements, key=render_id)
    parent = {e: e for e in order}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    members = {}
    for e in order:
        members.setdefault(find(e), []).append(e)
    rep_of = {}
    for group in members.values():
        labels_seen = {graph.elements[e].label for e in group}
        if len(labels_seen) > 1:
            names = ", ".join(render_id(e) for e in sorted(group, key=render_id))
            raise PreconditionError(f"class {{{names}}} mixes labels {sorted(labels_seen)}")
        rep_of.update((e, min(group, key=render_id)) for e in group)
    move = lambda e: Ref(Class(rep_of[e]))  # noqa: E731
    elements = {Class(rep): Element(graph.elements[rep].label,
                                    transport_value(move, graph.elements[rep].value))
                for rep in sorted(set(rep_of.values()), key=render_id)}
    return Graph(graph.schema, elements), {e: Class(rep_of[e]) for e in order}


def reference_pushout(f, g):
    union = disjoint_union(f.target, g.target)
    h, j = compose(union.legs["inj1"], f), compose(union.legs["inj2"], g)
    quotient, leg = reference_quotient(
        union.graph, [(h.on_elements[e], j.on_elements[e]) for e in f.source.elements])
    return quotient, [{e: leg[x] for e, x in union.legs[side].on_elements.items()}
                      for side in ("inj1", "inj2")]


def reference_coequalizer(h, j):
    quotient, leg = reference_quotient(
        h.target, [(h.on_elements[e], j.on_elements[e]) for e in h.source.elements])
    return quotient, [leg]


def library_pushout(f, g):
    r = pushout(f, g)
    return r.graph, [r.legs["left"].on_elements, r.legs["right"].on_elements]


def library_coequalizer(h, j):
    r = coequalizer(h, j)
    return r.graph, [r.legs["coeq"].on_elements]


def outcome(construct, *args):
    """write_graph bytes, element order and leg maps in order, or the
    PreconditionError text."""
    try:
        graph, legs = construct(*args)
    except PreconditionError as err:
        return str(err)
    return write_graph(graph), list(graph.elements), [list(leg.items()) for leg in legs]


def random_map(rng, source, target):
    """Identity on labels, arbitrary on elements: classes may mix labels."""
    ids = list(target.elements)
    return Morphism(source, target, {l: l for l in source.schema.labels},
                    {e: rng.choice(ids) for e in source.elements})


def shuffled(rng, graph):
    """The same graph with its elements in another dict order."""
    return Graph(graph.schema, dict(rng.sample(list(graph.elements.items()), len(graph.elements))))


def random_span(rng, kind):
    """Two maps out of one apex; the targets differ in size and element order."""
    if kind == "match":
        g = shuffled(rng, label_free_graph(rng))
        other = g if rng.random() < 0.5 else renamed_copy(g, "c_")[0]
        return match_by_key(g, subgraph_inclusion(rng, other).source)[1:]
    g = shuffled(rng, random_graph(rng))
    include = subgraph_inclusion(rng, g)
    if kind == "shuffle":
        return include, compose(permutation_morphism(rng, g), include)
    copy, iso = renamed_copy(g, "c_")
    bigger = Graph(g.schema, {**copy.elements, **g.elements})
    if kind == "copy":
        return include, Morphism(include.source, bigger, iso.on_labels,
                                 {e: iso.on_elements[e] for e in include.source.elements})
    return include, random_map(rng, include.source, bigger)


@pytest.mark.parametrize("kind", ["match", "shuffle", "copy", "label-blind"])
def test_pushout_matches_the_reference(kind):
    rng = random.Random(f"pushout:{kind}")
    for _ in range(100):
        f, g = random_span(rng, kind)
        assert outcome(library_pushout, f, g) == outcome(reference_pushout, f, g)


@pytest.mark.parametrize("kind", ["parallel", "label-blind"])
def test_coequalizer_matches_the_reference(kind):
    rng = random.Random(f"coequalizer:{kind}")
    for _ in range(100):
        g = shuffled(rng, random_graph(rng))
        h, j = parallel_pair(rng, g)
        if kind == "label-blind":
            j = random_map(rng, h.source, g)
        assert outcome(library_coequalizer, h, j) == outcome(reference_coequalizer, h, j)


@pytest.mark.parametrize("kind", ["parallel", "label-blind"])
def test_the_coequalizer_reads_its_target_in_canonical_order(kind):
    """The same bytes, leg order and error on a target whose element dict is
    shuffled as on the canonically ordered one; the leg lists ids in order."""
    rng = random.Random(f"coequalizer order:{kind}")
    for _ in range(50):
        g = random_graph(rng)
        canonical = Graph(g.schema, {e: g.elements[e] for e in g.sorted_ids()})
        h, j = parallel_pair(rng, canonical)
        if kind == "label-blind":
            j = random_map(rng, h.source, canonical)
        mixed = shuffled(rng, canonical)
        moved = [Morphism(m.source, mixed, m.on_labels, m.on_elements) for m in (h, j)]
        expected = outcome(library_coequalizer, h, j)
        assert outcome(library_coequalizer, *moved) == expected
        if not isinstance(expected, str):
            assert [e for e, _ in expected[2][0]] == canonical.sorted_ids()


def test_the_first_mixed_class_in_union_order_is_named():
    schema = Schema({"X": One(), "Y": One()})
    xs = Graph(schema, {Atom(n): Element("X", Unit()) for n in ("a", "b")})
    ys = Graph(schema, {Atom(n): Element("Y", Unit()) for n in ("c", "d")})
    apex = Graph(schema, {Atom("s"): Element("X", Unit()), Atom("t"): Element("X", Unit())})
    ids = {"X": "X", "Y": "Y"}
    # s is unioned first, but t's class holds L:a, the first id of the union.
    f = Morphism(apex, xs, ids, {Atom("s"): Atom("b"), Atom("t"): Atom("a")})
    g = Morphism(apex, ys, ids, {Atom("s"): Atom("d"), Atom("t"): Atom("c")})
    message = "class {L:a, R:c} mixes labels ['X', 'Y']"
    assert outcome(reference_pushout, f, g) == outcome(library_pushout, f, g) == message


def counting(monkeypatch, *names):
    """Count the calls catops makes to each constructor named."""
    made = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(catops, name)

        def count(*parts, name=name, real=real):
            made[name] += 1
            return real(*parts)
        monkeypatch.setattr(catops, name, count)
    return made


@pytest.mark.parametrize("n, k", [(8, 1), (64, 4), (512, 8)])
def test_the_quotient_tags_and_names_each_class_once(monkeypatch, n, k):
    """Left/Right/Class/Ref counts, not time: a pushout of two label-free
    graphs of n elements each, glued into k classes, tags one id per class,
    where a quotient of their disjoint union would tag all 2n first."""
    schema = Schema({"X": One()})
    graph = lambda prefix, count: Graph(  # noqa: E731
        schema, {Atom(f"{prefix}{i}"): Element("X", Unit()) for i in range(count)})
    a, b, s = graph("a", n), graph("b", n), graph("s", 2 * n - k)
    ids = {"X": "X"}
    # s_i glues a_i to b_i, and s_(n+i) glues a_i to b_(i+k): class c holds a_i, b_i for i = c mod k.
    f = Morphism(s, a, ids, {Atom(f"s{i}"): Atom(f"a{i % n}") for i in range(2 * n - k)})
    g = Morphism(s, b, ids, {Atom(f"s{i}"): Atom(f"b{i if i < n else i - n + k}")
                             for i in range(2 * n - k)})
    made = counting(monkeypatch, "Left", "Right", "Class", "Ref")
    assert len(pushout(f, g).graph.elements) == k
    assert made == {"Left": k, "Right": 0, "Class": k, "Ref": 0}
    made.update(dict.fromkeys(made, 0))
    h = Morphism(a, a, ids, {e: e for e in a.elements})
    j = Morphism(a, a, ids, {Atom(f"a{i}"): Atom(f"a{(i + k) % n}") for i in range(n)})
    assert len(coequalizer(h, j).graph.elements) == k
    assert made == {"Left": 0, "Right": 0, "Class": k, "Ref": 0}
