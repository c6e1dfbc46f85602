"""The typed read, checked against a reference: graph_from_json as it was
before values were decoded against their label's type, with validate_graph
run on every graph read.  Also pins the sharing the typed read adds: one
Ref per referenced id, whose element is the id object keying the element;
and, since values are built while the JSON is parsed, that a read's traced
peak stays under twice the graph it returns."""

import copy
import gc
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from apg.adt import (Enc, IdTable, Inl, Inr, Left, Pair, PairId, Ref, render_id,
                     transport_value)
from apg.errors import ParseError, ValidationFailure
from apg.files import (
    _expect_object,
    _reject_entry,
    _reject_equal_ids,
    _value,
    load_json,
    read_graph,
    schema_from_json,
    write_graph,
)
from apg.graph import Element, Graph, validate_graph

from .generators import PRIM_NAMES, breaking_mutations, random_graph


def reference_graph_from_json(doc):
    _expect_object(doc, "graph document")
    schema = schema_from_json(doc)
    raw = doc.get("elements", {})
    if not isinstance(raw, dict):
        raise ParseError("elements must be an object")
    ids = IdTable()
    elements = {}
    for id_text in sorted(raw):
        try:
            e = ids[id_text]
        except ParseError as err:
            raise ParseError(f"elements.{id_text}: {err}") from None
        entry = raw[id_text]
        if not (isinstance(entry, dict) and len(entry) == 2 and "label" in entry
                and "value" in entry and isinstance(entry["label"], str)):
            _reject_entry(entry, f"elements.{id_text}")
        value = _value(entry["value"], schema.registry, ids, (f"elements.{id_text}.value", ()))
        elements[e] = Element(entry["label"], value)
    if len(elements) != len(raw):
        _reject_equal_ids(raw, "elements")
    return Graph(schema, elements)


def reference_read(text, validate=True):
    graph = reference_graph_from_json(load_json(text))
    if validate:
        report = validate_graph(graph)
        if not report.ok:
            raise ValidationFailure(report)
    return graph


def outcome(read, text, validate=True):
    """The graph, its element order and write_graph bytes; or the report or
    ParseError text."""
    try:
        graph = read(text, validate)
    except ValidationFailure as err:
        return "invalid", str(err.report)
    except ParseError as err:
        return "malformed", str(err)
    return graph, list(graph.elements), write_graph(graph)


def rewrap(rng, graph):
    """The graph under structured ids: each id e becomes one of L:e, (e,e),
    E:k:@e, consistently in keys and references."""
    wrap = rng.choice([Left, lambda e: PairId(e, e), lambda e: Enc("k", Ref(e))])
    move = lambda e: Ref(wrap(e))  # noqa: E731
    return Graph(graph.schema, {wrap(e): Element(el.label, transport_value(move, el.value))
                                for e, el in graph.elements.items()})


def value_nodes(raw):
    """(parent, key, node) of each value node of an element; the root's
    parent and key are None."""
    stack = [(None, None, raw)]
    while stack:
        parent, key, node = stack.pop()
        yield parent, key, node
        (form, body), = node.items()
        if form == "pair":
            stack.extend((body, i, body[i]) for i in (0, 1))
        elif form in ("inl", "inr"):
            stack.append((node, form, body))


OUT_OF_DOMAIN = {
    "String": [5, None, ["a"]],
    "Nat": [-1, 1.5, 1.0, True, "3"],
    "Integer": [1.5, False, "x"],
    "Double": ["x", True, float("inf"), None, 3],  # 3 is coerced to 3.0 and fits
    "Boolean": [1, "true", 0.0],
}


def raw_edits(rng, doc):
    """(what, edited document) for one edit of each kind, on copies of doc."""
    entries = doc["elements"]
    for what in ("unknown form", "extra key", "bad ref id", "ref to a missing element",
                 "wrong primitive name", "literal outside its domain", "undeclared label",
                 "wrong shape", "equal id spelled differently", "schema problem"):
        edited = json.loads(json.dumps(doc))
        key = rng.choice(sorted(entries))
        entry = edited["elements"][key]
        nodes = list(value_nodes(entry["value"]))
        refs = [n for n in nodes if "ref" in n[2]]
        prims = [n for n in nodes if "prim" in n[2]]
        parent, slot, node = rng.choice(nodes)
        if what in ("undeclared label", "schema problem"):
            if what == "undeclared label":
                entry["label"] = rng.choice(["Ghost", "", "l9"])
            else:  # a label shadowing a primitive, or an unlabeled vertex type other than 1
                edited["schema"].update(rng.choice([{"Boolean": "1"}, {"": "1 + 1"}]))
            yield what, edited
            continue
        if what == "unknown form":
            new = rng.choice([{"bogus": {}}, [], "unit", None, 7, {}])
        elif what == "extra key":
            if prims and rng.random() < 0.5:
                parent, slot, node = rng.choice(prims)
                new = {"prim": dict(node["prim"], extra=1)}
            else:
                new = dict(node, extra={})
        elif what == "bad ref id":
            new = {"ref": rng.choice(["a b", "(a", "", "L:", "E:l", 5, None])}
        elif what == "ref to a missing element":
            if refs:
                parent, slot, node = rng.choice(refs)
            new = {"ref": "nowhere"}
        elif what == "wrong primitive name":
            if prims:
                parent, slot, node = rng.choice(prims)
            new = {"prim": {"type": rng.choice(list(PRIM_NAMES) + ["Widget", 3]),
                            "value": node.get("prim", {}).get("value", 0)}}
        elif what == "literal outside its domain":
            if prims:
                parent, slot, node = rng.choice(prims)
            name = node["prim"]["type"] if "prim" in node else rng.choice(PRIM_NAMES)
            new = {"prim": {"type": name, "value": rng.choice(OUT_OF_DOMAIN[name])}}
        elif what == "wrong shape":
            new = rng.choice([{"unit": {}}, {"unit": {"a": 1}}, {"pair": [{"unit": {}}]},
                              {"pair": [node, node, node]}, {"inl": {"unit": {}}},
                              {"inr": node}, {"prim": {"type": "Nat"}}, {"ref": "x", "unit": {}}])
        else:
            # an Enc key spelled as Nat=1, referenced as Nat=1.0: one id
            edited["elements"]["E:k:Nat=1"] = {"label": entry["label"], "value": entry["value"]}
            new = {"ref": "E:k:Nat=1.0"}
        if parent is None:
            entry["value"] = new
        else:
            parent[slot] = new
        yield what, edited


def test_typed_read_matches_the_reference():
    rng = random.Random("read side")
    seen = {"graph": 0, "invalid": 0, "malformed": 0}
    cases = 0
    for i in range(300):
        graph = random_graph(rng)
        if i % 3 == 0:
            graph = rewrap(rng, graph)
        texts = [write_graph(graph)]
        if i % 4 == 0:
            texts += [write_graph(broken) for _, _, broken in breaking_mutations(rng, graph, 3)]
        doc = json.loads(texts[0])
        texts += [json.dumps(edited) for _, edited in raw_edits(rng, doc)]
        for text in texts:
            for validate in (True, False) if i % 3 == 0 else (True,):
                want = outcome(reference_read, text, validate)
                assert outcome(read_graph, text, validate) == want, text
                seen["graph" if isinstance(want[0], Graph) else want[0]] += 1
                cases += 1
    assert cases > 4000
    assert min(seen.values()) > 500, seen


def refs_in(value):
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, Ref):
            yield v
        elif isinstance(v, Pair):
            stack += [v.first, v.second]
        elif isinstance(v, (Inl, Inr)):
            stack.append(v.inner)


def test_each_referenced_id_has_one_ref_which_holds_the_key():
    rng = random.Random("sharing")
    repeats = 0
    for i in range(200):
        graph = random_graph(rng, max_elements=16)
        read = read_graph(write_graph(rewrap(rng, graph) if i % 2 else graph))
        key_of = {e: e for e in read.elements}
        ref_of = {}
        for el in read.elements.values():
            for ref in refs_in(el.value):
                assert ref_of.setdefault(ref.element, ref) is ref, render_id(ref.element)
                assert ref.element is key_of[ref.element]
                repeats += 1
        repeats -= len(ref_of)
    assert repeats > 100  # references to an id already referenced


def test_the_read_restores_the_collector_setting():
    text = write_graph(random_graph(random.Random("collector")))
    for enabled in (True, False):
        gc.enable() if enabled else gc.disable()
        try:
            read_graph(text)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


V_E = '"schema": {"V": "1", "E": "V * V"}'
VERTEX = '{"label": "V", "value": {"unit": {}}}'
FAST_PATH_EDGES = [
    # value-shaped objects outside value position
    ('{"schema": {"ref": "1"}}', "graph"),
    ('{"schema": {"ref": "1"}, "elements": {"a": {"label": "ref", "value": {"unit": {}}}}}',
     "graph"),
    ('{"schema": {"unit": {}}}', "malformed"),
    ('{"schema": {"label": "1", "value": {"unit": {}}}}', "malformed"),
    ('{"schema": {"V": "1"}, "elements": {"type": %s, "value": %s}}' % (VERTEX, VERTEX), "graph"),
    ('{"schema": {"V": "1"}, "elements": {"label": %s, "value": %s}}' % (VERTEX, VERTEX), "graph"),
    ('{"schema": {"V": "1"}, "elements": {"label": "V", "value": {"unit": {}}}}', "malformed"),
    ('{"elements": {"ref": "x"}}', "malformed"),
    ('{"ref": "x"}', "graph"),
    ('{"label": "V", "value": {"unit": {}}}', "graph"),
    ('{"schema": {"V": "1"}, "primitives": [{"unit": {}}]}', "malformed"),
    ('{"schema": {"D": "Double"}, "elements": {"d": {"label": "D", "value": '
     '{"prim": {"type": "Double", "value": {"unit": {}}}}}}}', "invalid"),
    # a pair list holding a non-value
    ('{%s, "elements": {"v": %s, "e": {"label": "E", "value": '
     '{"pair": [{"ref": "v"}, {"bogus": {}}]}}}}' % (V_E, VERTEX), "malformed"),
    ('{%s, "elements": {"v": %s, "e": {"label": "E", "value": '
     '{"pair": [{"ref": "v"}, 3]}}}}' % (V_E, VERTEX), "malformed"),
    ('{%s, "elements": {"v": %s, "e": {"label": "E", "value": '
     '{"pair": [{"ref": "v"}, {"ref": "v"}, {"ref": "v"}]}}}}' % (V_E, VERTEX), "malformed"),
    # {"value", "label"} key order, and a repeated key
    ('{%s, "elements": {"v": {"value": {"unit": {}}, "label": "V"}, "e": {"value": '
     '{"pair": [{"ref": "v"}, {"ref": "v"}]}, "label": "E"}}}' % V_E, "graph"),
    ('{"schema": {"V": "1"}, "elements": {"v": {"label": "V", "value": {"unit": {}, "unit": {}}}}}',
     "graph"),
    ('{"schema": {"V": "1"}, "elements": {"v": {"label": "V", "label": "V", '
     '"value": {"unit": {}}}}}', "graph"),
    # doubts the checks leave to validate_graph
    ('{%s, "elements": {"v": %s, "e": {"label": "E", "value": '
     '{"pair": [{"ref": "v"}, {"ref": "e"}]}}}}' % (V_E, VERTEX), "invalid"),
    ('{"schema": {"Boolean": "1"}, "elements": {"v": {"label": "Boolean", "value": {"unit": {}}}}}',
     "invalid"),
    # literals the checks refuse: a double's int literal and one outside its domain
    ('{"schema": {"D": "Double"}, "elements": {"d": {"label": "D", "value": '
     '{"prim": {"type": "Double", "value": 3}}}}}', "graph"),
    ('{"schema": {"N": "Nat"}, "elements": {"n": {"label": "N", "value": '
     '{"prim": {"type": "Nat", "value": -1}}}}}', "invalid"),
]


def test_documents_off_the_fast_path_read_as_the_reference_reads_them():
    for text, kind in FAST_PATH_EDGES:
        for validate in (False, True):
            want = outcome(reference_read, text, validate)
            assert outcome(read_graph, text, validate) == want, text
        assert ("graph" if isinstance(want[0], Graph) else want[0]) == kind, (text, want)


FRAGMENTS = [{"unit": {}}, {"ref": "l0_e0"}, {"ref": "a b"}, {"pair": [{"unit": {}}, {"unit": {}}]},
             {"pair": [{"unit": {}}, 5]}, {"inl": {"unit": {}}}, {"inr": {"ref": "l0_e0"}},
             {"prim": {"type": "Nat", "value": 1}}, {"prim": {"type": "Double", "value": 2}},
             {"prim": {"type": "Nat", "value": -1}}, {"prim": {"type": "String", "value": 5}},
             {"label": "l0", "value": {"unit": {}}}, {"value": {"unit": {}}, "label": "l1"},
             {"type": "Nat", "value": 0}, {"bogus": {}}, {}, [], "x", "l0", 1, 1.5, True, None]
KEYS = ["", "Boolean", "ref", "unit", "label", "value", "type", "l0", "l1_e1"]


def slots(doc):
    """(container, key) of every position below the root of doc."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                found.append((node, key))
                stack.append(child)
    return found


def shuffled(node, rng):
    """node with the keys of every object in a random order."""
    if isinstance(node, list):
        return [shuffled(child, rng) for child in node]
    if not isinstance(node, dict):
        return node
    keys = list(node)
    rng.shuffle(keys)
    return {key: shuffled(node[key], rng) for key in keys}


def result(read, text, validate):
    """outcome, or the type and text of any other error."""
    try:
        return outcome(read, text, validate)
    except Exception as err:  # noqa: BLE001 - both reads must fail alike
        return type(err).__name__, str(err)


LITERALS = [literal for literals in OUT_OF_DOMAIN.values() for literal in literals]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.sampled_from(["put", "rename", "literal", "schema"])), max_size=3),
       st.booleans())
def test_read_graph_agrees_with_the_reference_on_mutated_documents(seed, edits, validate):
    """Each edit puts a fragment at some position of a random graph's
    document, the root included; renames the key of an object's member;
    gives a primitive value a literal of another type; or adds a label
    that breaks the schema."""
    rng = random.Random(seed)
    doc = json.loads(write_graph(random_graph(rng)))
    for where, what, kind in edits:
        spots = slots(doc)
        if where % (len(spots) + 1) == len(spots):
            doc = copy.deepcopy(FRAGMENTS[what % len(FRAGMENTS)])
            continue
        container, key = spots[where % len(spots)] if spots else (None, None)
        prims = [node for node, slot in spots if slot == "prim" and isinstance(node[slot], dict)]
        if kind == "rename" and isinstance(container, dict):
            container[KEYS[what % len(KEYS)]] = container.pop(key)
        elif kind == "literal" and prims:
            prims[where % len(prims)]["prim"]["value"] = LITERALS[what % len(LITERALS)]
        elif kind == "schema" and isinstance(doc, dict) and isinstance(doc.get("schema"), dict):
            doc["schema"].update([{"Boolean": "1"}, {"": "1 + 1"}, {"l9": ""}][what % 3])
        elif container is not None:
            container[key] = copy.deepcopy(FRAGMENTS[what % len(FRAGMENTS)])
    text = json.dumps(shuffled(doc, rng))
    assert result(read_graph, text, validate) == result(reference_read, text, validate), text


def vep_text(n):
    """A graph on V: 1, E: V * V, P: V * String with n vertices, 2n edges
    and n properties, as compact JSON."""
    rng = random.Random(n)
    elements = {f"v{i}": {"label": "V", "value": {"unit": {}}} for i in range(n)}
    for j in range(2 * n):
        elements[f"e{j}"] = {"label": "E", "value": {"pair": [
            {"ref": f"v{rng.randrange(n)}"}, {"ref": f"v{rng.randrange(n)}"}]}}
    for i in range(n):
        elements[f"p{i}"] = {"label": "P", "value": {"pair": [
            {"ref": f"v{rng.randrange(n)}"},
            {"prim": {"type": "String", "value": "".join(rng.choices("abcdefgh", k=7))}}]}}
    return json.dumps({"schema": {"V": "1", "E": "V * V", "P": "V * String"},
                       "elements": elements}, sort_keys=True)


def test_the_read_peaks_below_twice_the_graph_it_returns():
    """Measured in bytes, not time: a read that held the whole JSON tree
    beside the graph peaked near 3.7 times the graph."""
    text = vep_text(4000)
    tracemalloc.start()
    try:
        graph = read_graph(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.elements) == 16000
    assert peak <= 2 * size, (peak, size)


def test_a_plain_id_graph_reads_and_writes_without_a_python_hash():
    """A plain id is its text, hashed in C: no dict or set keyed by ids runs
    a Python __hash__ frame.  Plain ids that were records with a Python
    __hash__ made 36,000 such calls here."""
    text = vep_text(4000)
    hashes = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__hash__":
            hashes.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        written = write_graph(read_graph(text))
    finally:
        sys.setprofile(None)
    assert written.count('"label"') == 16000
    assert len(hashes) == 0, set(hashes)


def test_a_fault_deep_under_a_long_id_holds_the_id_once_per_copy_not_per_level():
    """The plain decode passes each place down as a chain and writes it out
    only in the error, so d levels under an id of n characters peak near a
    few copies of the id; one place string per level held d copies."""
    id_text, depth = "e" * 100_000, 300
    raw = {"bogus": 1}
    for _ in range(depth):
        raw = {"inl": raw}
    text = json.dumps({"schema": {"A": "1"},
                       "elements": {id_text: {"label": "A", "value": raw}}})
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"elements.{id_text}.value" + ".inl" * depth
                              + ": unknown value form 'bogus'")
    assert peak < 10 * len(id_text), peak
