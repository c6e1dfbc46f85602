"""apg runs its verbs with the cyclic garbage collector off.  These tests pin
the two things that makes safe: cli.main gives the caller's setting back
however it ends, and a verb leaves no unreachable objects, whatever the size
of its input or the number of its schema labels, so with no collector
nothing piles up."""

import contextlib
import gc
import io
import json
import random

import pytest

from apg import cli, files
from apg.adt import parse_type
from apg.bridges import export_relational, write_tableset
from apg.files import read_graph, read_mapping, write_graph, write_mapping, write_morphism
from apg.fixtures import path
from apg.migrate import normalize_term, parse_term
from apg.morphism import Morphism

from .test_read_side import vep_text


def deep_id_document(tmp_path):
    doc = {"schema": {"V": "1"}, "elements": {"L:" * 5000 + "a": {"label": "V", "value": {"unit": {}}}}}
    (tmp_path / "deep.apg").write_text(json.dumps(doc))
    return ["validate", str(tmp_path / "deep.apg")]


def invalid_document(tmp_path):
    doc = {"schema": {"V": "1"}, "elements": {"v": {"label": "V", "value": {"inl": {"unit": {}}}}}}
    (tmp_path / "bad.apg").write_text(json.dumps(doc))
    return ["validate", str(tmp_path / "bad.apg")]


def raise_from_the_verb(tmp_path, monkeypatch):
    def verb(args):
        raise RuntimeError("a verb that fails")
    monkeypatch.setattr(cli, "_cmd_validate", verb)
    return ["validate", str(path("trips.apg"))]


# way out -> (argv from tmp_path and monkeypatch, what main returns or raises)
WAYS_OUT = {
    "exit 0": (lambda tmp, mp: ["validate", str(path("trips.apg"))], 0),
    "exit 1": (lambda tmp, mp: invalid_document(tmp), 1),
    "exit 2": (lambda tmp, mp: ["validate", str(tmp / "missing.apg")], 2),
    "usage error": (lambda tmp, mp: ["validate"], SystemExit),
    "nested too deeply": (lambda tmp, mp: deep_id_document(tmp), 2),
    "escaping exception": (raise_from_the_verb, RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("way_out", WAYS_OUT)
def test_main_restores_the_collector_setting(tmp_path, monkeypatch, capsys, way_out, enabled):
    argv, expected = WAYS_OUT[way_out]
    argv = argv(tmp_path, monkeypatch)
    gc.enable() if enabled else gc.disable()
    try:
        if isinstance(expected, int):
            assert cli.main(argv) == expected
        else:
            with pytest.raises(expected):
                cli.main(argv)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    if way_out == "nested too deeply":
        assert capsys.readouterr().err == "error: input is nested too deeply to process\n"


def plates_text(n, seed):
    """n elements of P: String * String whose first components repeat."""
    rng = random.Random(seed)
    elements = {f"p{i}": {"label": "P", "value": {"pair": [
        {"prim": {"type": "String", "value": f"k{rng.randrange(n // 2)}"}},
        {"prim": {"type": "String", "value": rng.choice("abc")}}]}} for i in range(n)}
    return json.dumps({"schema": {"P": "String * String"}, "elements": elements})


def summary_text(n):
    """n elements of the shipped mapping's target label, summary: Nat * String."""
    elements = {f"s{i}": {"label": "summary", "value": {"pair": [
        {"prim": {"type": "Nat", "value": i}},
        {"prim": {"type": "String", "value": f"s{i}"}}]}} for i in range(n)}
    return json.dumps({"schema": {"summary": "Nat * String"}, "elements": elements})


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two directories of inputs, of 4 * n graph elements for n = 4 and 16."""
    made = []
    for n in (4, 16):
        d = tmp_path_factory.mktemp(f"n{n}")
        (d / "g.apg").write_text(vep_text(n))
        (d / "a.apg").write_text(plates_text(4 * n, 1))
        (d / "b.apg").write_text(plates_text(4 * n, 2))
        (d / "s.apg").write_text(summary_text(4 * n))
        assert run_quietly(["export", "relational", str(d / "g.apg"), "-o", str(d / "tables")]) == 0
        made.append(d)
    return made


VERBS = {  # {d} is the directory of inputs
    "validate": ["validate", "{d}/g.apg"],
    "fmt": ["fmt", "{d}/g.apg", "-o", "{d}/out"],
    "classify": ["classify", "{d}/g.apg", "-o", "{d}/out"],
    "export rdf": ["export", "rdf", "{d}/g.apg", "-o", "{d}/out"],
    "export relational": ["export", "relational", "{d}/g.apg", "-o", "{d}/out.d"],
    "export kv": ["export", "kv", "{d}/s.apg", "--label", "summary", "-o", "{d}/out"],
    "import relational": ["import", "relational", "{d}/tables", "--schema", "{d}/g.apg",
                          "-o", "{d}/out"],
    "op product": ["op", "product", "{d}/g.apg", "{d}/g.apg", "-o", "{d}/out"],
    "op coproduct": ["op", "coproduct", "{d}/g.apg", "{d}/g.apg", "-o", "{d}/out"],
    "merge": ["merge", "--key", "fst", "{d}/a.apg", "{d}/b.apg", "-o", "{d}/out"],
    "migrate": ["migrate", str(path("mapping.apgm")), "{d}/s.apg", "-o", "{d}/out"],
}


@pytest.mark.parametrize("verb", VERBS)
def test_garbage_left_by_a_verb_does_not_grow_with_its_input(inputs, verb):
    """gc.collect() after the verb counts the unreachable objects the verb
    left; the count is 0 at both sizes.  The collector is held off around
    the verb, so that no collection frees any of them before the count.  The
    first run builds what is built once per process, so it is not counted."""
    def leftover(d):
        gc.collect()
        gc.disable()
        try:
            assert run_quietly([word.format(d=d) for word in VERBS[verb]]) == 0
            return gc.collect()
        finally:
            gc.enable()
    small, large = inputs
    leftover(small)
    assert leftover(large) == leftover(small) == 0


def chain_text(n):
    """A chain schema of n labels, V0: 1 and Vi: V(i-1) * String, with one
    element per label."""
    elements = {"v0": {"label": "V0", "value": {"unit": {}}}}
    for i in range(1, n):
        elements[f"v{i}"] = {"label": f"V{i}", "value": {"pair": [
            {"ref": f"v{i - 1}"}, {"prim": {"type": "String", "value": "s"}}]}}
    return json.dumps({"schema": {"V0": "1", **{f"V{i}": f"V{i - 1} * String" for i in range(1, n)}},
                       "elements": elements})


def chain_mapping_text(n):
    """The identity mapping of the chain schema: each label to itself, by phi x."""
    schema = json.loads(chain_text(n))["schema"]
    return json.dumps({"onLabels": {label: label for label in schema},
                       "onTerms": {label: "phi x" for label in schema},
                       "source": {"schema": schema}, "target": {"schema": schema}})


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """Two directories of chain inputs, of 5 and 80 labels."""
    made = []
    for n in (5, 80):
        d = tmp_path_factory.mktemp(f"chain{n}")
        (d / "g.apg").write_text(chain_text(n))
        (d / "m.apgm").write_text(chain_mapping_text(n))
        made.append(d)
    return made


CHAIN_VERBS = {  # {d} is the directory of chain inputs
    "validate": ["validate", "{d}/g.apg"],
    "fmt": ["fmt", "{d}/g.apg", "-o", "{d}/out"],
    "op product": ["op", "product", "{d}/g.apg", "{d}/g.apg", "-o", "{d}/out"],
    "migrate": ["migrate", "{d}/m.apgm", "{d}/g.apg", "-o", "{d}/out"],
}


def unreachable_after(run) -> int:
    """The unreachable objects run() leaves, with the collector held off
    around it so that no collection frees any of them before the count."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("verb", CHAIN_VERBS)
def test_garbage_left_by_a_verb_does_not_grow_with_its_labels(chains, verb):
    """The parsers of types and terms leave nothing for any label they read."""
    def leftover(d):
        codes = []
        count = unreachable_after(
            lambda: codes.append(run_quietly([word.format(d=d) for word in CHAIN_VERBS[verb]])))
        assert codes == [0]
        return count
    small, large = chains
    leftover(small)
    assert leftover(large) == leftover(small) == 0


PARSES = {
    "parse_type": lambda: parse_type("(User + 1) * (String + 0) * User", {"User"}),
    "parse_term": lambda: parse_term("case x of { inl a -> (fst a, Integer 0) ; inr b -> phi b }"),
    "normalize_term": lambda: normalize_term(parse_term("fst (case inl x of { inl a -> (a, a) ; "
                                                        "inr b -> (b, b) }, ())"), 10),
}


@pytest.mark.parametrize("compile_at", [files._COMPILE_AT, 0], ids=["as counted", "all compiled"])
def test_writing_a_graph_leaves_no_garbage(monkeypatch, compile_at):
    """The head is written without json.dumps, whose indenting encoder leaves
    its closures as cyclic garbage, and a compiled emitter holds no cycle."""
    g = read_graph(path("trips.apg").read_text(encoding="utf-8"))
    monkeypatch.setattr(files, "_COMPILE_AT", compile_at)
    write_graph(g)
    assert unreachable_after(lambda: [write_graph(g) for _ in range(3)]) == 0


def document_writes(tmp_path) -> dict:
    """name -> a write of each kind of document apg writes but the graph."""
    g = read_graph(path("trips.apg").read_text(encoding="utf-8"))
    identity = Morphism(g, g, {label: label for label in g.schema.labels},
                        {e: e for e in g.elements})
    mapping = read_mapping(path("mapping.apgm").read_text(encoding="utf-8"))
    tables = export_relational(g)
    return {"write_morphism": lambda: write_morphism(identity),
            "write_mapping": lambda: write_mapping(mapping),
            "write_tableset": lambda: write_tableset(tables, tmp_path / "tables")}


@pytest.mark.parametrize("write", ["write_morphism", "write_mapping", "write_tableset"])
def test_writing_a_document_leaves_no_garbage(tmp_path, write):
    """Morphisms, mappings and table-set manifests are written without
    json.dumps(indent=...), whose encoder leaves its closures as cyclic garbage."""
    run = document_writes(tmp_path)[write]
    run()
    assert unreachable_after(run) == 0


@pytest.mark.parametrize("parse", PARSES)
def test_a_parse_leaves_no_garbage(parse):
    PARSES[parse]()  # what is compiled once per process is not counted
    assert unreachable_after(PARSES[parse]) == 0
