import errno
import gc
import json
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

from apg import catops, cli, files, migrate
from apg.adt import Atom
from apg.bridges import (
    export_rdf,
    export_relational,
    import_relational,
    read_tableset,
    write_tableset,
)
from apg.catops import coproduct, product
from apg.cli import _SLICE, main
from apg.errors import PreconditionError
from apg.files import read_graph, write_graph, write_morphism
from apg.fixtures import load, path
from apg.graph import Graph
from apg.morphism import identity, Morphism

from .generators import random_graph


def fixture_path(name):
    return str(path(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate

def test_validate_accepts_fixtures(capsys):
    code, out, err = run(capsys, "validate", fixture_path("trips.apg"))
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_reports_and_fails(tmp_path, capsys):
    doc = {"schema": {"User": "1"},
           "elements": {"u1": {"label": "Ghost", "value": {"unit": {}}}}}
    bad = tmp_path / "bad.apg"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "Ghost" in err
    assert out == ""


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "validate", "no-such-file.apg")
    assert code == 2
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# classify

def test_classify_prints_label_kind_lines(capsys, monkeypatch):
    monkeypatch.delenv("APG_STRICT_TAXONOMY", raising=False)
    code, out, err = run(capsys, "classify", fixture_path("trips.apg"))
    assert code == 0
    lines = dict(line.split("\t") for line in out.splitlines())
    assert lines == {
        "Place": "Vertex",
        "PlaceEvent": "Hyperelement",
        "Trip": "Hyperelement",
        "UnixTimeSeconds": "DataTypeAlias",
        "User": "Vertex",
    }


def test_classify_generalized_mode_via_environment(capsys, monkeypatch):
    monkeypatch.setenv("APG_STRICT_TAXONOMY", "0")
    code, out, err = run(capsys, "classify", fixture_path("trips.apg"))
    assert code == 0
    assert "PlaceEvent\tVertexProperty" in out.splitlines()


def test_classify_single_label_filter(capsys, monkeypatch):
    monkeypatch.delenv("APG_STRICT_TAXONOMY", raising=False)
    code, out, err = run(capsys, "classify", fixture_path("trips.apg"), "--label", "User")
    assert (code, out) == (0, "User\tVertex\n")
    code, out, err = run(capsys, "classify", fixture_path("trips.apg"), "--label", "Moon")
    assert code == 1
    assert "Moon" in err


# ---------------------------------------------------------------------------
# op

def test_op_product_writes_a_graph(capsys):
    v = fixture_path("vertices.apg")
    code, out, err = run(capsys, "op", "product", v, v)
    assert code == 0
    g = read_graph(out)
    assert len(g.elements) == 4


def test_op_product_with_an_empty_graph_is_empty(tmp_path, capsys):
    edges = fixture_path("edges.apg")
    empty = tmp_path / "empty.apg"
    empty.write_text(write_graph(Graph(read_graph(load("edges.apg")).schema, {})), encoding="utf-8")
    for args in ((str(empty), edges), (edges, str(empty))):
        code, out, err = run(capsys, "op", "product", *args)
        assert (code, err) == (0, "")
        assert read_graph(out).elements == {}


def test_op_arity_errors(capsys, stdin):
    v = fixture_path("vertices.apg")
    code, out, err = run(capsys, "op", "product", v)
    assert code == 2
    assert "two graph files" in err
    code, out, err = run(capsys, "op", "pushout", v)
    assert code == 2
    assert "APEX LEFT RIGHT F G" in err
    for operation in ("equalizer", "coequalizer"):
        assert run(capsys, "op", operation, v, v) == (
            2, "", f"error: op {operation} takes SOURCE TARGET H J\n")
    # The count is checked before any graph is read, standard input included.
    stdin("")
    for inputs in ([], ["missing.apg"]):
        assert run(capsys, "op", "coproduct", *inputs) == (
            2, "", "error: op coproduct takes two graph files\n")


def test_op_product_frees_its_inputs_and_legs_before_the_write(capsys, monkeypatch):
    seen = set(map(id, filter(lambda o: isinstance(o, Morphism), gc.get_objects())))
    alive = []
    graph_chunks = files.graph_chunks

    def chunks(graph):  # its body runs when the first chunk is asked for
        alive.extend(o for o in gc.get_objects() if isinstance(o, Morphism) and id(o) not in seen)
        yield from graph_chunks(graph)

    monkeypatch.setattr(files, "graph_chunks", chunks)
    code, out, err = run(capsys, "op", "product", fixture_path("edges.apg"),
                         fixture_path("vertices.apg"))
    assert (code, err, alive) == (0, "", [])
    assert out == write_graph(product(read_graph(load("edges.apg")),
                                      read_graph(load("vertices.apg"))).graph)


def test_op_coequalizer_with_morphism_files(tmp_path, capsys):
    names = fixture_path("names.apg")
    g = read_graph(load("names.apg"))
    swap = Morphism(g, g, {l: l for l in g.schema.labels},
                    {Atom("n1"): Atom("n2"), Atom("n2"): Atom("n1"),
                     Atom("u1"): Atom("u1")})
    h_file = tmp_path / "h.apgh"
    j_file = tmp_path / "j.apgh"
    h_file.write_text(write_morphism(swap))
    j_file.write_text(write_morphism(identity(g)))
    out_file = tmp_path / "out.apg"
    code, out, err = run(capsys, "op", "coequalizer", names, names,
                         str(h_file), str(j_file), "-o", str(out_file))
    assert code == 0
    merged = read_graph(out_file.read_text())
    assert len(merged.elements) == 2


def test_op_pushout_of_identity_span(tmp_path, capsys):
    v = fixture_path("vertices.apg")
    g = read_graph(load("vertices.apg"))
    ident = tmp_path / "id.apgh"
    ident.write_text(write_morphism(identity(g)))
    code, out, err = run(capsys, "op", "pushout", v, v, v, str(ident), str(ident))
    assert code == 0
    assert len(read_graph(out).elements) == 2


# ---------------------------------------------------------------------------
# merge

def test_merge_positional(capsys):
    code, out, err = run(capsys, "merge", fixture_path("plates1.apg"),
                         fixture_path("plates2.apg"))
    assert code == 0
    assert len(read_graph(out).elements) == 3


def test_merge_with_key(capsys):
    code, out, err = run(capsys, "merge", fixture_path("plates1.apg"),
                         fixture_path("plates2.apg"), "--key", "fst")
    assert code == 0
    assert len(read_graph(out).elements) == 2


def test_merge_argument_mistakes(capsys):
    p1 = fixture_path("plates1.apg")
    code, _, err = run(capsys, "merge", p1)
    assert code == 2 and "two graphs" in err
    code, _, err = run(capsys, "merge", p1, p1, p1)
    assert code == 2 and "two graphs" in err


def test_merge_schema_mismatch_fails_cleanly(capsys):
    code, _, err = run(capsys, "merge", fixture_path("plates1.apg"),
                       fixture_path("vertices.apg"))
    assert code == 1
    assert "schema" in err


# ---------------------------------------------------------------------------
# migrate

def test_migrate_produces_the_source_shaped_graph(capsys):
    code, out, err = run(capsys, "migrate", fixture_path("mapping.apgm"),
                         fixture_path("mapping_input.apg"))
    assert code == 0
    g = read_graph(out)
    assert set(g.schema.labels) == {"record"}
    assert "E:record:@e1" in json.loads(out)["elements"]


def test_migrate_validates_its_data_once(tmp_path, capsys, monkeypatch):
    """The read checks the data; delta_migrate does not run validate_graph
    on it again, and invalid data still fails with the read's report."""
    calls = []
    for module in (files, migrate):
        check = module.validate_graph
        monkeypatch.setattr(module, "validate_graph",
                            lambda graph, check=check: calls.append(graph) or check(graph))
    code, out, _ = run(capsys, "migrate", fixture_path("mapping.apgm"),
                       fixture_path("mapping_input.apg"))
    assert code == 0 and calls == []
    doc = json.loads(load("mapping_input.apg"))
    doc["elements"]["e1"]["value"]["pair"][0]["prim"]["value"] = -7
    broken = tmp_path / "broken.apg"
    broken.write_text(json.dumps(doc))
    assert run(capsys, "migrate", fixture_path("mapping.apgm"), str(broken)) == (
        1, "", "error: e1.fst: literal -7 is outside the Nat domain\n")
    assert len(calls) == 1


def test_migrate_reads_data_from_stdin(capsys, stdin):
    stdin(load("mapping_input.apg"))
    code, out, err = run(capsys, "migrate", fixture_path("mapping.apgm"))
    assert code == 0
    assert "E:record:@e1" in out


@pytest.mark.parametrize("literal, message", [
    ("Nat 01", "bad literal (at 28)"),
    ('String "\\x"', "bad literal (at 31)"),
    ("Double 1e999", "bad literal (at 31)"),
], ids=["leading zero", "bad escape", "number past a double"])
def test_migrate_rejects_a_bad_term_literal_with_one_line(tmp_path, capsys, literal, message):
    doc = json.loads(load("mapping.apgm"))
    doc["onTerms"]["record"] = f"(snd phi x, (fst phi x, {literal}))"
    mapping = tmp_path / "bad.apgm"
    mapping.write_text(json.dumps(doc))
    code, out, err = run(capsys, "migrate", str(mapping), fixture_path("mapping_input.apg"))
    assert (code, out, err) == (2, "", f"error: onTerms.record: {message}\n")


def test_migrate_rejects_entries_for_undeclared_source_labels(tmp_path, capsys):
    doc = json.loads(load("mapping.apgm"))
    doc["onLabels"]["ghost"] = "summary"
    doc["onTerms"]["ghost"] = "x"
    mapping = tmp_path / "ghost.apgm"
    mapping.write_text(json.dumps(doc))
    code, out, err = run(capsys, "migrate", str(mapping), fixture_path("mapping_input.apg"))
    assert (code, out) == (1, "")
    assert err == (
        "error: ghost: onLabels entry for a label the source schema does not declare\n"
        "error: ghost: onTerms entry for a label the source schema does not declare\n")


def test_migrate_reports_a_finding_of_the_target_schema(tmp_path, capsys):
    doc = json.loads(load("mapping.apgm"))
    doc["target"]["schema"]["String"] = "1"
    mapping = tmp_path / "shadow.apgm"
    mapping.write_text(json.dumps(doc))
    assert run(capsys, "migrate", str(mapping), fixture_path("mapping_input.apg")) == (
        1, "", "error: String: label shadows a primitive type name\n")


# ---------------------------------------------------------------------------
# standard input and files that are not JSON

@pytest.mark.parametrize("argv", [
    ["op", "product", "-", "-"],
    ["merge", "-", "-"],
    ["migrate", "-"],
], ids=["op", "merge", "migrate data defaults to stdin"])
def test_standard_input_is_read_by_one_input_at_most(capsys, stdin, argv):
    stream = stdin(load("vertices.apg"))
    assert run(capsys, *argv) == (
        2, "", "error: standard input can be read once: give '-' for one input at most\n")
    assert stream.tell() == 0


def test_invalid_json_names_its_file(tmp_path, capsys, stdin):
    broken = tmp_path / "broken.apg"
    broken.write_text('{"elements":\n')
    message = "invalid JSON at line 2 column 1: Expecting value (at 13)"
    plates = fixture_path("plates1.apg")
    code, out, err = run(capsys, "merge", plates, str(broken))
    assert (code, out, err) == (2, "", f"error: {broken}: {message}\n")
    code, out, err = run(capsys, "migrate", str(broken), fixture_path("mapping_input.apg"))
    assert (code, out, err) == (2, "", f"error: {broken}: {message}\n")
    stdin(broken.read_text())
    code, out, err = run(capsys, "op", "product", plates, "-")
    assert (code, out, err) == (2, "", f"error: standard input: {message}\n")


# A String literal holding the byte 0xff, which no UTF-8 text holds.
NOT_UTF8 = ('{"schema": {"S": "String"}, "elements": {"s": {"label": "S", '
            '"value": {"prim": {"type": "String", "value": "a\xffb"}}}}}').encode("latin-1")


@pytest.mark.parametrize("verb", [["validate"], ["fmt"], ["export", "rdf"]], ids=" ".join)
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_ends_in_one_line(tmp_path, source, verb):
    doc, out = tmp_path / "bad.apg", tmp_path / "out"
    doc.write_bytes(NOT_UTF8)
    argv = [*verb, str(doc) if source == "file" else "-"]
    proc = subprocess.run(
        [sys.executable, "-m", "apg", *argv, *([] if verb == ["validate"] else ["-o", str(out)])],
        input=NOT_UTF8 if source == "stdin" else b"", capture_output=True)
    name = str(doc) if source == "file" else "standard input"
    at = NOT_UTF8.index(b"\xff")
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
        2, b"", f"error: {name}: not UTF-8 text at byte {at}: invalid start byte\n")
    assert not out.exists()


def test_line_ends_are_read_as_in_a_text_file(tmp_path, capsys, stdin):
    # "\r\n" and a lone "\r" read as "\n", so JSON error positions do not move.
    message = "invalid JSON at line 2 column 1: Expecting value (at 13)"
    for text in (b'{"elements":\r\n', b'{"elements":\r'):
        broken = tmp_path / "broken.apg"
        broken.write_bytes(text)
        assert run(capsys, "validate", str(broken)) == (2, "", f"error: {broken}: {message}\n")
        stdin(text)
        assert run(capsys, "validate", "-") == (2, "", f"error: standard input: {message}\n")


def test_closed_standard_input_ends_in_one_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", None)  # as Python starts with descriptor 0 closed
    assert run(capsys, "validate", "-") == (
        2, "", "error: cannot read standard input: it is closed\n")


# ---------------------------------------------------------------------------
# export and import

def test_export_rdf(capsys):
    code, out, err = run(capsys, "export", "rdf", fixture_path("trips.apg"))
    assert code == 0
    assert len(out.splitlines()) == 42


def test_export_relational_and_import_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, _, err = run(capsys, "export", "relational", fixture_path("trips.apg"),
                       "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "manifest.json").exists()
    code, out, err = run(capsys, "import", "relational", str(out_dir),
                         "--schema", fixture_path("trips.apg"))
    assert code == 0
    assert read_graph(out) == read_graph(load("trips.apg"))


def _edit_manifest(edit):
    def apply(directory):
        manifest = json.loads((directory / "manifest.json").read_text())
        (directory / "manifest.json").write_text(json.dumps(edit(manifest)))
    return apply


def _replace_in(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def _set(entry, key, value):
    def edit(manifest):
        manifest[entry][key] = value
        return manifest
    return edit


@pytest.mark.parametrize("damage, message", [
    (_edit_manifest(lambda m: []), "bad manifest: it must be an object of table entries"),
    (_edit_manifest(lambda m: {**m, "Trip": 5}),
     "bad manifest: entry 'Trip' needs a string file and a list of columns"),
    (_edit_manifest(lambda m: {**m, "Trip": {"file": "Trip.csv"}}),
     "bad manifest: entry 'Trip' needs a string file and a list of columns"),
    (_edit_manifest(_set("Trip", "file", ["Trip.csv"])),
     "bad manifest: entry 'Trip' needs a string file and a list of columns"),
    (_edit_manifest(_set("Trip", "columns", [{"name": "id", "kind": "id"}, "fst"])),
     "bad manifest: each column of entry 'Trip' needs a string name and kind"),
    (_edit_manifest(_set("Trip", "columns", [{"name": "id"}])),
     "bad manifest: each column of entry 'Trip' needs a string name and kind"),
    (_edit_manifest(_set("Trip", "columns", [{"name": "id", "kind": "key"}])),
     "bad manifest: each column of entry 'Trip' is of kind id, prim, fk or disc, "
     "with a string target if any"),
    (_edit_manifest(_set("Trip", "columns", [
        {"name": "id", "kind": "id"}, {"name": "fst", "kind": "fk", "target": ["User"]}])),
     "bad manifest: each column of entry 'Trip' is of kind id, prim, fk or disc, "
     "with a string target if any"),
    (lambda d: (d / "Trip.csv").unlink(), "cannot read Trip.csv: No such file or directory"),
    (lambda d: (d / "Trip.csv").write_bytes(b"id\xff\n"),
     "bad table Trip.csv: not UTF-8 text at byte 2: invalid start byte"),
    (lambda d: (d / "Trip.csv").write_bytes(b'id,"' + b"x" * 19_996 + b'\xff"\n'),
     "bad table Trip.csv: not UTF-8 text at byte 20000: invalid start byte"),
    (lambda d: (d / "Trip.csv").write_text('id,"' + "x" * 200_000 + '"\n'),
     "bad table Trip.csv: field larger than field limit (131072)"),
    (lambda d: _replace_in(d / "Trip.csv", "t1,u1", "(t1,u1"),
     "bad id '(t1' in Trip.csv row 1, column id: expected ','"),
    (lambda d: _replace_in(d / "Trip.csv", "t2,u1", "t2,(u1"),
     "bad id '(u1' in Trip.csv row 2, column fst: expected ','"),
    (_edit_manifest(_set("PlaceEvent", "columns", [
        {"name": "id", "kind": "id"}, {"name": "fst", "kind": "disc", "target": "Place"},
        {"name": "snd", "kind": "fk", "target": "UnixTimeSeconds"}])),
     "table 'PlaceEvent': the manifest has column 'fst' (disc Place) "
     "where the schema gives 'fst' (fk Place)"),
    (lambda d: ((d / "User.csv").write_text("id,age\nu1,\nu2,\nu3,\n"),
                _edit_manifest(_set("User", "columns", [
                    {"name": "id", "kind": "id"}, {"name": "age", "kind": "prim"}]))(d)),
     "table 'User': the manifest has column 'age' (prim) where the schema gives none"),
    (lambda d: (d / "manifest.json").write_text('{"Trip": "\\ud800"}'),
     "bad manifest: invalid JSON at line 1 column 10: lone surrogate in a string (at 9)"),
    (lambda d: (d / "manifest.json").write_text("[1" + "0" * 4999 + "]"),
     "bad manifest: invalid JSON: an integer has more than 4300 digits"),
    (lambda d: (d / "manifest.json").write_bytes(b'{"x": "' + b"y" * 30_000 + b'\xff"}'),
     "bad manifest: not UTF-8 text at byte 30007: invalid start byte"),
    (lambda d: (d / "manifest.json").write_bytes(b'{\r\n"Trip": 1,\r\n}\r\n'),
     "bad manifest: invalid JSON at line 3 column 1: "
     "Expecting property name enclosed in double quotes (at 13)"),
], ids=["list manifest", "entry not an object", "entry without columns",
        "file not a string", "column not an object", "column without kind",
        "unknown column kind", "target not a string",
        "missing table file", "table not UTF-8", "table not UTF-8 past the first chunk",
        "csv error", "bad id cell",
        "bad foreign-key cell", "foreign key marked disc", "column the schema lacks",
        "lone surrogate in the manifest", "5000-digit manifest number",
        "manifest not UTF-8 past byte 30000", "CRLF manifest with invalid JSON"])
def test_malformed_table_sets_end_with_one_error_line(tmp_path, capsys, damage, message):
    tables = tmp_path / "tables"
    assert run(capsys, "export", "relational", fixture_path("trips.apg"),
               "--out", str(tables))[0] == 0
    damage(tables)
    code, out, err = run(capsys, "import", "relational", str(tables),
                         "--schema", fixture_path("trips.apg"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name", ["../x.csv", "ABSOLUTE", "sub/x.csv", ".", ".."])
def test_a_manifest_names_only_files_in_its_directory(tmp_path, capsys, name):
    tables = tmp_path / "tables"
    assert run(capsys, "export", "relational", fixture_path("trips.apg"),
               "--out", str(tables))[0] == 0
    for outside in (tmp_path / "x.csv", tables / "sub" / "x.csv"):  # readable, but not its own
        outside.parent.mkdir(exist_ok=True)
        outside.write_bytes((tables / "Trip.csv").read_bytes())
    name = str(tmp_path / "x.csv") if name == "ABSOLUTE" else name
    _edit_manifest(_set("Trip", "file", name))(tables)
    code, out, err = run(capsys, "import", "relational", str(tables),
                         "--schema", fixture_path("trips.apg"))
    assert (code, out, err) == (2, "", f"error: bad manifest: entry 'Trip' names file "
                                       f"{name!r}, which is not a file name in {tables}\n")


def test_import_reads_only_the_schema_of_the_schema_file(tmp_path, capsys):
    tables = tmp_path / "tables"
    assert run(capsys, "export", "relational", fixture_path("trips.apg"),
               "--out", str(tables))[0] == 0
    doc = json.loads(load("trips.apg"))
    doc["elements"] = {"x": {"label": "Ghost", "value": {"maybe": {}}}}
    broken = tmp_path / "broken.apg"
    broken.write_text(json.dumps(doc))
    code, out, err = run(capsys, "import", "relational", str(tables), "--schema", str(broken))
    assert (code, out, err) == (0, load("trips.apg"), "")


def test_import_rejects_an_invalid_schema_file(tmp_path, capsys):
    tables = tmp_path / "tables"
    assert run(capsys, "export", "relational", fixture_path("vertices.apg"),
               "--out", str(tables))[0] == 0
    schema = tmp_path / "schema.apg"
    schema.write_text(json.dumps({"schema": {"User": "1", "Trip": "User * Ghost"}}))
    code, out, err = run(capsys, "import", "relational", str(tables), "--schema", str(schema))
    assert (code, out, err) == (2, "", "error: schema.Trip: unknown type name 'Ghost' (at 7)\n")
    schema.write_text(json.dumps({"schema": {"User": "1", "Nat": "User"}}))
    code, out, err = run(capsys, "import", "relational", str(tables), "--schema", str(schema))
    assert (code, out, err) == (1, "", "error: Nat: label shadows a primitive type name\n")


def test_export_relational_needs_a_directory(capsys):
    code, _, err = run(capsys, "export", "relational", fixture_path("trips.apg"))
    assert code == 2
    assert "--out DIR" in err


def test_export_kv(capsys):
    code, out, err = run(capsys, "export", "kv", fixture_path("plates1.apg"),
                         "--label", "PlateNumber")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 2
    assert lines[0]["key"] == {"prim": {"type": "String", "value": "US"}}


def test_export_kv_needs_label_and_unique_keys(capsys):
    code, _, err = run(capsys, "export", "kv", fixture_path("plates1.apg"))
    assert code == 2 and "--label" in err
    code, _, err = run(capsys, "export", "kv", fixture_path("names.apg"),
                       "--label", "name")
    assert code == 1 and "not unique" in err


# ---------------------------------------------------------------------------
# fmt

def test_fmt_canonicalizes(tmp_path, capsys):
    scrambled = tmp_path / "scrambled.apg"
    doc = json.loads(load("plates1.apg"))
    scrambled.write_text(json.dumps(doc, indent=None, sort_keys=False))
    code, out, err = run(capsys, "fmt", str(scrambled))
    assert code == 0
    assert out == load("plates1.apg")


def test_fmt_validates_unless_told_not_to(tmp_path, capsys):
    doc = {"schema": {"User": "1", "fan": "User * String"},
           "elements": {"f1": {"label": "fan", "value": {
               "pair": [{"ref": "ghost"}, {"prim": {"type": "String", "value": "x"}}]}}}}
    wobbly = tmp_path / "wobbly.apg"
    wobbly.write_text(json.dumps(doc))
    code, _, err = run(capsys, "fmt", str(wobbly))
    assert code == 1
    assert "ghost" in err
    code, out, err = run(capsys, "fmt", str(wobbly), "--no-validate")
    assert code == 0
    assert "ghost" in out


# ---------------------------------------------------------------------------
# byte identity with the library

def test_cli_outputs_equal_the_library_outputs(tmp_path, capsys):
    rng = random.Random(5)
    for seed in range(6):
        a, b = random_graph(rng), random_graph(rng)
        g = coproduct(product(a, b).graph, a).graph  # ids such as L:(x,y) and R:x
        text = write_graph(g)
        work = tmp_path / str(seed)
        work.mkdir()
        source = work / "graph.apg"
        source.write_text(text, encoding="utf-8")
        assert run(capsys, "fmt", str(source)) == (0, text, "")
        assert run(capsys, "export", "rdf", str(source)) == (0, export_rdf(g), "")
        assert run(capsys, "export", "relational", str(source), "-o", str(work / "cli"))[0] == 0
        write_tableset(export_relational(g), work / "lib")
        names = sorted(p.name for p in (work / "lib").iterdir())
        assert sorted(p.name for p in (work / "cli").iterdir()) == names
        for name in names:
            assert (work / "cli" / name).read_bytes() == (work / "lib" / name).read_bytes()
        imported = write_graph(import_relational(read_tableset(work / "lib"), g.schema))
        assert imported == text
        assert run(capsys, "import", "relational", str(work / "cli"),
                   "--schema", str(source)) == (0, imported, "")


# ---------------------------------------------------------------------------
# inputs nested past the recursion limit

@pytest.mark.parametrize("doc", [
    {"schema": {"V": "1"}, "elements": {"L:" * 5000 + "a": {"label": "V", "value": {"unit": {}}}}},
    {"schema": {"V": "1", "P": " * ".join(["V"] * 3000)}},
], ids=["5000-deep id", "3000-factor product type"])
def test_deep_input_ends_with_a_message(tmp_path, capsys, doc):
    deep = tmp_path / "deep.apg"
    deep.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(deep))
    assert (code, out) == (2, "")
    assert err == "error: input is nested too deeply to process\n"
    assert "Traceback" not in err


def test_merge_of_a_deep_sum_type_succeeds(tmp_path, capsys):
    """Types compare without recursion, so merge reaches as deep as validate."""
    value = {"unit": {}}
    for _ in range(400):
        value = {"inr": value}
    doc = {"schema": {"D": " + ".join(["1"] * 401)},
           "elements": {"d1": {"label": "D", "value": value}}}
    deep = tmp_path / "deep.apg"
    deep.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(deep)) == (0, "ok\n", "")
    merged = str(tmp_path / "merged.apg")
    assert run(capsys, "merge", str(deep), str(deep), "-o", merged) == (0, "", "")
    assert run(capsys, "validate", merged) == (0, "ok\n", "")


def test_validate_and_fmt_read_a_900_deep_sum_value(tmp_path):
    """The typed reader recurses once per level, as the type parser does; in a
    fresh process both verbs reach 900 levels."""
    depth = 900
    value = '{"inr": ' * depth + '{"unit": {}}' + "}" * depth
    deep = tmp_path / "deep.apg"
    deep.write_text('{"schema": {"D": "%s"}, "elements": {"d1": {"label": "D", "value": %s}}}'
                    % (" + ".join(["1"] * (depth + 1)), value))
    for verb in ("validate", "fmt"):
        proc = subprocess.run([sys.executable, "-m", "apg", verb, str(deep)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), verb
    assert proc.stdout.count('"inr"') == depth


def test_fmt_writes_a_975_deep_sum_value(tmp_path):
    """The writer measures a type's shape without recursion, so fmt still
    reaches the depth of ROADMAP item 2's table, in a fresh process."""
    depth = 975
    value = '{"inr": ' * depth + '{"unit": {}}' + "}" * depth
    deep = tmp_path / "deep.apg"
    deep.write_text('{"schema": {"D": "%s"}, "elements": {"d1": {"label": "D", "value": %s}}}'
                    % (" + ".join(["1"] * (depth + 1)), value))
    proc = subprocess.run([sys.executable, "-m", "apg", "fmt", str(deep)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count('"inr"') == depth


# ---------------------------------------------------------------------------
# writing outputs

def test_long_output_is_written_in_slices_with_the_same_bytes(tmp_path, capsys):
    schema = {"S": "String"}
    text_value = "é⊤a" * (_SLICE + 7)  # multi-byte characters on every slice boundary
    doc = {"schema": schema, "elements": {"s": {"label": "S", "value": {
        "prim": {"type": "String", "value": text_value}}}}}
    source = tmp_path / "long.apg"
    source.write_text(json.dumps(doc), encoding="utf-8")
    text = write_graph(read_graph(source.read_text(encoding="utf-8")))
    assert len(text) > 3 * _SLICE
    assert all({"é", "⊤"} & set(text[i - 1:i + 1]) for i in (_SLICE, 2 * _SLICE, 3 * _SLICE))
    out = tmp_path / "out.apg"
    assert run(capsys, "fmt", str(source), "-o", str(out)) == (0, "", "")
    assert out.read_bytes() == text.encode()
    proc = subprocess.run([sys.executable, "-m", "apg", "fmt", str(source)],
                          capture_output=True, env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    assert (proc.returncode, proc.stdout) == (0, text.encode())


@pytest.mark.parametrize("case", ["missing directory", "rdf to a directory",
                                  "tables to a file", "full device"])
def test_a_failed_write_ends_in_one_line(tmp_path, capsys, case):
    edges = fixture_path("edges.apg")
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv, target, code = {
        "missing directory": (["fmt", edges], tmp_path / "missing" / "x.apg", errno.ENOENT),
        "rdf to a directory": (["export", "rdf", edges], tmp_path, errno.EISDIR),
        "tables to a file": (["export", "relational", edges], taken, errno.EEXIST),
        "full device": (["fmt", edges], "/dev/full", errno.ENOSPC),
    }[case]
    if case == "full device" and not os.path.exists(target):
        pytest.skip("no /dev/full on this system")
    assert run(capsys, *argv, "-o", str(target)) == (
        2, "", f"error: cannot write {target}: {os.strerror(code)}\n")


def test_a_closed_standard_output_ends_in_one_line():
    proc = subprocess.run(["sh", "-c", '"$0" -m apg fmt "$1" >&-', sys.executable,
                           fixture_path("edges.apg")], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write standard output: it is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_validate_on_a_full_standard_output_ends_in_one_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "apg", "validate", fixture_path("edges.apg")],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: apg [-h]"),
                                         (["merge", "--help"], "usage: apg merge [-h]")],
                         ids=["apg", "apg merge"])
def test_help_on_a_full_standard_output_ends_in_one_line(argv, usage):
    """argparse would swallow the failed write of its help text and exit 0."""
    proc = subprocess.run([sys.executable, "-m", "apg", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.startswith(usage), proc.stderr) == (0, True, "")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "apg", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n")


def test_a_reader_that_stops_early_ends_the_write_in_one_line(tmp_path):
    big = tmp_path / "big.apg"  # its output outgrows any pipe buffer
    big.write_text(json.dumps({"schema": {"V": "1"}, "elements": {
        f"v{i}": {"label": "V", "value": {"unit": {}}} for i in range(40000)}}))
    proc = subprocess.Popen([sys.executable, "-m", "apg", "fmt", str(big)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert (proc.wait(), head, err) == (
        2, b'{\n  "eleme', f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n")


def test_a_failing_command_leaves_its_output_file_untouched(tmp_path, capsys):
    out = tmp_path / "out.apg"
    out.write_text("kept\n")
    bad = tmp_path / "bad.apg"
    bad.write_text(json.dumps({"schema": {"V": "1"},
                               "elements": {"v": {"label": "V", "value": {"ref": "w"}}}}))
    for argv in (["fmt", str(bad)], ["op", "product", fixture_path("vertices.apg"), str(bad)],
                 ["merge", fixture_path("plates1.apg"), fixture_path("vertices.apg")]):
        code, _, _ = run(capsys, *argv, "-o", str(out))
        assert code == 1, argv
        assert out.read_text() == "kept\n"


def test_fmt_rewrites_its_own_input_in_place(tmp_path, capsys):
    graph = tmp_path / "g.apg"
    graph.write_text(json.dumps(json.loads(load("edges.apg"))), encoding="utf-8")  # one line
    assert run(capsys, "fmt", str(graph), "-o", str(graph)) == (0, "", "")
    assert graph.read_text(encoding="utf-8") == load("edges.apg")


@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed", "full"])
def test_a_dead_standard_error_keeps_the_exit_status(tmp_path, redirect):
    if redirect.endswith("full") and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    bad = tmp_path / "bad.apg"
    bad.write_text('{"schema": {"V": "1"}, "elements": {"v": {"label": "V", "value": {"ref": "w"}}}}')
    for argv, code in ((["fmt", str(tmp_path / "missing.apg")], 2), (["validate", str(bad)], 1),
                       (["classify", fixture_path("edges.apg"), "--label", "Nope"], 1)):
        proc = subprocess.run(["sh", "-c", f'"$0" -m apg "$@" {redirect}', sys.executable, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, ""), argv


def _vep_graph(n, prefix):
    """n vertices, 2n edges and n named vertices, as the benchmark's workloads build them."""
    rng = random.Random(prefix)
    pair = lambda a, b: {"pair": [a, b]}  # noqa: E731
    elements = {f"{prefix}v{i}": {"label": "V", "value": {"unit": {}}} for i in range(n)}
    elements.update({f"{prefix}e{j}": {"label": "E", "value": pair(
        {"ref": f"{prefix}v{rng.randrange(n)}"}, {"ref": f"{prefix}v{rng.randrange(n)}"})}
        for j in range(2 * n)})
    elements.update({f"{prefix}p{i}": {"label": "P", "value": pair(
        {"ref": f"{prefix}v{rng.randrange(n)}"}, {"prim": {"type": "String", "value": f"w{i}"}})}
        for i in range(n)})
    return {"schema": {"V": "1", "E": "V * V", "P": "V * String"}, "elements": elements}


def test_op_product_holds_no_copy_of_its_output(tmp_path, monkeypatch):
    """Once the product graph is built, writing it grows the traced memory by
    less than the text it writes: the text is never whole in memory."""
    inputs = []
    for name in ("x", "y"):
        inputs.append(tmp_path / f"{name}.apg")
        inputs[-1].write_text(json.dumps(_vep_graph(18, name)), encoding="utf-8")
    built = []
    product_of = catops.product  # the verb looks it up when it runs

    def product_then_mark(*graphs):
        result = product_of(*graphs)
        built.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(catops, "product", product_then_mark)
    out = tmp_path / "product.apg"
    tracemalloc.start()
    try:
        code = main(["op", "product", *map(str, inputs), "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = len(out.read_text(encoding="utf-8"))
    assert (code, len(built)) == (0, 1)
    assert written >= 2_000_000
    assert peak - built[0] < written


def _failing_after(chunk_count, failure):
    """A graph_chunks that makes chunk_count chunks of the real text and a
    chunk longer than a write slice, then raises failure."""
    graph_chunks = files.graph_chunks

    def chunks(graph):
        made = graph_chunks(graph)
        for _ in range(chunk_count):
            yield next(made)
        yield " " * (3 * _SLICE)
        raise failure
    return chunks


WRITE_FAILURES = {
    "full disk": (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 2,
                  "error: cannot write {target}: " + os.strerror(errno.ENOSPC)),
    "nesting": (RecursionError(), 2, "error: input is nested too deeply to process"),
    "apg error": (PreconditionError("not a value"), 1, "error: not a value"),
}


@pytest.mark.parametrize("failure", WRITE_FAILURES)
@pytest.mark.parametrize("verb", [["fmt", "trips.apg"], ["op", "product", "vertices.apg", "edges.apg"],
                                  ["migrate", "mapping.apgm", "mapping_input.apg"]], ids=" ".join)
def test_a_write_that_fails_midway_leaves_the_target_as_it_was(tmp_path, capsys, monkeypatch,
                                                                verb, failure):
    raised, code, line = WRITE_FAILURES[failure]
    argv = [fixture_path(word) if word.endswith((".apg", ".apgm")) else word for word in verb]
    whole = run(capsys, *argv)[1]
    monkeypatch.setattr(files, "graph_chunks", _failing_after(2, raised))
    target = tmp_path / "out.apg"
    target.write_text("kept\n")
    assert run(capsys, *argv, "-o", str(target)) == (code, "", line.format(target=target) + "\n")
    assert target.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.apg"]
    # on standard output, what was written before the failure stays
    failed, out, err = run(capsys, *argv)
    assert (failed, err) == (code, line.format(target="standard output") + "\n")
    made, filler = out[:-3 * _SLICE], out[-3 * _SLICE:]
    assert (whole.startswith(made), len(made) > 100, filler.strip()) == (True, True, "")


def test_o_onto_a_symlink_writes_through_it_and_keeps_it(tmp_path, capsys):
    real = tmp_path / "real.apg"
    real.write_text("kept\n")
    link, dangling = tmp_path / "link.apg", tmp_path / "dangling.apg"
    link.symlink_to(real.name)
    dangling.symlink_to("made.apg")
    for name in (link, dangling):
        assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(name)) == (0, "", "")
        assert name.is_symlink()
        assert name.read_text(encoding="utf-8") == load("edges.apg")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.apg", "link.apg", "made.apg", "real.apg"]


def test_o_gives_the_mode_open_would_and_keeps_an_existing_one(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(tmp_path / "new.apg")) == (
            0, "", "")
    finally:
        os.umask(umask)
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)  # noqa: E731
    assert mode("new.apg") == mode("reference") == 0o640
    existing = tmp_path / "existing.apg"
    existing.write_text("kept\n")
    existing.chmod(0o604)
    assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(existing)) == (0, "", "")
    assert (mode("existing.apg"), existing.read_text(encoding="utf-8")) == (0o604, load("edges.apg"))


def test_a_target_that_refuses_writing_stays_refused(tmp_path, capsys, monkeypatch):
    """open(path, "w") on a file without write permission fails; a rename
    over it would not, so the verb asks first."""
    target = tmp_path / "read-only.apg"
    target.write_text("kept\n")
    os_open = os.open

    def refuse(path, flags, *args, **kwargs):
        if os.fspath(path) == str(target) and flags & os.O_WRONLY:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse)
    assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(target)) == (
        2, "", f"error: cannot write {target}: {os.strerror(errno.EACCES)}\n")
    assert target.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["read-only.apg"]


def test_a_directory_that_takes_no_new_file_has_its_targets_written_in_place(tmp_path, capsys,
                                                                             monkeypatch):
    """Where no file can be made beside the target, an existing target is
    written in place, as open(path, "w") would, and a new one is refused."""
    def no_new_file(name, mode="r", **kwargs):
        if "x" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
        return open(name, mode, **kwargs)

    monkeypatch.setattr(cli, "open", no_new_file, raising=False)
    existing, new = tmp_path / "existing.apg", tmp_path / "new.apg"
    existing.write_text("kept\n")
    assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(existing)) == (0, "", "")
    assert existing.read_text(encoding="utf-8") == load("edges.apg")
    assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(new)) == (
        2, "", f"error: cannot write {new}: {os.strerror(errno.EACCES)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.apg"]


def test_a_target_that_is_no_regular_file_is_written_in_place(tmp_path, capsys):
    assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", os.devnull) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text(encoding="utf-8")),
                              daemon=True)  # a reader the verb never meets does not hold up exit
    reader.start()
    try:
        assert run(capsys, "fmt", fixture_path("edges.apg"), "-o", str(fifo)) == (0, "", "")
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert read == [load("edges.apg")]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


# ---------------------------------------------------------------------------
# literals no output can hold: one error line, never a traceback

HUGE = "1" + "0" * 400  # an integer no float holds
LONG = "1" + "0" * 4999  # more digits than CPython turns into an int
ONE_LITERAL = ('{"schema": {"X": "%s"},\n "elements": {"x": {"label": "X", '
               '"value": {"prim": {"type": "%s", "value": %s}}}}}')
BAD_LITERALS = {
    "Double past float": (ONE_LITERAL % ("Double", "Double", HUGE), 1,
                          f"error: x: literal {HUGE} is outside the Double domain"),
    "5000-digit Nat": (ONE_LITERAL % ("Nat", "Nat", LONG), 2,
                       "error: {file}: invalid JSON: an integer has more than 4300 digits"),
    "lone surrogate": (ONE_LITERAL % ("String", "String", '"a\\ud800"'), 2,
                       "error: {file}: invalid JSON at line 2 column 81: "
                       "lone surrogate in a string (at 108)"),
}


@pytest.mark.parametrize("verb", [["validate"], ["fmt"], ["fmt", "--no-validate"],
                                  ["export", "rdf"], ["export", "relational"]],
                         ids=" ".join)
@pytest.mark.parametrize("case", BAD_LITERALS)
def test_bad_literals_end_in_one_line(tmp_path, capsys, case, verb):
    text, code, message = BAD_LITERALS[case]
    doc = tmp_path / "bad.apg"
    doc.write_text(text)
    out = tmp_path / "out"  # a file or directory: output is encoded as UTF-8
    result = run(capsys, *verb, str(doc), *([] if verb == ["validate"] else ["-o", str(out)]))
    if case == "Double past float" and verb == ["fmt", "--no-validate"]:
        assert result == (0, "", "")
        assert f'"value": {HUGE}' in out.read_text()
    else:
        assert result == (code, "", message.format(file=doc) + "\n")
        assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
def test_an_id_literal_that_is_not_finite_ends_in_one_line(tmp_path, capsys, literal):
    eid = f"E:X:Double={literal}"
    doc = tmp_path / "bad.apg"
    doc.write_text(ONE_LITERAL.replace('"x"', json.dumps(eid)) % ("Double", "Double", "1.5"))
    for verb in (["validate"], ["fmt", "--no-validate"]):
        assert run(capsys, *verb, str(doc)) == (2, "", f"error: elements.{eid}: bad literal (at 11)\n")


@pytest.mark.parametrize("cell, message", [
    ('"""\\ud800"""', "error: bad cell in name.csv row 1, column snd: "
                       "invalid JSON at line 1 column 1: lone surrogate in a string"),
    (LONG, "error: bad cell in name.csv row 1, column snd: "
           "invalid JSON: an integer has more than 4300 digits"),
], ids=["lone surrogate", "5000 digits"])
def test_bad_literal_cells_end_in_one_line(tmp_path, capsys, cell, message):
    tables = tmp_path / "tables"
    assert run(capsys, "export", "relational", fixture_path("names.apg"), "-o", str(tables))[0] == 0
    _replace_in(tables / "name.csv", '"""Arthur Dent"""', cell)
    out = tmp_path / "out.apg"
    code, _, err = run(capsys, "import", "relational", str(tables),
                       "--schema", fixture_path("names.apg"), "-o", str(out))
    assert (code, err) == (2, message + "\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# console entry point

def test_module_invocation_round_trips():
    proc = subprocess.run(
        [sys.executable, "-m", "apg", "fmt", fixture_path("edges.apg")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == load("edges.apg")
    assert write_graph(read_graph(proc.stdout)) == proc.stdout
