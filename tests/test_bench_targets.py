"""The benchmark's tracer wraps apg functions by name; keep those names alive.

`bench/tracing.py` lists the functions it wraps and `bench/run.py` reads
their spans back by name.  Deleting or renaming a traced function would
break `bench/run.py --trace 1`; this check fails first, without running the
benchmark.
"""

import sys
from pathlib import Path

import pytest

from apg import files
from apg.adt import parse_id
from apg.cli import main
from apg.fixtures import path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Spans that are not function wrappers: the adt probe opens these itself.
PROBE_SPANS = {"adt.hash", "adt.render"}

# Spans the report looks up by name outside FUNCTION_TIMES.
REPORT_SPANS = {"cli.main", "files.read_graph", "graph.validate_graph"}


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # importing leaves nothing under bench/
    try:
        import run
        import tracing
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(BENCH))
    return run, tracing


def test_every_timed_span_is_traced(bench_modules):
    run, tracing = bench_modules
    traced = {tracing.span_name(fn) for fn, _ in tracing.TARGETS}
    for name in set(run.FUNCTION_TIMES.values()) | REPORT_SPANS:
        assert name in traced | PROBE_SPANS, name


def test_the_adt_probe_reads_plain_ids_as_atoms(bench_modules):
    """bench/tracing.py tells a plain id by isinstance(e, adt.Atom), which a
    plain id, a str, passes."""
    _, tracing = bench_modules
    assert tracing.id_depth(parse_id("a")) == 1
    assert tracing.id_depth(parse_id("(a,L:b)")) == 3
    graph = files.read_graph(path("trips.apg").read_text(encoding="utf-8"))
    recorder = tracing.Recorder()
    assert tracing.adt_probe(recorder, [graph]) == 1
    assert [span.name for span in recorder.spans] == ["adt.hash", "adt.render"]


def test_each_graph_writing_verb_streams_each_output_graph_once(tmp_path, monkeypatch, capsys):
    """Each verb writes one files.graph_chunks stream per output graph.  The
    tracer wraps files.write_graph, which the verbs no longer call, so the
    traced run's files.write_s, bytes_out and elements_out read 0 until it
    follows the stream (ROADMAP item 1, step B)."""
    calls = []
    graph_chunks = files.graph_chunks
    monkeypatch.setattr(files, "graph_chunks", lambda g: calls.append(g) or graph_chunks(g))
    trips, vertices, edges = (str(path(name)) for name in ("trips.apg", "vertices.apg", "edges.apg"))
    tables = str(tmp_path / "tables")
    assert main(["export", "relational", trips, "-o", tables]) == 0
    assert calls == []
    for argv in (["fmt", trips],
                 ["op", "product", vertices, edges],
                 ["op", "coproduct", vertices, edges],
                 ["merge", str(path("plates1.apg")), str(path("plates2.apg"))],
                 ["migrate", str(path("mapping.apgm")), str(path("mapping_input.apg"))],
                 ["import", "relational", tables, "--schema", trips,
                  "-o", str(tmp_path / "imported.apg")]):
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_each_graph_reading_verb_calls_graph_from_json_once_per_graph(tmp_path, monkeypatch,
                                                                       capsys):
    """The traced run reads files.from_json_s from one files.graph_from_json
    call per graph document a verb reads; a schema-only read makes none."""
    calls = []
    graph_from_json = files.graph_from_json
    monkeypatch.setattr(files, "graph_from_json",
                        lambda *args: calls.append(args) or graph_from_json(*args))
    trips, vertices, edges = (str(path(name)) for name in ("trips.apg", "vertices.apg", "edges.apg"))
    tables = str(tmp_path / "tables")
    out = str(tmp_path / "out")
    for argv, graphs in ((["validate", trips], 1),
                         (["fmt", trips, "-o", out], 1),
                         (["fmt", "--no-validate", trips, "-o", out], 1),
                         (["classify", trips, "-o", out], 1),
                         (["export", "rdf", trips, "-o", out], 1),
                         (["export", "relational", trips, "-o", tables], 1),
                         (["export", "kv", str(path("plates1.apg")), "--label", "PlateNumber",
                           "-o", out], 1),
                         (["import", "relational", tables, "--schema", trips, "-o", out], 0),
                         (["op", "product", vertices, edges, "-o", out], 2),
                         (["op", "coproduct", vertices, edges, "-o", out], 2),
                         (["merge", str(path("plates1.apg")), str(path("plates2.apg")),
                           "-o", out], 2),
                         (["migrate", str(path("mapping.apgm")), str(path("mapping_input.apg")),
                           "-o", out], 1)):
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == graphs, argv
    capsys.readouterr()
