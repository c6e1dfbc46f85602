"""The benchmark's tracer wraps apg functions by name; keep those names alive.

`bench/tracing.py` lists the functions it wraps and `bench/run.py` reads
their spans back by name.  Deleting or renaming a traced function would
break `bench/run.py --trace 1`; this check fails first, without running the
benchmark.
"""

import sys
from pathlib import Path

import pytest

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
