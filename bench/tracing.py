"""Span recorder for the traced in-process run.

Spans are recorded from the benchmark's side: while a traced round runs,
the public functions listed in TARGETS are replaced, in every `apg` module
that binds them, by wrappers that open a span around the call.  Nothing
inside `apg` changes.  Each span holds its name, start, end, parent span and
round id; spans stay in memory until the run writes them out.  Counts are
taken from each call's arguments and result right after it returns, inside
a `trace.count` span of their own, so they add to no layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from apg import adt, bridges, catops, cli, files, graph, integrate, migrate


def _pushout_counts(args, result):
    f, g = args
    members = {}
    for leg in result.legs.values():
        for cls in leg.on_elements.values():
            members[cls] = members.get(cls, 0) + 1
    union = len(f.target.elements) + len(g.target.elements)
    return {"classes": sum(1 for n in members.values() if n > 1),
            "collapsed": union - len(result.graph.elements)}


def _match_counts(args, result):
    apex = result[0]
    return {"matched_pairs": len(apex.elements), "left_elements": len(args[0].elements)}


# (function, counts taken from its arguments and result)
TARGETS = [
    (cli.main, None),
    (files.read_graph, lambda a, r: {"bytes_in": len(a[0].encode()),
                                     "elements_in": len(r.elements)}),
    (files.read_mapping, lambda a, r: {"bytes_in": len(a[0].encode())}),
    (files.graph_from_json, None),
    (files.write_graph, lambda a, r: {"bytes_out": len(r.encode()),
                                      "elements_out": len(a[0].elements)}),
    (files.graph_to_json, None),
    (graph.validate_graph, lambda a, r: {"elements_checked": len(a[0].elements)}),
    (catops.product, lambda a, r: {"elements_out": len(r.graph.elements)}),
    (catops.pushout, _pushout_counts),
    (integrate.merge_by_key, None),
    (integrate.match_by_key, _match_counts),
    (migrate.typecheck_mapping, None),
    (migrate.delta_migrate, lambda a, r: {
        "witnesses": sum(isinstance(e, adt.Enc) for e in r.elements),
        "elements_out": len(r.elements)}),
    (bridges.export_rdf, lambda a, r: {"triples": r.count("\n")}),
    (bridges.export_relational, lambda a, r: {
        "rows": sum(len(t.rows) for t in r.tables.values())}),
    (bridges.write_tableset, None),
    (bridges.read_tableset, None),
    (bridges.import_relational, None),
]


def span_name(fn) -> str:
    """Layer-qualified name, e.g. "files.read_graph" for apg.files.read_graph."""
    return fn.__module__.rpartition(".")[2] + "." + fn.__name__


@dataclass
class Span:
    id: int
    parent: int | None
    round: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans in memory; `instrument` wraps the TARGETS while in use."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[Span] = []
        self.graphs: list = []  # graphs the current command read or wrote

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.round, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, counter):
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counting = self.open("trace.count")
                span.counts = counter(args, result)
                self.close(counting)
            self.graphs.extend(obj for obj in (*args, result) if isinstance(obj, graph.Graph))
            return result

        return wrapper

    def instrument(self):
        """Replace every binding of a target in the apg modules; return an undo."""
        wrappers = {id(fn): self._wrap(fn, counter) for fn, counter in TARGETS}
        swapped = []
        for name, module in list(sys.modules.items()):
            if name != "apg" and not name.startswith("apg."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    swapped.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

        def undo():
            for module, attr, value in swapped:
                setattr(module, attr, value)

        return undo

    def release(self):
        """Drop the graphs kept for the adt probe.  An untraced `cli.main`
        frees them before it returns, so freeing them gets a span that
        counts as command time."""
        span = self.open("cli.release")
        self.graphs.clear()
        self.close(span)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"id": s.id, "parent": s.parent, "round": s.round,
                                         "name": s.name, "start": s.start, "end": s.end,
                                         "counts": s.counts}) + "\n")


def id_depth(e) -> int:
    """Nesting depth of an element id; witness references count too."""
    if isinstance(e, adt.Atom):
        return 1
    if isinstance(e, adt.PairId):
        return 1 + max(id_depth(e.first), id_depth(e.second))
    if isinstance(e, (adt.Left, adt.Right)):
        return 1 + id_depth(e.inner)
    if isinstance(e, adt.Class):
        return 1 + id_depth(e.rep)
    return 1 + _value_depth(e.witness)


def _value_depth(v) -> int:
    if isinstance(v, adt.Ref):
        return id_depth(v.element)
    if isinstance(v, adt.Pair):
        return max(_value_depth(v.first), _value_depth(v.second))
    if isinstance(v, (adt.Inl, adt.Inr)):
        return _value_depth(v.inner)
    return 0


def adt_probe(recorder: Recorder, graphs: list) -> int:
    """Hash and render every id and value of the given graphs, each in its own
    top-level span, from outside the program.  Returns the deepest id."""
    unique = list({id(g): g for g in graphs}.values())
    span = recorder.open("adt.hash")
    for g in unique:
        for e, el in g.elements.items():
            hash(e)
            hash(el.value)
    recorder.close(span)
    span = recorder.open("adt.render")
    for g in unique:
        for e in g.elements:
            adt.render_id(e)
    recorder.close(span)
    return max((id_depth(e) for g in unique for e in g.elements), default=0)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own

