"""The command line on mutated morphism documents and table sets, in process.
Seeded from the fixtures and from inputs nested near and past the depth the
interpreter allows, every run ends in exit 0, 1 or 2 with no traceback,
gives the caller's collector setting back, and writes a graph that fmt reads
and writes back byte for byte."""

import contextlib
import copy
import csv
import gc
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from apg.cli import main
from apg.files import read_graph, write_morphism
from apg.fixtures import load
from apg.morphism import identity

from .test_read_side import slots

FIXTURES = ["trips.apg", "names.apg", "plates1.apg", "vertices.apg"]
DEEP_ID = "L:" * 3000 + "a"
DEEP_JSON = "<3000 nested arrays>"  # a fragment the dumped text spells out in full


def deep_sum_text(depth):
    """One element of a right-nested sum of depth + 1 units, holding its last
    injection: deep enough to be slow, not so deep that a verb refuses it."""
    value = {"unit": {}}
    for _ in range(depth):
        value = {"inr": value}
    return json.dumps({"schema": {"D": " + ".join(["1"] * (depth + 1))},
                       "elements": {"d1": {"label": "D", "value": value}}})


FRAGMENTS = ["n1", "n2", "u1", "ghost", "L:n1", "(n1,u1)", "(n1", "", DEEP_ID, "\ud800",
             "Name", "User", "Place", "V", "D", 10 ** 30, 1e308, -1, 0, True, None,
             [], {}, {"n1": "n2"}, {"Name": "User"}, DEEP_JSON]
KEYS = ["", "onLabels", "onElements", "n1", "Name", "User", "d1", DEEP_ID]
CELLS = ["", "n1", "u1", "ghost", "(u1", "L:u1", DEEP_ID, "r", "l", "x", "1", "-1", "1.5",
         "1e999", "NaN", "1" + "0" * 5000, '"\\ud800"', '"s"', "true", "null", "[]", "{}"]


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Per seed graph: its file, and its identity morphism and relational
    export, each made once."""
    root = tmp_path_factory.mktemp("seeds")
    texts = {name: load(name) for name in FIXTURES} | {"deep.apg": deep_sum_text(300)}
    made = []
    for name, text in texts.items():
        graph_file = root / name
        graph_file.write_text(text)
        morphism = json.loads(write_morphism(identity(read_graph(text))))
        with quiet():
            assert main(["export", "relational", str(graph_file), "-o", str(root / f"{name}.d")]) == 0
        made.append((graph_file, morphism, root / f"{name}.d"))
    return made


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        yield err


def dumped(doc) -> str:
    return json.dumps(doc).replace(json.dumps(DEEP_JSON), "[" * 3000 + "]" * 3000)


def edit_json(doc, edits):
    """doc with each edit applied: put a fragment at a position (the root
    included) or rename an object's member."""
    for where, what, rename in edits:
        spots = slots(doc)
        if where % (len(spots) + 1) == len(spots):
            doc = copy.deepcopy(FRAGMENTS[what % len(FRAGMENTS)])
            continue
        container, key = spots[where % len(spots)]
        if rename and isinstance(container, dict):
            container[KEYS[what % len(KEYS)]] = container.pop(key)
        else:
            container[key] = copy.deepcopy(FRAGMENTS[what % len(FRAGMENTS)])
    return doc


def damage_text(data: bytes, cut: int, how: str) -> bytes:
    """data cut short, or with a byte that is no UTF-8 put in, at cut."""
    at = cut % (len(data) + 1)
    return data[:at] if how == "cut" else data[:at] + b"\xff" + data[at:]


def run_and_check(argv, out: Path, enabled: bool):
    """Run argv with the collector set to enabled, then check the outcome."""
    gc.enable() if enabled else gc.disable()
    try:
        with quiet() as err:
            code = main(argv)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        again = out.with_suffix(".again")
        with quiet():
            assert main(["fmt", str(out), "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
    return code


EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.booleans()),
                 max_size=3)
TEXT_DAMAGE = st.one_of(st.none(), st.tuples(st.integers(0, 10 ** 6), st.sampled_from(["cut", "byte"])))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["equalizer", "coequalizer", "pushout"]),
       EDITS, TEXT_DAMAGE, st.booleans())
def test_morphism_documents(seeds, pick, operation, edits, damage, enabled):
    graph_file, morphism, _ = seeds[pick % len(seeds)]
    data = dumped(edit_json(copy.deepcopy(morphism), edits)).encode("utf-8")
    if damage is not None:
        data = damage_text(data, *damage)
    with tempfile.TemporaryDirectory() as tmp:
        edited, same, out = Path(tmp) / "h.apgmor", Path(tmp) / "id.apgmor", Path(tmp) / "out.apg"
        edited.write_bytes(data)
        same.write_text(json.dumps(morphism))
        graphs = [str(graph_file)] * (3 if operation == "pushout" else 2)
        run_and_check(["op", operation, *graphs, str(edited), str(same), "-o", str(out)],
                      out, enabled)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.sampled_from(["cell", "drop", "repeat"])), max_size=3),
       EDITS, TEXT_DAMAGE, st.booleans())
def test_table_sets(seeds, pick, which, cell_edits, manifest_edits, damage, enabled):
    graph_file, _, tables = seeds[pick % len(seeds)]
    with tempfile.TemporaryDirectory() as tmp:
        directory, out = Path(tmp) / "tables", Path(tmp) / "out.apg"
        shutil.copytree(tables, directory)
        names = sorted(p.name for p in directory.iterdir())
        target = directory / names[which % len(names)]
        if target.name == "manifest.json":
            manifest = json.loads(target.read_text(encoding="utf-8"))
            target.write_text(dumped(edit_json(manifest, manifest_edits)), encoding="utf-8")
        else:
            rows = list(csv.reader(io.StringIO(target.read_text(encoding="utf-8"))))
            for where, what, kind in cell_edits:
                row = rows[where % len(rows)]
                if kind == "cell" and row:
                    row[what % len(row)] = CELLS[what % len(CELLS)]
                elif kind == "drop":
                    rows.remove(row)
                else:
                    rows.append(list(row))
                if not rows:
                    break
            text = io.StringIO()
            csv.writer(text).writerows(rows)
            target.write_text(text.getvalue(), encoding="utf-8")
        if damage is not None:
            target.write_bytes(damage_text(target.read_bytes(), *damage))
        run_and_check(["import", "relational", str(directory), "--schema", str(graph_file),
                       "-o", str(out)], out, enabled)


def test_the_seeds_reach_every_outcome(seeds, tmp_path):
    """Unedited, each seed succeeds; a morphism that moves an element to
    another label fails with exit 1; a deep id in a morphism or a cell is
    refused with exit 2, not a traceback."""
    for graph_file, morphism, tables in seeds:
        out = tmp_path / "out.apg"
        m = tmp_path / "id.apgmor"
        m.write_text(json.dumps(morphism))
        assert run_and_check(["op", "coequalizer", str(graph_file), str(graph_file),
                              str(m), str(m), "-o", str(out)], out, True) == 0
        assert run_and_check(["import", "relational", str(tables), "--schema", str(graph_file),
                              "-o", str(out)], out, True) == 0
    graph_file, morphism, tables = seeds[FIXTURES.index("names.apg")]
    m.write_text(json.dumps(morphism | {"onElements": morphism["onElements"] | {"n1": "u1"}}))
    assert run_and_check(["op", "equalizer", str(graph_file), str(graph_file), str(m), str(m),
                          "-o", str(out)], out, True) == 1
    m.write_text(json.dumps({"onElements": {DEEP_ID: "n1"}}))
    assert run_and_check(["op", "equalizer", str(graph_file), str(graph_file), str(m), str(m),
                          "-o", str(out)], out, True) == 2
    copied = tmp_path / "tables"
    shutil.copytree(tables, copied)
    user = copied / "User.csv"
    user.write_text(user.read_text().replace("u1", DEEP_ID, 1))
    assert run_and_check(["import", "relational", str(copied), "--schema", str(graph_file),
                          "-o", str(out)], out, False) == 2
