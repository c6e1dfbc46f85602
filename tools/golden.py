"""Pin what apg writes: run a fixed corpus of commands in process through
cli.main and keep, per command, one sha256 of its exit code, stdout, stderr
and the files it wrote.  Temporary paths in stdout and stderr are written as
{work} and the fixture directory as {fixtures}, so the digests do not depend
on where the corpus ran.

Run from the repository root:

    python3 tools/golden.py            name each command whose digest differs
    python3 tools/golden.py --write    record the digests in tests/golden.json

A change that means to alter an output records the file again with --write
and names each changed command.  tests/test_golden.py runs the same check.

The corpus: every fixture through each read and export verb; ordered
fixture pairs through op product, op coproduct and merge; identity
morphisms through op equalizer, coequalizer and pushout; morphisms that
glue distinct elements through op pushout and op coequalizer (the
match_by_key legs of the plate fixtures, two vertices of edges.apg merged,
and a pair that mixes labels); the shipped migrate; an import relational
round trip per fixture and one on a graph whose label ⊤, a name outside
ASCII, is referenced by another label; the bad documents that
tests/test_cli.py feeds the verbs; a 300-level sum; fmt, op product,
migrate and export rdf with -o naming their own input, a file in a missing
directory, a directory and an existing file; the tiny benchmark workloads
of two seeds; and values that are malformed or misfit their type several
steps down (under fst, snd, inl and inr, and at the leaf of a 300-level
sum) through validate, fmt and merge, which pin the place each message
names; and graphs with enough elements per label that the writer compiles
their shapes: misfit values through fmt --no-validate, a sum whose elements
take both branches, types past the writer's bound, a record of six optional
fields (64 forms), and number and boolean literals; and classify of every
fixture in generalized mode (APG_STRICT_TAXONOMY=0), and in both modes of
three schemas whose labels wait on each other in cycles and of a 300-label
tag chain, and classify --label, with the mode unset and generalized, of
every label of the cyclic schemas, three of the chain and one undeclared.
Deeper nesting is left out: how close to the recursion limit an in-process
run may go depends on its caller's stack.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from apg import cli  # noqa: E402
from apg.files import read_graph, write_graph, write_morphism  # noqa: E402
from apg.integrate import match_by_key  # noqa: E402
from apg.fixtures import path as fixture  # noqa: E402

FIXTURES = Path(str(fixture("trips.apg"))).parent
GRAPHS = sorted(p.name for p in FIXTURES.glob("*.apg"))
SEEDS = (1, 2)

# Bad documents, as tests/test_cli.py writes them.
HUGE = "1" + "0" * 400  # an integer no float holds
LONG = "1" + "0" * 4999  # more digits than CPython turns into an int
ONE_LITERAL = ('{"schema": {"X": "%s"},\n "elements": {"x": {"label": "X", '
               '"value": {"prim": {"type": "%s", "value": %s}}}}}')
BAD_DOCUMENTS = {
    "ghost label": json.dumps({"schema": {"User": "1"},
                               "elements": {"u1": {"label": "Ghost", "value": {"unit": {}}}}}),
    "dangling reference": json.dumps({"schema": {"V": "1"},
                                      "elements": {"v": {"label": "V", "value": {"ref": "w"}}}}),
    "broken JSON": '{"elements":\n',
    "broken JSON, CR LF": '{"elements":\r\n',
    "broken JSON, CR": '{"elements":\r',
    "not UTF-8": ('{"schema": {"S": "String"}, "elements": {"s": {"label": "S", '
                  '"value": {"prim": {"type": "String", "value": "a\xffb"}}}}}'),
    "Double past float": ONE_LITERAL % ("Double", "Double", HUGE),
    "5000-digit Nat": ONE_LITERAL % ("Nat", "Nat", LONG),
    "lone surrogate": ONE_LITERAL % ("String", "String", '"a\\ud800"'),
    **{f"id literal {literal}": ONE_LITERAL.replace('"x"', json.dumps(f"E:X:Double={literal}"))
       % ("Double", "Double", "1.5") for literal in ("NaN", "-Infinity", "1e999")},
    "5000-deep id": json.dumps({"schema": {"V": "1"}, "elements": {
        "L:" * 5000 + "a": {"label": "V", "value": {"unit": {}}}}}),
    "3000-factor product type": json.dumps({"schema": {"V": "1", "P": " * ".join(["V"] * 3000)}}),
    "300-level sum": ('{"schema": {"D": "%s"}, "elements": {"d1": {"label": "D", "value": %s}}}'
                      % (" + ".join(["1"] * 301), '{"inr": ' * 300 + '{"unit": {}}' + "}" * 300)),
}
BAD_TERMS = {"leading zero": "Nat 01", "bad escape": 'String "\\x"',
             "number past a double": "Double 1e999"}
READ_VERBS = [["validate"], ["fmt"], ["fmt", "--no-validate"], ["export", "rdf"],
              ["export", "relational"]]
DEEP_VERBS = [["validate"], ["fmt"], ["classify"], ["export", "rdf"], ["export", "relational"]]


class Corpus:
    """The commands in run order, each with its own empty run directory."""

    def __init__(self, work: Path):
        self.work = work
        self.inputs = work / "in"
        self.inputs.mkdir(parents=True)
        self.cases: dict[str, tuple[Path, list[str], list[str], dict[str, str]]] = {}

    def add(self, name: str, *argv: str, out: bool = True, cwd: Path | None = None,
            outputs: tuple[str, ...] = (), env: dict[str, str] | None = None) -> Path:
        """Add a command; with out, a verb but validate writes "out" in its run
        directory; env holds environment variables set while it runs."""
        if cwd is None:
            cwd = self.work / "runs" / str(len(self.cases))
            cwd.mkdir(parents=True)
        if out and argv[0] != "validate":
            argv, outputs = (*argv, "-o", "out"), ("out",)
        assert name not in self.cases, name
        self.cases[name] = cwd, [str(word) for word in argv], list(outputs), env or {}
        return cwd

    def write(self, name: str, text: str, encoding: str = "utf-8") -> str:
        target = self.inputs / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(text.encode(encoding))
        return str(target)


def build(work: Path) -> Corpus:
    c = Corpus(work)
    f = {name: str(FIXTURES / name) for name in [*GRAPHS, "mapping.apgm"]}
    for name in GRAPHS:
        g = f[name]
        doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        c.add(f"validate {name}", "validate", g)
        c.add(f"fmt {name}", "fmt", g)
        c.add(f"fmt --no-validate {name}", "fmt", "--no-validate", g)
        c.add(f"classify {name}", "classify", g)
        c.add(f"classify {name}, generalized", "classify", g, env=GENERALIZED)
        c.add(f"export rdf {name}", "export", "rdf", g)
        tables = c.add(f"export relational {name}", "export", "relational", g)
        c.add(f"import relational {name}", "import", "relational", tables / "out", "--schema", g)
        for label in sorted(doc["schema"]):
            c.add(f"export kv {name} --label {label}", "export", "kv", g, "--label", label)
        ident = c.write(f"{name}.id.apgh", json.dumps({
            "onLabels": {label: label for label in doc["schema"]},
            "onElements": {e: e for e in doc.get("elements", {})}}))
        c.add(f"op equalizer {name}", "op", "equalizer", g, g, ident, ident)
        c.add(f"op coequalizer {name}", "op", "coequalizer", g, g, ident, ident)
        c.add(f"op pushout {name}", "op", "pushout", g, g, g, ident, ident)
    for a in GRAPHS:
        for b in GRAPHS:
            c.add(f"op product {a} {b}", "op", "product", f[a], f[b])
            c.add(f"op coproduct {a} {b}", "op", "coproduct", f[a], f[b])
            c.add(f"merge {a} {b}", "merge", f[a], f[b])
    for a, b in (("plates1.apg", "plates2.apg"), ("plates2.apg", "plates1.apg")):
        c.add(f"merge --key fst {a} {b}", "merge", "--key", "fst", f[a], f[b])
    c.add("migrate mapping.apgm", "migrate", f["mapping.apgm"], f["mapping_input.apg"])
    top = c.write("top.apg", json.dumps({
        "schema": {"⊤": "1", "E": "⊤ * String"},
        "elements": {"t": {"label": "⊤", "value": {"unit": {}}},
                     "e": {"label": "E", "value": {"pair": [{"ref": "t"}, _string(0)]}}}}))
    tables = c.add("export relational top.apg", "export", "relational", top)
    c.add("import relational top.apg", "import", "relational", tables / "out", "--schema", top)
    _gluing(c, f)
    _bad(c, f)
    _targets(c)
    _benchmark(c)
    _places(c)
    _shapes(c)
    _taxonomy(c)
    return c


def _nest(steps: str, leaf: str) -> str:
    """The JSON text of leaf wrapped in one value form per step, outermost
    first: f and s put it first or second in a pair, l and r inject it."""
    for step in reversed(steps):
        leaf = {"f": '{"pair": [%s, {"unit": {}}]}', "s": '{"pair": [{"unit": {}}, %s]}',
                "l": '{"inl": %s}', "r": '{"inr": %s}'}[step] % leaf
    return leaf


UNIT, BOOL = '{"unit": {}}', "(1 + 1)"
# name -> (type of label D, value of d1): malformed values, each faulting below several steps
MALFORMED = {
    "under fst": ("1", _nest("fffsf", '{"nope": {}}')),
    "under snd": ("1", _nest("sssfs", '{"nope": {}}')),
    "under inl": ("1", _nest("lllrl", '{"nope": {}}')),
    "under inr": ("1", _nest("rrrlr", '{"nope": {}}')),
    "bad id in a ref": ("1", _nest("fsl", '{"ref": "L:"}')),
    "non-string ref": ("1", _nest("rs", '{"ref": 7}')),
    "non-string prim type": ("1", _nest("sf", '{"prim": {"type": 3, "value": 1}}')),
    "prim without a value": ("1", _nest("lr", '{"prim": {"type": "Nat"}}')),
    "unit with a body": ("1", _nest("rf", '{"unit": {"x": 1}}')),
    "pair of three": ("1", _nest("fl", '{"pair": [%s, %s, %s]}' % (UNIT, UNIT, UNIT))),
    "two forms": ("1", _nest("s", '{"unit": {}, "inl": {"unit": {}}}')),
    "not an object": ("1", _nest("lf", "[]")),
    "unknown form": ("1", _nest("sr", '{"wat": {}}')),
}
# name -> (type of label D, value of d1): well-formed values that misfit D below several steps
MISFITS = {
    "wrong leaf under fst": (f"({BOOL} * 1) * 1",
                             _nest("ff", '{"prim": {"type": "Nat", "value": 1}}')),
    "wrong side under snd": (f"1 * (1 * (1 + {BOOL}))",
                             _nest("ssr", '{"pair": [%s, %s]}' % (UNIT, UNIT))),
    "wrong literal under inl": ("(Nat + 1) + 1",
                                _nest("ll", '{"prim": {"type": "String", "value": "x"}}')),
    "literal outside its domain under snd": ("1 * (1 * Nat)",
                                             _nest("ss", '{"prim": {"type": "Nat", "value": "x"}}')),
    "reference to a missing element under inr": ("1 + (1 + D)", _nest("rr", '{"ref": "ghost"}')),
    "reference to the wrong label under a pair": ("1 * (E + 1)", _nest("sl", '{"ref": "d1"}')),
    "wrong leaf under the 300-level sum": (" + ".join(["1"] * 301),
                                          _nest("r" * 300, '{"prim": {"type": "Nat", '
                                                           '"value": 3}}')),
}
PLACE_VERBS = [["validate"], ["fmt", "--no-validate"], ["merge"]]
MODES = {"strict": {"APG_STRICT_TAXONOMY": "1"}, "generalized": {"APG_STRICT_TAXONOMY": "0"}}
GENERALIZED = MODES["generalized"]
# name -> schema whose labels wait on each other in a cycle, some tagging into it
CYCLIC = {
    "A": {"l0": "l1 * String", "l1": "l2 + l1", "l2": "l1"},
    "B": {"l0": "(String * l2) * (l3 + l0)", "l1": "l0", "l2": "String * 1", "l3": "l1"},
    "S": {"V": "1", "X": "Y * V", "Y": "X", "Z": "Y", "W": "W * W"},
}


def tag_chain(n: int) -> dict[str, str]:
    """n tags in a row, each label tagging the next, down to a vertex."""
    return {**{f"l{i:05d}": f"l{i + 1:05d}" for i in range(n)}, f"l{n:05d}": "1"}


def _places(c: Corpus):
    """Malformed and misfitting values whose faults lie several steps inside
    them, each through validate, fmt --no-validate and merge, and the misfits
    through fmt: every message names the place of the fault."""
    for kind, cases in (("malformed", MALFORMED), ("misfit", MISFITS)):
        for name, (t, value) in cases.items():
            doc = c.write(f"places/{kind} {name}.apg", json.dumps(
                {"schema": {"D": t, "E": "1"}, "elements": {
                    "d1": {"label": "D", "value": json.loads(value)},
                    "e1": {"label": "E", "value": {"unit": {}}}}}))
            verbs = PLACE_VERBS + [["fmt"]] * (kind == "misfit")
            for verb in verbs:
                inputs = [doc, doc] if verb == ["merge"] else [doc]
                c.add(f"{' '.join(verb)} {kind} value, {name}", *verb, *inputs)


def _many(label: str, count: int, value) -> dict:
    """count elements of label, one id each, valued value(i)."""
    return {f"{label.lower()}{i}": {"label": label, "value": value(i)} for i in range(count)}


def _string(i: int) -> dict:
    return _prim("String", f"s{i} é \"q\"")


def _prim(name: str, literal) -> dict:
    return {"prim": {"type": name, "value": literal}}


def _record(i: int) -> dict:
    """A reference and six optional strings, the bits of i choosing which are set."""
    value = {"ref": f"n{i}"}
    for k in range(6):
        value = {"pair": [value, {"inr": _string(i + k)} if i >> k & 1 else {"inl": {"unit": {}}}]}
    return value


def _shapes(c: Corpus):
    """Labels with 400 elements each, enough that the writer compiles their
    shapes, and values that take no form of a compiled shape among them."""
    nodes = _many("N", 400, lambda i: {"unit": {}})
    misfits = c.write("shapes/misfits.apg", json.dumps({
        "schema": {"N": "1", "P": "N * String", "Z": "0 + 1", "S": "String"},
        "elements": {
            **nodes,
            **_many("P", 400, lambda i: {"pair": [{"ref": f"n{i}"}, _string(i)]}),
            "p7": {"label": "P", "value": {"pair": [{"ref": "n7"}, {"pair": [
                {"unit": {}}, {"unit": {}}]}]}},
            "p8": {"label": "P", "value": {"pair": [{"ref": "n8"}, {"prim": {
                "type": "String", "value": [1, {"b": [], "a": "é"}]}}]}},
            **_many("Z", 400, lambda i: {"inr": {"unit": {}}}),
            "z7": {"label": "Z", "value": {"inl": {"unit": {}}}},
            "n7": {"label": "N", "value": {"ref": "n8"}},
            "ghost": {"label": "Ghost", "value": {"pair": [{"unit": {}}, _string(0)]}},
            **_many("S", 400, _string),
            "s7": {"label": "S", "value": {"prim": {"type": "Nat", "value": 7}}},
        }}))
    c.add("fmt --no-validate misfit values", "fmt", "--no-validate", misfits)
    both = c.write("shapes/both branches.apg", json.dumps({
        "schema": {"N": "1", "S": "N + String * (N + 1)"},
        "elements": {**nodes, **_many("S", 400, lambda i: (
            {"inl": {"ref": f"n{i}"}} if i % 3 == 0 else {"inr": {"pair": [_string(i), (
                {"inl": {"ref": f"n{i}"}} if i % 3 == 1 else {"inr": {"unit": {}}})]}}))}}))
    c.add("fmt sum whose elements take both branches", "fmt", both)
    bits, wide = 10, 40
    over = c.write("shapes/over the bound.apg", json.dumps({
        "schema": {"B": " * ".join(["(1 + 1)"] * bits), "W": " + ".join(["1"] * wide),
                   "T": " * ".join(["1"] * wide)},
        "elements": {
            **_many("B", 100, lambda i: json.loads(_nest("s" * (bits - 1), (
                '{"inr": {"unit": {}}}' if i >> (bits - 1) & 1 else '{"inl": {"unit": {}}}'))
                .replace('{"unit": {}}, ', '{"inl": {"unit": {}}}, ' if i % 2 else
                         '{"inr": {"unit": {}}}, '))),
            **_many("W", 100, lambda i: json.loads(_nest("r" * (i % wide), (
                '{"inl": {"unit": {}}}' if i % wide < wide - 1 else '{"unit": {}}')))),
            **_many("T", 100, lambda i: json.loads(_nest("s" * (wide - 2), (
                '{"pair": [{"unit": {}}, {"unit": {}}]}'))))}}))
    c.add("fmt types past the shape bound", "fmt", over)
    fields = c.write("shapes/optional fields.apg", json.dumps({
        "schema": {"N": "1", "R": "(" * 6 + "N" + " * (1 + String))" * 6},
        "elements": {**nodes, **_many("R", 400, _record)}}))
    c.add("fmt record of six optional fields", "fmt", fields)
    literals = c.write("shapes/numbers and booleans.apg", json.dumps({
        "schema": {"N": "Nat", "I": "Integer", "D": "Double", "B": "Boolean"},
        "elements": {
            **_many("N", 400, lambda i: _prim("Nat", 2 ** 80 + i if i % 7 == 0 else i * 1009)),
            **_many("I", 400, lambda i: _prim("Integer", (-1) ** i * (i * 10 ** (i % 25)))),
            **_many("D", 400, lambda i: _prim("Double", [
                -0.0, 5e-324, 1e300, 0.1, -2.5e-7, i, i / 7][i % 7])),
            **_many("B", 400, lambda i: _prim("Boolean", i % 3 == 0))}}))
    c.add("fmt number and boolean literals", "fmt", literals)


def _taxonomy(c: Corpus):
    """classify in both modes of schemas whose labels wait in cycles and of a
    300-label tag chain; and classify --label, with APG_STRICT_TAXONOMY unset
    and 0, of each label of the cyclic schemas, of three labels of the chain
    and of a label that cyclic schema A does not declare."""
    schemas = {f"cyclic schema {name}": types for name, types in CYCLIC.items()}
    schemas["300-label tag chain"] = tag_chain(300)
    asked = {**{name: sorted(types) for name, types in schemas.items()},
             "300-label tag chain": ["l00000", "l00150", "l00300"]}
    asked["cyclic schema A"] = [*asked["cyclic schema A"], "ghost"]
    for name, types in schemas.items():
        doc = c.write(f"taxonomy/{name}.apg", json.dumps({"schema": types, "elements": {}}))
        for mode, env in MODES.items():
            c.add(f"classify {name}, {mode}", "classify", doc, env=env)
        for label in asked[name]:
            for mode, env in (("default", {}), ("generalized", GENERALIZED)):
                c.add(f"classify {name} --label {label}, {mode}", "classify", doc,
                      "--label", label, env=env)


# verb -> its words and input fixtures; the last input is the one -o overwrites in place
TARGET_VERBS = {"fmt": (["fmt"], ["trips.apg"]),
                "op product": (["op", "product"], ["vertices.apg", "edges.apg"]),
                "migrate": (["migrate"], ["mapping.apgm", "mapping_input.apg"]),
                "export rdf": (["export", "rdf"], ["trips.apg"])}


def _gluing(c: Corpus, f: dict):
    """Spans and parallel pairs whose maps glue distinct elements."""
    plates = [read_graph((FIXTURES / name).read_text(encoding="utf-8"))
              for name in ("plates1.apg", "plates2.apg")]
    for key in (None, "fst"):
        apex, m1, m2 = match_by_key(*plates, key)
        paths = [c.write(f"match {key}/{name}", text) for name, text in
                 (("apex.apg", write_graph(apex)), ("m1.apgh", write_morphism(m1)),
                  ("m2.apgh", write_morphism(m2)))]
        c.add(f"op pushout match_by_key legs, key {key}", "op", "pushout", paths[0],
              f["plates1.apg"], f["plates2.apg"], *paths[1:])
    # A one-element source on edges.apg's schema, mapped onto two elements of edges.apg.
    edges = json.loads((FIXTURES / "edges.apg").read_text(encoding="utf-8"))
    one = c.write("glue/one.apg", json.dumps(
        {**edges, "elements": {"s": {"label": "User", "value": {"unit": {}}}}}))
    to = {e: c.write(f"glue/to-{e}.apgh", json.dumps(
        {"onLabels": {label: label for label in edges["schema"]}, "onElements": {"s": e}}))
        for e in ("u1", "u2", "t1")}
    c.add("op coequalizer edges.apg u1 = u2", "op", "coequalizer", one, f["edges.apg"],
          to["u1"], to["u2"])
    c.add("op coequalizer edges.apg u2 = u1", "op", "coequalizer", one, f["edges.apg"],
          to["u2"], to["u1"])
    c.add("op pushout edges.apg u1 = u2", "op", "pushout", one, f["edges.apg"], f["edges.apg"],
          to["u1"], to["u2"])
    c.add("op coequalizer edges.apg u1 = t1, mixed labels", "op", "coequalizer", one,
          f["edges.apg"], to["u1"], to["t1"])


def _targets(c: Corpus):
    """Each kind of -o target, with every file of the run directory kept as
    an output, so a file left beside the target changes the digest too."""
    for name, (words, inputs) in TARGET_VERBS.items():
        for case, target in (("its own input", inputs[-1]), ("a missing directory", "missing/out"),
                             ("a directory", "dir"), ("an existing file", "out")):
            cwd = c.work / "runs" / f"{name} -o {case}"
            (cwd / "dir").mkdir(parents=True)
            (cwd / "dir" / "kept").write_text("kept\n")
            (cwd / "out").write_text("kept\n")
            for source in inputs:
                (cwd / source).write_bytes((FIXTURES / source).read_bytes())
            c.add(f"{name} -o {case}", *words, *inputs, "-o", target, out=False, cwd=cwd,
                  outputs=(".",))


def _bad(c: Corpus, f: dict):
    """The bad documents and argument mistakes of tests/test_cli.py."""
    bad = {name: c.write(f"bad/{i}.apg", text, "latin-1" if name == "not UTF-8" else "utf-8")
           for i, (name, text) in enumerate(BAD_DOCUMENTS.items())}
    c.add("validate a missing file", "validate", c.inputs / "missing.apg")
    for name in ("ghost label", "broken JSON", "broken JSON, CR LF", "broken JSON, CR",
                 "5000-deep id", "3000-factor product type"):
        c.add(f"validate {name}", "validate", bad[name])
    for name in ("ghost label", "dangling reference", "not UTF-8"):
        c.add(f"fmt {name}", "fmt", bad[name])
    c.add("export rdf not UTF-8", "export", "rdf", bad["not UTF-8"])
    for name in ("Double past float", "5000-digit Nat", "lone surrogate"):
        for verb in READ_VERBS:
            c.add(f"{' '.join(verb)} {name}", *verb, bad[name])
    for literal in ("NaN", "-Infinity", "1e999"):
        for verb in (["validate"], ["fmt", "--no-validate"]):
            c.add(f"{' '.join(verb)} id literal {literal}", *verb, bad[f"id literal {literal}"])
    for verb in DEEP_VERBS:
        c.add(f"{' '.join(verb)} 300-level sum", *verb, bad["300-level sum"])
    deep = bad["300-level sum"]
    c.add("op product 300-level sum", "op", "product", deep, deep)
    c.add("op coproduct 300-level sum", "op", "coproduct", deep, deep)
    c.add("merge 300-level sum", "merge", deep, deep)
    c.add("op product vertices.apg dangling reference", "op", "product",
          f["vertices.apg"], bad["dangling reference"])
    c.add("merge plates1.apg broken JSON", "merge", f["plates1.apg"], bad["broken JSON"])
    c.add("migrate broken JSON", "migrate", bad["broken JSON"], f["mapping_input.apg"])
    mapping = json.loads((FIXTURES / "mapping.apgm").read_text(encoding="utf-8"))
    for name, literal in BAD_TERMS.items():
        doc = json.loads(json.dumps(mapping))
        doc["onTerms"]["record"] = f"(snd phi x, (fst phi x, {literal}))"
        c.add(f"migrate term with {name}", "migrate",
              c.write(f"bad/{name}.apgm", json.dumps(doc)), f["mapping_input.apg"])
    doc = json.loads(json.dumps(mapping))
    doc["onLabels"]["ghost"], doc["onTerms"]["ghost"] = "summary", "x"
    c.add("migrate ghost label", "migrate", c.write("bad/ghost.apgm", json.dumps(doc)),
          f["mapping_input.apg"])
    v, p1 = f["vertices.apg"], f["plates1.apg"]
    for name, argv in {"op product of one graph": ["op", "product", v],
                       "op pushout of one graph": ["op", "pushout", v],
                       "op coproduct of no graph": ["op", "coproduct"],
                       "merge of one graph": ["merge", p1],
                       "merge of three graphs": ["merge", p1, p1, p1],
                       "export relational to stdout": ["export", "relational", v],
                       "export kv without a label": ["export", "kv", v]}.items():
        c.add(name, *argv, out=False)


def _benchmark(c: Corpus):
    """The tiny benchmark workloads, each command in its workload's directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # importing leaves nothing under bench/
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(ROOT / "bench"))
    for workload in sorted(workloads.GENERATORS):
        for seed in SEEDS:
            work = c.work / "bench" / f"{workload}-{seed}"
            plan = workloads.generate(workload, seed, work, size="tiny")
            for command in plan.commands:
                c.add(f"bench {workload} seed {seed}: {command.verb}", *command.args, out=False,
                      cwd=work, outputs=(command.out,) if command.out else ())


def _written(cwd: Path, outputs: list[str]):
    """Name and bytes of each file the command wrote, in name order."""
    for name in outputs:
        target = cwd / name
        found = sorted(p for p in target.rglob("*") if p.is_file()) if target.is_dir() else (
            [target] if target.exists() else [])
        for p in found:
            yield p.relative_to(cwd).as_posix().encode()
            yield p.read_bytes()


def run(c: Corpus) -> dict[str, str]:
    """Run the corpus in order: command name -> sha256 of what it did."""
    digests = {}
    for name, (cwd, argv, outputs, env) in c.cases.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(cwd), mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        h = hashlib.sha256()
        texts = (_normal(s.getvalue(), c.work).encode() for s in (out, err))
        for part in (str(code).encode(), *texts, *_written(cwd, outputs)):
            h.update(b"%d:" % len(part))
            h.update(part)
        digests[name] = h.hexdigest()
    return digests


def _normal(text: str, work: Path) -> str:
    return text.replace(str(FIXTURES), "{fixtures}").replace(str(work), "{work}")


def differences(recorded: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Each command whose digest differs from the recorded one, or that only one side has."""
    return [f"{name}: " + ("missing" if name not in digests else "new" if name not in recorded
                           else "changed")
            for name in sorted(recorded.keys() | digests.keys())
            if recorded.get(name) != digests.get(name)]


def main(argv=None) -> int:
    write = "--write" in (sys.argv[1:] if argv is None else argv)
    with tempfile.TemporaryDirectory() as work:
        digests = run(build(Path(work)))
    if write:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} commands in {GOLDEN.relative_to(ROOT)}")
        return 0
    changed = differences(json.loads(GOLDEN.read_text(encoding="utf-8")), digests)
    print("\n".join(changed) if changed else f"all {len(digests)} commands as recorded")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
