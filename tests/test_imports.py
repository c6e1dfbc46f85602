"""Every name a module of the package imports is used in that module, every
private top-level function or class is used somewhere in the package, the
command line starts without loading dataclasses or inspect, a verb loads no
module it does not run, and the package root loads each public name and
submodule on first use."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from apg.fixtures import path

SRC = Path(__file__).resolve().parent.parent / "src" / "apg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import io\nimport json\nfrom os import path, sep\njson.dumps(sep)\n") == [
        "io", "path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def unused_privates(sources: dict[str, str]) -> list[str]:
    """module:name for each private top-level function or class that no
    public statement of the modules reaches, directly or through other
    private definitions; a definition's use of itself does not count."""
    private, uses = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            uses.append((node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                                if isinstance(n, (ast.Name, ast.Attribute))}))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                private[node] = module
    live, size = set(), -1
    while len(live) != size:
        size = len(live)
        live = {name for node, names in uses if node not in private or node.name in live
                for name in names}
    return sorted(f"{module}:{node.name}" for node, module in private.items()
                  if node.name not in live)


def test_the_scan_finds_an_unused_private():
    sources = {"a": "def _used(): return _chain()\ndef _chain(): return 1\n"
                    "def _self(): return _self()\nclass _Gone:\n    x = _orphan()\n"
                    "def _orphan(): pass\n",
               "b": "from a import _used\nimport a\nprint(_used(), a._Seen)\nclass _Seen: pass\n"}
    assert unused_privates(sources) == ["a:_Gone", "a:_orphan", "a:_self"]


def test_every_private_definition_has_a_use():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unused_privates(sources) == []


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # Both cost start-up time on every command; records need neither.
    probe = ("import sys; before = set(sys.modules); import apg.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# sorted(apg.__all__) of the package root that imported every module at once
PUBLIC = [
    'ApgError', 'Atom', 'Class', 'ConstructionResult', 'Element', 'ElementId', 'Enc', 'Finding',
    'Graph', 'Inl', 'Inr', 'Lbl', 'Left', 'Morphism', 'One', 'Pair', 'PairId', 'ParseError',
    'PreconditionError', 'Prim', 'PrimRegistry', 'PrimVal', 'Prod', 'Ref', 'Right', 'Schema',
    'SchemaMapping', 'Sum', 'TableSet', 'Term', 'TypeExpr', 'UNLABELED', 'Unit',
    'ValidationFailure', 'ValidationReport', 'Value', 'Zero', 'adt', 'bridges', 'case_analysis',
    'catops', 'check_morphism', 'check_primary_key', 'check_sigma_preserving',
    'check_unique_property', 'check_upsilon_natural', 'check_value', 'classify_graph',
    'classify_label', 'coequalizer', 'compose', 'coproduct', 'delta_migrate', 'describe',
    'disjoint_union', 'enumerate_values', 'equalizer', 'errors', 'eval_term', 'export_kv',
    'export_rdf', 'export_relational', 'files', 'graph', 'identity', 'import_relational',
    'initial_graph', 'integrate', 'label_free', 'match_by_key', 'merge_by_key', 'migrate',
    'morphism', 'normalize_term', 'pair', 'parse_id', 'parse_term', 'parse_type', 'product',
    'pushout', 'read_graph', 'read_mapping', 'read_morphism', 'read_tableset', 'render_id',
    'render_term', 'render_type', 'render_value', 'taxonomy', 'terminal_graph',
    'transport_type', 'transport_value', 'typecheck_mapping', 'unique_morphism',
    'validate_graph', 'validate_schema', 'write_graph', 'write_mapping', 'write_morphism',
    'write_tableset']


@pytest.mark.parametrize("verb", ["validate", "fmt"])
def test_a_read_verb_loads_no_module_it_does_not_run(verb):
    # runs apg as `python -m apg` does, then names what the process loaded
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('apg', run_name='__main__', alter_sys=True)\n"
             "finally:\n"
             "    print(*sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe, verb, str(path("trips.apg"))],
                          capture_output=True, text=True)
    loaded = set(proc.stderr.split())
    unused = {"apg.bridges", "apg.catops", "apg.integrate", "apg.migrate", "apg.morphism",
              "apg.taxonomy", "csv"}
    assert (proc.returncode, "apg.files" in loaded, sorted(unused & loaded)) == (0, True, [])


def test_the_package_root_loads_each_name_and_submodule_on_first_use():
    probe = ("import json, pkgutil, sys; import apg; alone = sorted(m for m in sys.modules "
             "if m.startswith('apg')); names = sorted(apg.__all__); "
             "listed = set(dir(apg)); missing = [n for n in names if n not in listed or not hasattr(apg, n)]; "
             "subs = {m.name: getattr(apg, m.name).__name__ for m in pkgutil.iter_modules(apg.__path__) "
             "if not m.name.startswith('_')}; "
             "print(json.dumps([alone, names, missing, subs, hasattr(apg, 'nope'), "
             "hasattr(apg, '__main__'), 'apg.__main__' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    alone, names, missing, subs, nope, main, ran = json.loads(proc.stdout)
    assert alone == ["apg"]
    assert names == PUBLIC and missing == []
    modules = [p.stem for p in MODULES if p.stem != "__main__"] + ["fixtures"]
    assert subs == {name: f"apg.{name}" for name in modules}
    assert (nope, main, ran) == (False, False, False)  # a private name imports nothing
