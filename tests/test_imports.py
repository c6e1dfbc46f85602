"""Every name a module of the package imports is used in that module, every
private top-level function or class is used somewhere in the package, and
the command line starts without loading dataclasses or inspect."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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
