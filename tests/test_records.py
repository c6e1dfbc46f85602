"""Every record class is built by one constructor, written out from its
fields: by position and by keyword, with a fresh default for each optional
field, equal records hashing equal however they were made; no record has a
constructor of its own."""

import ast
import copy
import pickle
import random
from pathlib import Path

import pytest

import apg  # its __init__ loads every module that defines records
from apg.adt import IdTable, Record, _Composite, parse_id, render_id

from .generators import random_id

SRC = Path(__file__).resolve().parent.parent / "src" / "apg"


def record_classes():
    """Every record class of the package but _Composite, the base of the
    composite ids, whose one field is the hash its subclasses store."""
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted((cls for cls in found if cls.__module__.startswith(apg.__name__ + ".")
                   and cls is not _Composite), key=lambda cls: cls.__qualname__)


RECORDS = record_classes()


def test_the_walk_finds_the_records_of_every_module():
    modules = {cls.__module__.rpartition(".")[2] for cls in RECORDS}
    assert modules == {"adt", "bridges", "catops", "graph", "migrate", "morphism", "taxonomy"}
    assert len(RECORDS) > 40


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_each_record_is_built_by_position_and_keyword(cls):
    fields = cls._fields
    values = [f"{name}-value" for name in fields]
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a is not b and a == b and not a != b
    assert [getattr(a, name) for name in fields] == values
    # The first build installed the class's own constructor.
    assert cls.__dict__["__init__"] is not Record.__init__
    for made in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert made == a and type(made) is cls
        if cls.__hash__ is not None:
            assert hash(made) == hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_missing_extra_or_duplicated_field_is_a_type_error(cls):
    fields = cls._fields
    given = {name: f"{name}-value" for name in fields}
    bad = [lambda: cls(*given.values(), "extra"), lambda: cls(**given, extra="x")]
    for name in fields:
        if name not in cls._defaults:
            bad.append(lambda name=name: cls(**{k: v for k, v in given.items() if k != name}))
    if fields:
        bad.append(lambda: cls(given[fields[0]], **given))
    for build in bad:
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls._defaults],
                         ids=lambda cls: cls.__qualname__)
def test_each_omitted_optional_field_gets_a_fresh_default(cls):
    required = {name: f"{name}-value" for name in cls._fields if name not in cls._defaults}
    a, b = cls(**required), cls(**required)
    for name, factory in cls._defaults.items():
        assert getattr(a, name) == factory()
        # As fresh as the factory makes them: a new list each time, one registry.
        assert (getattr(a, name) is getattr(b, name)) == (factory() is factory())


def test_equal_composite_ids_hash_equal_however_made():
    rng = random.Random(12)
    for _ in range(300):
        e = random_id(rng, 3)
        text = render_id(e)
        parsed, looked_up = parse_id(text), IdTable()[text]
        assert e == parsed == looked_up
        assert hash(e) == hash(parsed) == hash(looked_up)
        if isinstance(e, _Composite):
            assert hash(e) == hash((type(e), *(getattr(e, name) for name in e._fields)))


def own_constructors(source: str) -> list[str]:
    """The classes of a module that derive from Record there and define
    __init__, and the functions that store a field past Record.__setattr__
    (by calling _set or object.__setattr__)."""
    records, found = {"Record"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in records for base in node.bases):
            records.add(node.name)
            found += [f"{node.name}.__init__" for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
        elif isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and ast.unparse(call.func) in ("_set", "object.__setattr__")
                for call in ast.walk(node)):
            found.append(f"{node.name} stores past __setattr__")
    return sorted(found)


def test_the_scan_finds_record_constructors_and_stores():
    source = ("class A(Record):\n    def __init__(self): _set(self, 'x', 1)\n"
              "class B(A):\n    def __init__(self): pass\n"
              "class C(Exception):\n    def __init__(self): pass\n"
              "def d(x): object.__setattr__(x, 'y', 2)\n")
    assert own_constructors(source) == [
        "A.__init__", "B.__init__", "__init__ stores past __setattr__", "d stores past __setattr__"]


def test_every_record_builds_through_its_written_constructor():
    found = {module.name: own_constructors(module.read_text(encoding="utf-8"))
             for module in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
