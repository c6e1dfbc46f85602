"""tools/make_fixtures.py rebuilds the fixture files that ship with apg,
byte for byte, and tools/startup.py times the parts of an apg process."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "apg" / "fixtures"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_make_fixtures_rebuilds_the_shipped_fixtures(tmp_path, monkeypatch, capsys):
    tool = load_tool("make_fixtures")
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    shipped = sorted(p.name for p in FIXTURES.glob("*.apg*"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_startup_splits_each_process_into_parts_that_add_up(capsys):
    tool = load_tool("startup")
    tool.main(["-n", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == str(ROOT / "src")
    rows = {}
    for line in lines[2:]:
        name, low, median = line.strip().rsplit(None, 2)
        rows[name] = (float(low), float(median))
    assert list(rows) == [*tool.PARTS, "python -c pass"]
    assert all(low == median > 0 for low, median in rows.values())  # one process: one sample
    parts = sum(rows[name][0] for name in tool.PARTS[:-1])
    assert abs(parts - rows["whole"][0]) < 0.03  # four values, each printed to 0.01 ms
