"""tools/make_fixtures.py rebuilds the fixture files that ship with apg,
byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "apg" / "fixtures"


def test_make_fixtures_rebuilds_the_shipped_fixtures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "tools" / "make_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    shipped = sorted(p.name for p in FIXTURES.glob("*.apg*"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
