"""tools/golden.py reruns a fixed corpus of apg commands; each must leave the
exit code, stdout, stderr and written files recorded in tests/golden.json."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_command_of_the_golden_corpus_does_as_recorded(tmp_path):
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    changed = golden.differences(recorded, golden.run(golden.build(tmp_path)))
    assert not changed, "commands that differ from tests/golden.json " \
        "(rerun with tools/golden.py --write if the change is meant):\n" + "\n".join(changed)
