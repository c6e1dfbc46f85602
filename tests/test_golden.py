"""tools/golden.py reruns a fixed corpus of apg commands; each must leave the
exit code, stdout, stderr and written files recorded in tests/golden.json, and
each graph a command writes must read back to the same text."""

import importlib.util
import json
from pathlib import Path

from apg.files import read_graph, write_graph

ROOT = Path(__file__).resolve().parents[1]
GRAPH_VERBS = {"fmt", "op", "merge", "migrate", "import"}  # the verbs whose output is a graph


def test_every_command_of_the_golden_corpus_does_as_recorded(tmp_path):
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    corpus = golden.build(tmp_path)
    changed = golden.differences(recorded, golden.run(corpus))
    assert not changed, "commands that differ from tests/golden.json " \
        "(rerun with tools/golden.py --write if the change is meant):\n" + "\n".join(changed)
    graphs = [cwd / out for cwd, argv, outputs, _ in corpus.cases.values()
              if argv[0] in GRAPH_VERBS for out in outputs if (cwd / out).is_file()]
    for written in graphs:
        text = written.read_text(encoding="utf-8")
        assert write_graph(read_graph(text, validate=False)) == text, written
    assert len(graphs) > 100
