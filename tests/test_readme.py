"""The README's document examples must read as the code reads them, and its
command lines that need only the shipped fixtures must run."""

import json
import re
import shlex
from pathlib import Path

from apg.cli import main
from apg.files import graph_from_json, read_graph
from apg.fixtures import path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_json_blocks_are_valid_graphs():
    blocks = re.findall(r"```json\n(.*?)```", README, re.DOTALL)
    assert blocks
    for block in blocks:
        read_graph(block)


def test_readme_inline_value_forms_read_as_values():
    forms = []
    for span in re.findall(r"`(\{.*?\})`", README, re.DOTALL):
        try:
            forms.append(json.loads(span))
        except json.JSONDecodeError:
            continue  # a form with placeholders such as {"inl": v}
    assert {"unit": {}} in forms
    for raw in forms:  # each, as the one element of a schema-free document, decodes
        graph_from_json({"elements": {"x": {"label": "L", "value": raw}}})


FIXTURE_VARIABLES = {"$trips": "trips.apg", "$plates1": "plates1.apg", "$plates2": "plates2.apg"}


def fixture_pipelines():
    """The README's `apg` shell lines whose inputs are all shipped fixtures,
    in README order, each split into its piped stages."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL):
        for line in block.splitlines():
            words = shlex.split(line.removeprefix("$ "), comments=True)
            if (words[:1] == ["apg"] and any(w in FIXTURE_VARIABLES for w in words)
                    and not any(re.search(r"\.apg\w*$", w) for w in words)):
                stages = " ".join(words).split(" | ")
                lines.append([[str(path(FIXTURE_VARIABLES[w])) if w in FIXTURE_VARIABLES else w
                               for w in stage.split()[1:]] for stage in stages])
    return lines


def test_readme_cli_lines_on_fixtures_run(tmp_path, monkeypatch, capsys, stdin):
    monkeypatch.chdir(tmp_path)  # `export relational -o out/` writes here
    ran = []
    for stages in fixture_pipelines():
        piped = ""
        for argv in stages:
            stdin(piped)
            code = main(argv)
            piped = capsys.readouterr().out
            assert code == 0, argv
            ran.append(" ".join(a for a in argv[:2] if not a.startswith(("/", "-"))))
        if len(stages) > 1:
            assert piped == "ok\n"
    assert ran == ["validate", "classify", "merge", "merge", "export rdf",
                   "export relational", "import relational", "export kv", "merge", "validate"]
