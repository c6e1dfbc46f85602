"""The README's document examples must read as the code reads them."""

import json
import re
from pathlib import Path

from apg.adt import DEFAULT_REGISTRY
from apg.files import read_graph, value_from_json

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
    for raw in forms:
        value_from_json(raw, DEFAULT_REGISTRY, "README")
