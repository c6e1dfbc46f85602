"""Output checks that do not trust the program under test.

The counts come from the generator's plan, not from `apg`.  Where a check
also runs `apg` in process, it compares the CLI bytes with what the library
writes for the same inputs, and it re-reads every output graph with
validation on.  All checks run outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import apg
from apg import bridges, catops, files, integrate, migrate

from workloads import Command, Plan


def digest(path: Path) -> str:
    """Content hash of an output file, or of every file under a directory."""
    h = hashlib.sha256()
    if not path.exists():
        return "missing"
    if path.is_dir():
        for child in sorted(path.rglob("*")):
            if child.is_file():
                h.update(str(child.relative_to(path)).encode())
                h.update(child.read_bytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _label_counts(doc: dict) -> dict:
    return dict(Counter(el["label"] for el in doc.get("elements", {}).values()))


class Checker:
    """Full checks for one workload's outputs in one work directory."""

    def __init__(self, plan: Plan, work: Path):
        self.plan = plan
        self.work = work
        self._reference: dict[str, str] = {}

    def _text(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def _graph_output(self, text: str, reference, problems: list[str], what: str):
        """The output re-reads as valid and equals the in-process bytes."""
        try:
            files.read_graph(text)
        except apg.ApgError as err:
            problems.append(f"{what}: output does not re-read as valid: {err}")
        if what not in self._reference:
            self._reference[what] = reference()
        if text != self._reference[what]:
            problems.append(f"{what}: CLI bytes differ from in-process write_graph bytes")

    def check(self, command: Command, stdout: str) -> list[str]:
        """Problems found in one command's outputs; empty when all is well."""
        problems: list[str] = []
        try:
            getattr(self, "_check_" + command.verb)(command, stdout, problems)
        except (OSError, ValueError, KeyError, TypeError, apg.ApgError) as err:
            problems.append(f"{command.verb}: output unreadable: {err!r}")
        return problems

    # -- ingest -------------------------------------------------------------

    def _check_validate(self, command, stdout, problems):
        if stdout != "ok\n":
            problems.append(f"validate: expected 'ok', got {stdout[:80]!r}")

    def _check_fmt(self, command, stdout, problems):
        text = self._text(command.out)
        doc = json.loads(text)
        if _label_counts(doc) != self.plan.expect["labels"]:
            problems.append(f"fmt: label counts {_label_counts(doc)} != "
                            f"{self.plan.expect['labels']}")
        self._graph_output(text, lambda: files.write_graph(
            files.read_graph(self._text("graph.apg"))), problems, "fmt")

    def _check_export_rdf(self, command, stdout, problems):
        text = self._text(command.out)
        lines = text.splitlines()
        if len(lines) != self.plan.expect["triples"]:
            problems.append(f"export rdf: {len(lines)} triples, expected "
                            f"{self.plan.expect['triples']}")
        if any(not line.endswith(" .") for line in lines):
            problems.append("export rdf: a line is not an N-Triples statement")
        typed = sum(1 for line in lines if "rdf-syntax-ns#type>" in line)
        if typed != self.plan.expect["elements"]:
            problems.append(f"export rdf: {typed} type triples, expected "
                            f"{self.plan.expect['elements']}")
        if "rdf" not in self._reference:
            self._reference["rdf"] = bridges.export_rdf(
                files.read_graph(self._text("graph.apg")))
        if text != self._reference["rdf"]:
            problems.append("export rdf: CLI bytes differ from in-process export_rdf")

    def _check_export_relational(self, command, stdout, problems):
        directory = self.work / command.out
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        rows = {}
        for label, spec in manifest.items():
            with open(directory / spec["file"], encoding="utf-8", newline="") as handle:
                rows[label] = sum(1 for _ in handle) - 1
        if rows != self.plan.expect["labels"]:
            problems.append(f"export relational: rows {rows} != {self.plan.expect['labels']}")

    def _check_import_relational(self, command, stdout, problems):
        if self._text(command.out) != self._text("fmt.apg"):
            problems.append("import relational: round trip differs from the fmt bytes")

    # -- merge ---------------------------------------------------------------

    def _check_merge(self, command, stdout, problems):
        text = self._text(command.out)
        doc = json.loads(text)
        expect = self.plan.expect
        if len(doc["elements"]) != expect["elements"]:
            problems.append(f"merge: {len(doc['elements'])} elements, expected "
                            f"{expect['classes']} classes + {expect['unmatched']} unmatched")
        keys = Counter(el["value"]["pair"][0]["prim"]["value"]
                       for el in doc["elements"].values())
        if keys != expect["key_counts"]:
            problems.append("merge: key multiplicities differ from the planted ones")
        self._graph_output(text, lambda: files.write_graph(integrate.merge_by_key(
            files.read_graph(self._text("left.apg")),
            files.read_graph(self._text("right.apg")), key="fst")), problems, "merge")

    # -- transform -----------------------------------------------------------

    def _check_product(self, command, stdout, problems):
        text = self._text(command.out)
        n = len(json.loads(text)["elements"])
        if n != self.plan.expect["product"]:
            problems.append(f"product: {n} elements, expected |g1|*|g2| = "
                            f"{self.plan.expect['product']}")
        self._graph_output(text, lambda: files.write_graph(catops.product(
            files.read_graph(self._text("x.apg")),
            files.read_graph(self._text("y.apg"))).graph), problems, "product")

    def _check_migrate(self, command, stdout, problems):
        text = self._text(command.out)
        counts = _label_counts(json.loads(text))
        if counts != self.plan.expect["witnesses"]:
            problems.append(f"migrate: per-label elements {counts} != witness counts "
                            f"{self.plan.expect['witnesses']}")
        self._graph_output(text, lambda: files.write_graph(migrate.delta_migrate(
            files.read_mapping(self._text("mapping.apgm")),
            files.read_graph(self._text("target.apg")))), problems, "migrate")
