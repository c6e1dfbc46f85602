"""Seeded input generator for the three benchmark workloads.

Stdlib only, and independent of both `apg` and its test suite: the program
under test only ever sees the files written here.  The same seed gives
byte-identical files.  Every workload also returns a plan: the commands it
runs, the input and output sizes, and the counts that the output checks
compare against.  Those counts come from the generator's own choices, never
from running the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Why each workload exists, next to the workload.  BENCHMARK.json repeats
# these one-line reasons.
WHY = {
    "ingest": (
        "read side: one V/E/P graph that validate, fmt, export rdf, export relational "
        "and import relational each decode, rebuild and validate whole"
    ),
    "merge": (
        "shared work: two plate graphs whose keys repeat 8 times per side, half of them "
        "shared, so many matched pairs collapse into few classes"
    ),
    "transform": (
        "write side: product of two small graphs and a migration that mints more "
        "elements than it reads, so output dominates input"
    ),
}

# Full sizes; the smoke check runs the same generator at a tiny scale.
SIZES = {
    "full": {"ingest_n": 4000, "merge_keys": 512, "merge_repeat": 8,
             "product_n": 30, "migrate_n": 2000},
    "tiny": {"ingest_n": 12, "merge_keys": 8, "merge_repeat": 3,
             "product_n": 2, "migrate_n": 5},
}

VEP_SCHEMA = {"V": "1", "E": "V * V", "P": "V * String"}
_LETTERS = "abcdefghijklmnopqrstuvwxyzé "
_STATES = ("CA", "NY", "TX", "WA", "OR", "NV", "AZ", "UT")


@dataclass
class Command:
    """One `apg` invocation: its verb, arguments, and the output it writes."""

    verb: str
    args: list[str]
    out: str | None = None  # a file or directory under the work directory


@dataclass
class Plan:
    commands: list[Command]
    elements_per_round: int  # elements read plus elements written by one round
    expect: dict  # counts the output checks compare against


# ---------------------------------------------------------------------------
# JSON value builders, in the document format of the README

def unit():
    return {"unit": {}}


def ref(e: str):
    return {"ref": e}


def pair(a, b):
    return {"pair": [a, b]}


def string(s: str):
    return {"prim": {"type": "String", "value": s}}


def leaves(v) -> int:
    """Value leaves (unit, primitive, reference): one RDF triple each."""
    (form, body), = v.items()
    if form == "pair":
        return leaves(body[0]) + leaves(body[1])
    if form in ("inl", "inr"):
        return leaves(body)
    return 1


def _word(rng: random.Random, low: int = 4, high: int = 10) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(low, high))).strip() or "x"


def vep_graph(rng: random.Random, n: int, prefix: str = "") -> dict:
    """n vertices, 2n edges between random vertices, n string properties."""
    elements = {}
    for i in range(n):
        elements[f"{prefix}v{i}"] = {"label": "V", "value": unit()}
    for j in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        elements[f"{prefix}e{j}"] = {"label": "E",
                                     "value": pair(ref(f"{prefix}v{a}"), ref(f"{prefix}v{b}"))}
    for i in range(n):
        owner = rng.randrange(n)
        elements[f"{prefix}p{i}"] = {"label": "P",
                                     "value": pair(ref(f"{prefix}v{owner}"), string(_word(rng)))}
    return {"schema": dict(VEP_SCHEMA), "elements": elements}


def _write(path: Path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True, ensure_ascii=False), encoding="utf-8")


# ---------------------------------------------------------------------------
# Workloads

def ingest(rng: random.Random, work: Path, size: dict) -> Plan:
    n = size["ingest_n"]
    doc = vep_graph(rng, n)
    _write(work / "graph.apg", doc)
    total = len(doc["elements"])
    commands = [
        Command("validate", ["validate", "graph.apg"]),
        Command("fmt", ["fmt", "graph.apg", "-o", "fmt.apg"], "fmt.apg"),
        Command("export_rdf", ["export", "rdf", "graph.apg", "-o", "graph.nt"], "graph.nt"),
        Command("export_relational", ["export", "relational", "graph.apg", "-o", "tables"],
                "tables"),
        Command("import_relational",
                ["import", "relational", "tables", "--schema", "graph.apg", "-o", "imported.apg"],
                "imported.apg"),
    ]
    # validate reads; fmt, both exports read and write; import reads the rows
    # and the schema document and writes a graph.
    return Plan(commands, elements_per_round=total * 10, expect={
        "elements": total,
        "labels": {"V": n, "E": 2 * n, "P": n},
        "triples": sum(1 + leaves(el["value"]) for el in doc["elements"].values()),
    })


def merge(rng: random.Random, work: Path, size: dict) -> Plan:
    keys, repeat = size["merge_keys"], size["merge_repeat"]
    pool: set[str] = set()
    while len(pool) < keys * 3 // 2:
        pool.add(f"K{rng.getrandbits(40):010x}")
    pool_list = sorted(pool)
    rng.shuffle(pool_list)
    shared = pool_list[: keys // 2]
    only_left = pool_list[keys // 2: keys]
    only_right = pool_list[keys: keys * 3 // 2]

    def side(prefix: str, own: list[str]) -> dict:
        slots = [k for k in shared + own for _ in range(repeat)]
        rng.shuffle(slots)
        elements = {
            f"{prefix}{i}": {"label": "Plate", "value": pair(
                string(k), pair(string(rng.choice(_STATES)), string(_word(rng, 6, 7))))}
            for i, k in enumerate(slots)
        }
        return {"schema": {"Plate": "String * String * String"}, "elements": elements}

    left, right = side("a", only_left), side("b", only_right)
    _write(work / "left.apg", left)
    _write(work / "right.apg", right)
    unmatched = repeat * (len(only_left) + len(only_right))
    out = len(shared) + unmatched
    commands = [Command("merge", ["merge", "--key", "fst", "left.apg", "right.apg",
                                  "-o", "merged.apg"], "merged.apg")]
    return Plan(commands, elements_per_round=len(left["elements"]) + len(right["elements"]) + out,
                expect={
                    "elements": out,
                    "classes": len(shared),
                    "unmatched": unmatched,
                    # how often each key's first component appears in the output
                    "key_counts": {**{k: 1 for k in shared},
                                   **{k: repeat for k in only_left + only_right}},
                })


MAPPING_SOURCE = {
    "Node": "1",
    "Link": "Node * Node",
    "Thing": "Node + Node * String",
    "Tag": "Node * String",
}
# Witness types cover a label (Node, Link), a sum (Thing) and a product (Tag).
MAPPING_LABELS = {"Node": "V", "Link": "E", "Thing": "V + P", "Tag": "1 * P"}
MAPPING_TERMS = {
    "Node": "()",
    "Link": "phi x",
    "Thing": "case x of { inl a -> inl a ; inr b -> inr phi b }",
    "Tag": "phi snd x",
}


def transform(rng: random.Random, work: Path, size: dict) -> Plan:
    k = size["product_n"]
    g1, g2 = vep_graph(rng, k, "x"), vep_graph(rng, k, "y")
    _write(work / "x.apg", g1)
    _write(work / "y.apg", g2)
    n = size["migrate_n"]
    target = vep_graph(rng, n)
    _write(work / "target.apg", target)
    _write(work / "mapping.apgm", {
        "source": {"schema": MAPPING_SOURCE},
        "target": {"schema": dict(VEP_SCHEMA)},
        "onLabels": MAPPING_LABELS,
        "onTerms": MAPPING_TERMS,
    })
    card = {"V": n, "E": 2 * n, "P": n}
    # one migrated element per witness: |V|, |E|, |V|+|P|, 1*|P|
    witnesses = {"Node": card["V"], "Link": card["E"],
                 "Thing": card["V"] + card["P"], "Tag": card["P"]}
    product_out = len(g1["elements"]) * len(g2["elements"])
    migrate_out = sum(witnesses.values())
    commands = [
        Command("product", ["op", "product", "x.apg", "y.apg", "-o", "product.apg"],
                "product.apg"),
        Command("migrate", ["migrate", "mapping.apgm", "target.apg", "-o", "migrated.apg"],
                "migrated.apg"),
    ]
    return Plan(commands, elements_per_round=(
        len(g1["elements"]) + len(g2["elements"]) + product_out
        + len(target["elements"]) + migrate_out
    ), expect={"product": product_out, "witnesses": witnesses})


GENERATORS = {"ingest": ingest, "merge": merge, "transform": transform}


def generate(workload: str, seed: int, work: Path, size: str = "full") -> Plan:
    """Write the workload's inputs for this seed into `work` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    plan = GENERATORS[workload](rng, work, SIZES[size])
    (work / "empty.apg").write_text("{}", encoding="utf-8")
    return plan
