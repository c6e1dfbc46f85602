"""Smoke check of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Checks that the generator is deterministic, that a run prints every metric
BENCHMARK.json names for every workload, and that the output checks catch
an output with one element dropped.  Exits 0 and prints "smoke ok" when all
hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, SRC, WORK, Launcher, _clear
from workloads import GENERATORS, WHY, generate

sys.path.insert(0, str(SRC))

from checks import Checker  # noqa: E402  (needs apg on the path)


def expect(condition, message: str):
    """Like assert, but kept under python -O."""
    if not condition:
        raise AssertionError(message)


def files_of(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_determinism(work: Path):
    for workload in GENERATORS:
        a, b, c = work / "a", work / "b", work / "c"
        for directory, seed in ((a, 7), (b, 7), (c, 8)):
            _clear(directory)
            generate(workload, seed, directory, "tiny")
        expect(files_of(a) == files_of(b), f"{workload}: same seed, different inputs")
        expect(files_of(a) != files_of(c), f"{workload}: the seed changes nothing")


def check_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"]: w["why"] for w in spec["workloads"]} == WHY, "workload reasons differ")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
             "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
            capture_output=True, text=True, check=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(result["correct"] and result["failed"] == 0, proc.stdout)
        for workload in GENERATORS:
            for metric in spec[key]:
                got = result["metrics"].get(f"{workload}.{metric['name']}")
                expect(got is not None, f"{workload}: {metric['name']} not printed")
                expect(got["unit"] == metric["unit"], f"{metric['name']}: unit {got['unit']}")


def drop_one_element(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["elements"].pop(sorted(doc["elements"])[-1])
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def drop_one_line(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def check_mutants_caught(work: Path):
    with Launcher() as launcher:
        for workload in GENERATORS:
            directory = work / workload
            _clear(directory)
            plan = generate(workload, 5, directory, "tiny")
            checker = Checker(plan, directory)
            for cmd in plan.commands:
                _, _, code, out, err = launcher.run(cmd.args, directory)
                expect(code == 0, err)
                expect(checker.check(cmd, out) == [], f"{cmd.verb}: a correct output fails")
                if cmd.out is not None:
                    expect_mutant_caught(checker, cmd, out, directory / cmd.out)


def expect_mutant_caught(checker: Checker, cmd, out: str, target: Path):
    if target.is_dir():  # a table set: drop one row of one table
        target, mutate = sorted(target.glob("*.csv"))[0], drop_one_line
    else:
        mutate = drop_one_line if target.suffix == ".nt" else drop_one_element
    kept = target.read_bytes()
    mutate(target)
    expect(checker.check(cmd, out), f"{cmd.verb}: a dropped element goes unnoticed")
    target.write_bytes(kept)


def main() -> int:
    work = WORK / f"smoke-{os.getpid()}"
    try:
        check_determinism(work)
        check_mutants_caught(work)
        check_metrics_printed()
    finally:
        _clear(work)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
