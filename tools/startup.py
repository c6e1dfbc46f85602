"""Time the fixed cost of an `apg` process: fresh `python -m apg validate {}`
processes (the empty graph), each split into three parts, alternating with
bare `python -c pass` processes.

    python3 tools/startup.py [-n N] [--src DIR ...]

Each part is read off time.perf_counter, one clock for every process:

    interpreter and site   from the spawn until the probe that stands for
                           `python -m apg` runs its first statement: what
                           `python -c pass` pays
    import and arguments   from there until cli.main returns: import apg.cli,
                           build and parse the arguments, validate {}
    exit                   from cli.main returning until the process is reaped

and "whole" is their sum; the "python -c pass" row is that process whole,
its exit too.  Prints the min and median, in ms, of N processes per tree.
--src names the directory apg is imported from (this checkout's src by
default); given more than once, the trees' processes alternate too, each
tree first in every other round, so a change and its parent are timed under
the same load.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("interpreter and site", "import and arguments", "exit", "whole")

# `python -m apg` with cli.main wrapped to report when it starts and returns
_PROBE = """
import runpy, sys, time
start = time.perf_counter()
import apg.cli
main = apg.cli.main

def timed(argv=None):
    try:
        return main(argv)
    finally:
        sys.stderr.write(f"{start!r} {time.perf_counter()!r}\\n")

apg.cli.main = timed
runpy.run_module("apg", run_name="__main__", alter_sys=True)
"""


def _apg(env: dict, graph: Path) -> tuple[float, ...]:
    """One `python -m apg validate graph`: each part in ms, and the whole."""
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PROBE, "validate", str(graph)], env=env,
                          capture_output=True, text=True)
    reaped = time.perf_counter()
    if (proc.returncode, proc.stdout) != (0, "ok\n"):
        raise SystemExit(f"startup: validate failed with exit code {proc.returncode}: {proc.stderr}")
    start, returned = map(float, proc.stderr.split())
    return tuple(1000 * (b - a) for a, b in (
        (spawned, start), (start, returned), (returned, reaped), (spawned, reaped)))


def _bare(env: dict) -> float:
    """One `python -c pass`, in ms."""
    spawned = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return 1000 * (time.perf_counter() - spawned)


def _row(name: str, samples: list[float]) -> str:
    return f"  {name:<22}{min(samples):9.2f}{statistics.median(samples):9.2f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("-n", type=int, default=30, help="processes per tree (default 30)")
    parser.add_argument("--src", action="append", type=Path,
                        help="directory to import apg from (default: this checkout's src)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.src or [ROOT / "src"]]
    envs = []
    for tree in trees:
        env = dict(os.environ, PYTHONPATH=str(tree))
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from bytecode, as installed
        envs.append(env)
    with tempfile.TemporaryDirectory() as work:
        graph = Path(work) / "empty.apg"
        graph.write_text("{}\n", encoding="utf-8")
        for env in envs:
            _apg(env, graph)  # untimed: compiles the bytecode, warms the file cache
        parts = [[[] for _ in PARTS] for _ in trees]
        bare = []
        for round_ in range(args.n):
            bare.append(_bare(envs[0]))
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                for samples, ms in zip(parts[i], _apg(envs[i], graph)):
                    samples.append(ms)
    print(f"python -m apg validate {{}}: {args.n} processes per tree, wall ms      min   median")
    for tree, samples in zip(trees, parts):
        print(tree)
        for name, part in zip(PARTS, samples):
            print(_row(name, part))
    print(_row("python -c pass", bare))


if __name__ == "__main__":
    main()
