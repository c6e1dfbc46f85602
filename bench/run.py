"""The apg benchmark: three seeded workloads, end to end and by layer.

    python3 bench/run.py --workload ingest --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  `--trace 0` times fresh
`python -m apg` processes, one command after another, and reports the
end-to-end metrics; `--trace 1` calls `apg.cli.main` in process, running
every command untraced and then traced by the span recorder in tracing.py
(or the reverse), and reports the per-layer metrics.  `--workload all` runs the three workloads in
turn.  Every output is checked outside the timed window (checks.py).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report with sample counts.  See bench/README.md for what each metric means
and which metrics each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

MIN_ROUNDS = 3
SETUP_PROBES = 2  # per round of --trace 0
COMMAND_TIMEOUT_S = 100  # a command still running then is killed and counts as failed
VERBS = ["validate", "fmt", "export_rdf", "export_relational", "import_relational",
         "merge", "product", "migrate"]

END_TO_END = {
    "setup_s": "s",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# name -> unit.  Times are medians over traced rounds of the per-round sum.
PER_LAYER = {
    "files.self_s": "s", "files.share": "ratio",
    "files.read_s": "s", "files.from_json_s": "s", "files.write_s": "s", "files.to_json_s": "s",
    "files.bytes_in": "bytes", "files.bytes_out": "bytes",
    "files.elements_in": "count", "files.elements_out": "count",
    "graph.self_s": "s", "graph.share": "ratio",
    "graph.validate_s": "s", "graph.elements_checked": "count",
    "adt.hash_s": "s", "adt.render_s": "s", "adt.id_depth_max": "count",
    "catops.self_s": "s", "catops.share": "ratio",
    "catops.pushout_s": "s", "catops.classes": "count", "catops.collapsed": "count",
    "catops.product_s": "s", "catops.elements_out": "count",
    "integrate.self_s": "s", "integrate.share": "ratio",
    "integrate.match_s": "s", "integrate.matched_pairs": "count", "integrate.match_ratio": "ratio",
    "migrate.self_s": "s", "migrate.share": "ratio",
    "migrate.typecheck_s": "s", "migrate.delta_s": "s",
    "migrate.witnesses": "count", "migrate.elements_out": "count",
    "bridges.self_s": "s", "bridges.share": "ratio",
    "bridges.rdf_s": "s", "bridges.triples": "count",
    "bridges.relational_export_s": "s", "bridges.tableset_write_s": "s",
    "bridges.tableset_read_s": "s", "bridges.relational_import_s": "s", "bridges.rows": "count",
    "cli.self_s": "s", "cli.share": "ratio", "cli.setup_s": "s", "cli.setup_share": "ratio",
    "trace.overhead_ratio": "ratio", "trace.round_s": "s", "trace.untraced_round_s": "s",
    "trace.spans": "count",
}

# Inclusive durations of single spans: metric -> span name.
FUNCTION_TIMES = {
    "files.from_json_s": "files.graph_from_json",
    "files.write_s": "files.write_graph",
    "files.to_json_s": "files.graph_to_json",
    "graph.validate_s": "graph.validate_graph",
    "adt.hash_s": "adt.hash",
    "adt.render_s": "adt.render",
    "catops.pushout_s": "catops.pushout",
    "catops.product_s": "catops.product",
    "integrate.match_s": "integrate.match_by_key",
    "migrate.typecheck_s": "migrate.typecheck_mapping",
    "migrate.delta_s": "migrate.delta_migrate",
    "bridges.rdf_s": "bridges.export_rdf",
    "bridges.relational_export_s": "bridges.export_relational",
    "bridges.tableset_write_s": "bridges.write_tableset",
    "bridges.tableset_read_s": "bridges.read_tableset",
    "bridges.relational_import_s": "bridges.import_relational",
}

# Layers whose self time and share come from their spans (adt has probes instead).
SPAN_LAYERS = ["files", "graph", "catops", "integrate", "migrate", "bridges", "cli"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def another_round(start: float, seconds: float, rounds: list[float]) -> bool:
    """True while too few rounds have run or another one fits in the window."""
    if len(rounds) < MIN_ROUNDS:
        return True
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


class Tally:
    """Commands attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


# ---------------------------------------------------------------------------
# End to end: fresh `python -m apg` processes

# Runs in a small helper process that starts every `python -m apg` command.
# A child's peak RSS (ru_maxrss) keeps the high-water mark of the process it
# was forked from, so forking from the benchmark itself, which holds the
# check references, would inflate small commands.
_LAUNCHER = """
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                                stdout=out, stderr=err)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Launcher:
    """Runs `python -m apg` commands, timed from fork to exit."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Keep compiled bytecode, as an installed package does, whatever the
        # caller's environment says: set-up time is start and import, not
        # compilation.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._proc = subprocess.Popen([sys.executable, "-c", _LAUNCHER],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], work: Path):
        """One command; returns (wall seconds, peak RSS in KiB, exit code, stdout, stderr)."""
        out_path, err_path = work / "_stdout", work / "_stderr"
        job = {"argv": [sys.executable, "-m", "apg", *argv], "cwd": str(work),
               "env": self.env, "stdout": str(out_path), "stderr": str(err_path),
               "timeout": COMMAND_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        wall, maxrss, code = json.loads(reply)
        return (wall, maxrss, code,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _clear(path: Path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def process_problems(what: str, code: int, stderr: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"{what}: exit code {code}: {stderr.strip()[-300:]}")
    if "Traceback" in stderr:
        problems.append(f"{what}: printed a traceback")
    return problems


def setup_problems(code: int, stdout: str, stderr: str) -> list[str]:
    problems = process_problems("setup", code, stderr)
    if stdout != "ok\n":
        problems.append(f"setup: expected 'ok', got {stdout[:80]!r}")
    return problems


def cli_run(plan, work: Path, seconds: float, checker, tally: Tally, launcher) -> dict:
    from checks import digest
    from speed import Gauge

    setup_argv = ["validate", "empty.apg"]
    gauge = Gauge()
    raw: dict[str, list[float]] = {"setup_s": [], "round_s": []}
    scaled: dict[str, list[float]] = {"setup_s": [], "round_s": []}

    def timed(name: str, argv: list[str]):
        wall, maxrss, code, out, err = launcher.run(argv, work)
        raw.setdefault(name, []).append(wall)
        scaled.setdefault(name, []).append(gauge.scale(wall))
        return maxrss, code, out, err

    launcher.run(setup_argv, work)  # untimed: compiles the bytecode, warms the file cache
    reference: dict[str, str] = {}
    rss: list[float] = []
    start = time.perf_counter()
    while another_round(start, seconds, raw["round_s"]):
        for _ in range(SETUP_PROBES):
            _, code, out, err = timed("setup_s", setup_argv)
            tally.record(setup_problems(code, out, err))
        round_rss = 0
        for cmd in plan.commands:
            if cmd.out:
                _clear(work / cmd.out)
            maxrss, code, out, err = timed(f"{cmd.verb}_s", cmd.args)
            problems = process_problems(cmd.verb, code, err)
            if not problems:
                got = digest(work / cmd.out) if cmd.out else out
                # the first round gets the full checks; later rounds must
                # reproduce its bytes
                if cmd.verb not in reference:
                    reference[cmd.verb] = got
                    problems = checker.check(cmd, out)
                elif got != reference[cmd.verb]:
                    problems.append(f"{cmd.verb}: output differs from the checked first round")
            tally.record(problems)
            round_rss = max(round_rss, maxrss)
        for timings in (raw, scaled):
            timings["round_s"].append(sum(timings[f"{cmd.verb}_s"][-1] for cmd in plan.commands))
        rss.append(round_rss / 1024)

    return {
        "metrics": {
            "setup_s": statistics.median(scaled["setup_s"]),
            "elements_per_s": plan.elements_per_round / statistics.median(scaled["round_s"]),
            "peak_rss_mb": statistics.median(rss),
        },
        "samples": scaled,
        "raw": raw,
        "rss": rss,
    }


# ---------------------------------------------------------------------------
# By layer: in process, traced and untraced

def call_main(argv: list[str], work: Path) -> tuple[int, str, str]:
    """apg.cli.main in process, in the work directory; (code, stdout, stderr)."""
    from apg import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash counts as a failed command, and the run goes on
        code, err = 1, io.StringIO(traceback.format_exc())
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def trace_run(plan, work: Path, seconds: float, checker, tally: Tally, launcher,
              spans_path: Path) -> dict:
    import tracing

    setup = []
    for _ in range(5):
        wall, _, code, out, err = launcher.run(["validate", "empty.apg"], work)
        tally.record(setup_problems(code, out, err))
        setup.append(wall)

    def run_command(cmd, recorder=None, check=False) -> float:
        """One in-process command, traced when a recorder is given; its wall time."""
        if cmd.out:
            _clear(work / cmd.out)
        undo = recorder.instrument() if recorder is not None else None
        try:
            start = time.perf_counter()
            code, out, err = call_main(cmd.args, work)
            wall = time.perf_counter() - start
        finally:
            if undo is not None:
                undo()
        problems = process_problems(cmd.verb, code, err)
        if check and not problems:
            problems = checker.check(cmd, out)
        tally.record(problems)
        if recorder is not None:
            # probe at once: graphs kept alive longer would slow the
            # collector in later commands and show up as overhead
            depths.append(tracing.adt_probe(recorder, recorder.graphs))
            start = time.perf_counter()
            recorder.release()
            wall += time.perf_counter() - start
        return wall

    recorder = tracing.Recorder()
    depths: list[int] = []
    untraced, traced, rounds = [], [], []
    start = time.perf_counter()
    while another_round(start, seconds, rounds):
        round_start = time.perf_counter()
        recorder.round += 1
        untraced.append(0.0)
        traced.append(0.0)
        # Each command runs untraced and traced back to back, so that both see
        # nearly the same machine speed; which goes first alternates.
        for i, cmd in enumerate(plan.commands):
            order = (False, True) if (len(rounds) + i) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    traced[-1] += run_command(cmd, recorder)
                else:
                    # the first round's untraced outputs get the full checks
                    untraced[-1] += run_command(cmd, check=not rounds)
        rounds.append(time.perf_counter() - round_start)
    recorder.write(spans_path)

    metrics = layer_metrics(recorder, depths)
    setup_s, untraced_s = statistics.median(setup), statistics.median(untraced)
    commands = len(plan.commands)
    metrics["cli.setup_s"] = setup_s
    metrics["cli.setup_share"] = commands * setup_s / (commands * setup_s + untraced_s)
    metrics["trace.round_s"] = statistics.median(traced)
    metrics["trace.untraced_round_s"] = untraced_s
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced) - 1
    return {"metrics": metrics, "samples": {"rounds": len(rounds)}}


def layer_metrics(recorder, depths: list[int]) -> dict:
    """Per-layer metrics from the spans: the median over traced rounds of
    each per-round total."""
    from tracing import self_times

    by_round: dict[int, list] = {}
    for span in recorder.spans:
        by_round.setdefault(span.round, []).append(span)
    per_round = []
    for spans in by_round.values():
        own = self_times(spans)
        command_time = sum(s.duration for s in spans if s.name in ("cli.main", "cli.release"))
        m = {name: 0.0 for name in PER_LAYER}
        for s in spans:
            if s.layer in SPAN_LAYERS:
                m[f"{s.layer}.self_s"] += own[s.id]
            for key, value in s.counts.items():
                if f"{s.layer}.{key}" in m:
                    m[f"{s.layer}.{key}"] += value
        for metric, name in FUNCTION_TIMES.items():
            m[metric] = sum(s.duration for s in spans if s.name == name)
        # read_graph(validate=False): the read minus the validation nested in it
        validate_in = {}
        for s in spans:
            if s.name == "graph.validate_graph" and s.parent is not None:
                validate_in[s.parent] = validate_in.get(s.parent, 0.0) + s.duration
        m["files.read_s"] = sum(s.duration - validate_in.get(s.id, 0.0)
                                for s in spans if s.name == "files.read_graph")
        for layer in SPAN_LAYERS:
            m[f"{layer}.share"] = m[f"{layer}.self_s"] / command_time
        left = sum(s.counts.get("left_elements", 0) for s in spans)
        m["integrate.match_ratio"] = m["integrate.matched_pairs"] / left if left else 0.0
        m["trace.spans"] = len(spans)
        per_round.append(m)

    metrics = {name: statistics.median(m[name] for m in per_round) for name in PER_LAYER}
    metrics["adt.id_depth_max"] = max(depths)
    return metrics


# ---------------------------------------------------------------------------
# Report

def print_report(workload: str, trace: bool, result: dict, tally: Tally, plan):
    print(f"== {workload} ({'traced, in process' if trace else 'end to end, fresh processes'})"
          f"  commands attempted {tally.attempted}, failed {tally.failed}")
    for problem in tally.problems[:10]:
        print(f"   FAILED CHECK: {problem}")
    units = PER_LAYER if trace else END_TO_END
    samples = result["samples"]
    for name, value in result["metrics"].items():
        print(f"   {name:32s} {value:14.6g} {units[name]}")
    if trace:
        print(f"   rounds: {samples['rounds']}, each command once untraced and once traced")
        return
    print(f"   {'failed_ratio':32s} {tally.failed / tally.attempted:14.6g} ratio"
          f"  ({tally.failed}/{tally.attempted})")
    print(f"   elements per round: {plan.elements_per_round}; rounds: {len(result['rss'])}")
    print("   times scaled to the reference speed (speed.py), then raw wall;"
          " median [q1, q3] (n)")
    for name in ["setup_s", "round_s"] + [f"{v}_s" for v in VERBS]:
        if name not in samples:
            print(f"   {name:32s} {'n/a':>14s}   not in this workload's mix")
            continue
        q1, q2, q3 = quartiles(samples[name])
        r1, r2, r3 = quartiles(result["raw"][name])
        print(f"   {name:32s} {q2:14.6g} s [{q1:.6g}, {q3:.6g}]"
              f"  raw {r2:.6g} s [{r1:.6g}, {r3:.6g}] (n={len(samples[name])})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str):
    from checks import Checker
    from workloads import generate

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    _clear(work)
    tally = Tally()
    try:
        plan = generate(workload, seed, work, size)
        checker = Checker(plan, work)
        with Launcher() as launcher:
            if trace:
                spans_path = WORK / "spans" / f"{workload}-seed{seed}.jsonl"
                result = trace_run(plan, work, seconds, checker, tally, launcher, spans_path)
            else:
                result = cli_run(plan, work, seconds, checker, tally, launcher)
    finally:
        _clear(work)
    print_report(workload, trace, result, tally, plan)
    return result, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "merge", "transform", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the smoke check")
    args = parser.parse_args(argv)

    if not (SRC / "apg" / "__init__.py").is_file():
        print(f"error: no apg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apg

    if Path(apg.__file__).resolve().parent != SRC / "apg":
        print(f"error: imported apg from {apg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workloads = ["ingest", "merge", "transform"] if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        result, tally = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                     args.size)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
