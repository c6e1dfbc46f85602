"""Prints one PASS/FAIL line per acceptance check after the run, gives
tests a standard input to feed, and fails a test that leaves the cyclic
garbage collector off."""

import gc
import io

import pytest

_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance")
    for name, outcome in _outcomes.items():
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture
def stdin(monkeypatch):
    """feed(data) makes data, a text or bytes, the process's standard input,
    with a byte buffer under it as a real one has, and returns the stream."""
    def feed(data):
        raw = data.encode("utf-8") if isinstance(data, str) else data
        stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stream)
        return stream
    return feed


@pytest.fixture(autouse=True)
def collector_left_on():
    """apg pauses the cyclic collector; a pause that leaked out of a test
    would change every test after it, so the test that leaks it fails."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
