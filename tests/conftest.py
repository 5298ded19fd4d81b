"""Shared test plumbing: the acceptance summary printed after the run, and
fixtures that set the threads of the threaded steps."""

import sys

import pytest

from polarbec import errors

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


@pytest.fixture
def record():
    return record_acceptance


@pytest.fixture
def workers(monkeypatch):
    """workers(count) makes the threaded steps use count threads, whatever
    the CPUs of the host: an affinity mask of count CPUs under a cap of
    count."""

    def use(count: int) -> None:
        monkeypatch.setattr(errors, "_MAX_WORKERS", count)
        cpus = set(range(count))
        monkeypatch.setattr(errors.os, "sched_getaffinity", lambda pid: cpus, raising=False)

    return use


@pytest.fixture
def short_switch():
    """A 1-microsecond switch interval, so that threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
