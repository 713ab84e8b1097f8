import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from coxkit import data

sys.path.insert(0, str(Path(__file__).parent))

# GitHub Actions sets CI: examples then derive from each test's source, not a
# random seed, and a failure prints the blob that replays it. `CI=1 pytest`
# reruns the same examples locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def forks(monkeypatch):
    """The pids `os.fork` returned to this test's process."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def cpus(monkeypatch, forks):
    """Sets the CPUs every forking site sees, with one cell enough for a
    part of `data.write_columns`."""
    monkeypatch.setattr(data, "_PART_CELLS", 1)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)

    return set_cpus


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
