"""Shared test plumbing.

The acceptance suite records a one-line verdict per criterion; the
terminal-summary hook reprints them after the run so the verdicts are
visible even with output capture on.  No test sees a KERNEL_CACHE_DIR
exported in the calling shell: tests that persist tables set their own.
"""

from typing import List

import pytest

ACCEPTANCE_RESULTS: List[str] = []


@pytest.fixture(autouse=True)
def _no_exported_cache_dir(monkeypatch):
    monkeypatch.delenv("KERNEL_CACHE_DIR", raising=False)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
