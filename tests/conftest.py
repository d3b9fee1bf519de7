"""Shared test plumbing.

The acceptance suite records a one-line verdict per criterion; the
terminal-summary hook reprints them after the run so the verdicts are
visible even with output capture on.  No test sees a KERNEL_CACHE_DIR
exported in the calling shell: tests that persist tables set their own.
The ``gcd_calls`` fixture counts calls to ``math.gcd``, which ``Fraction``
makes for every reduction, so a test can show that a route keeps Fraction
normalization out of its inner loops.
"""

import math
from typing import List

import pytest

ACCEPTANCE_RESULTS: List[str] = []


@pytest.fixture(autouse=True)
def _no_exported_cache_dir(monkeypatch):
    monkeypatch.delenv("KERNEL_CACHE_DIR", raising=False)


@pytest.fixture
def gcd_calls(monkeypatch) -> List[int]:
    """A one-element list holding the number of math.gcd calls so far."""
    count = [0]
    right = math.gcd

    def counted(*args):
        count[0] += 1
        return right(*args)

    monkeypatch.setattr(math, "gcd", counted)
    return count


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
