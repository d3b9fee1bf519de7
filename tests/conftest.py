"""Shared test plumbing.

The acceptance suite records a one-line verdict per criterion; the
terminal-summary hook reprints them after the run so the verdicts are
visible even with output capture on.  No test sees a KERNEL_CACHE_DIR
exported in the calling shell: tests that persist tables set their own.
The ``gcd_calls`` fixture counts calls to ``math.gcd``, which ``Fraction``
makes for every reduction, so a test can show that a route keeps Fraction
normalization out of its inner loops.  The ``stop_sweep`` fixture stops a
call at each of its lines in turn, as a signal may, and checks what a
module's kept tables give after each stop.
"""

import itertools
import linecache
import math
import sys
from typing import Callable, List

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


class Stop(BaseException):
    """Raised part-way through a call, the way KeyboardInterrupt may be."""


def stopped_at(module, k: int, call: Callable[[], object]) -> bool:
    """Run ``call()`` and raise ``Stop`` at its k-th line event in ``module``'s frames.

    A ``with`` statement's line is passed over: it is also reported on the
    way out of the block, before the lock's release, where no signal can
    stop a call.  Return whether the call was stopped; the previous tracer
    comes back either way.
    """
    filename, seen = module.__file__, 0

    def local(frame, event, arg):
        nonlocal seen
        line = linecache.getline(filename, frame.f_lineno)
        if event == "line" and not line.lstrip().startswith("with "):
            seen += 1
            if seen == k:
                raise Stop
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    except Stop:
        return True
    finally:
        sys.settrace(previous)
    return False


@pytest.fixture
def stop_sweep():
    """Stop a call at each of its line events in turn, checking after each stop.

    ``sweep(module, reset, call, check)`` runs, for k = 1, 2, ...:
    ``reset()``, then ``call()`` stopped at its k-th line event in
    ``module`` (see ``stopped_at``), then ``check()``, which asserts that
    the kept tables still give right values.  It ends after the first k
    that the call runs past, and returns the number of stops.
    """

    def sweep(module, reset, call, check) -> int:
        for k in itertools.count(1):
            reset()
            stopped = stopped_at(module, k, call)
            check()
            if not stopped:
                return k - 1

    return sweep


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
