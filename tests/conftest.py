"""Shared test plumbing.

The acceptance suite records a one-line verdict per criterion; the
terminal-summary hook reprints them after the run so the verdicts are
visible even with output capture on.  No test sees a KERNEL_CACHE_DIR
exported in the calling shell: tests that persist tables set their own.
The ``gcd_calls`` fixture counts calls to ``math.gcd``, which ``Fraction``
makes for every reduction, so a test can show that a route keeps Fraction
normalization out of its inner loops.  The ``stop_sweep`` fixture stops a
call at each of its lines in turn, as a signal may, and checks what a
kept table gives after each stop.
"""

import itertools
import linecache
import math
import signal
import sys
from typing import Callable, List, Optional

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


def stopped_at(module, k: int, call: Callable[[], object]) -> Optional[int]:
    """Run ``call()`` and raise ``Stop`` at its k-th line event in ``module``'s frames.

    A ``with`` statement's line is passed over: it is also reported on the
    way out of the block, before the lock's release, where no signal can
    stop a call.  So is a line event that repeats its frame's previous
    line, as each pass of a one-line loop or comprehension does: from
    Python 3.12 a comprehension runs in its enclosing frame (PEP 709), and
    a ``Stop`` raised there by the tracer can leave an enclosing ``with``
    block's lock held, which no signal does.  Return the line number the
    call was stopped at, or None if it ran past k line events; the previous
    tracer comes back either way.
    """
    filename, seen = module.__file__, 0

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != filename:
            return None
        last = None  # this frame's previous line

        def local(frame, event, arg):
            nonlocal seen, last
            if event == "line" and frame.f_lineno != last:
                last = frame.f_lineno
                if not linecache.getline(filename, last).lstrip().startswith("with "):
                    seen += 1
                    if seen == k:
                        raise Stop(last)
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    except Stop as stop:
        return stop.args[0]
    finally:
        sys.settrace(previous)
    return None


# Seconds one stop of a sweep may take, from its reset to the end of its check.
STOP_DEADLINE_S = 10


@pytest.fixture
def stop_sweep():
    """Stop a call at each of its line events in turn, checking after each stop.

    ``sweep(module, reset, call, check)`` runs, for k = 1, 2, ...:
    ``reset()``, then ``call()`` stopped at its k-th line event in
    ``module`` (see ``stopped_at``), then ``check()``, which asserts that
    the kept tables still give right values.  It ends after the first k
    that the call runs past, and returns the number of stops.

    A stop that leaves a lock held makes the next call wait forever (see
    ``stopped_at`` for the case that did).  So each stop has a deadline of
    STOP_DEADLINE_S, past which the sweep fails naming k and the line it
    stopped at.
    """

    def sweep(module, reset, call, check) -> int:
        k, line = 0, None

        def expired(signum, frame):
            where = "before the stop" if line is None else (
                f"after the stop at {module.__name__} line {line}: "
                f"{linecache.getline(module.__file__, line).strip()}")
            pytest.fail(f"stop {k} of {module.__name__} ran past {STOP_DEADLINE_S} s, "
                        f"blocked {where}", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expired)
        try:
            for k in itertools.count(1):
                line = None
                signal.setitimer(signal.ITIMER_REAL, STOP_DEADLINE_S)
                reset()
                line = stopped_at(module, k, call)
                check()
                signal.setitimer(signal.ITIMER_REAL, 0)
                if line is None:
                    return k - 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return sweep


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
