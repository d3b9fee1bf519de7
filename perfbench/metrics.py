"""Summary statistics shared by every workload.

The tail rule: report the highest percentile that still has at least
``TAIL_BEYOND`` samples above it, together with which percentile that was
and how many samples it rests on.  A fixed level such as p99 would rest on
a single sample in a run of a few hundred operations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of samples at or below ``value``, in percent
    samples: int
    beyond: int  # samples strictly above the reported rank


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The (n - beyond)-th smallest sample, i.e. the highest rank with ``beyond`` above it.

    With ``beyond`` or fewer samples no rank qualifies; the maximum is
    returned with ``beyond`` set to 0 so the report shows the shortfall.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return Tail(ordered[-1], 100.0, n, 0)
    rank = n - beyond  # 1-based
    return Tail(ordered[rank - 1], 100.0 * rank / n, n, beyond)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
