"""Integer compositions: ordered sequences of positive parts with a fixed sum.

The enumeration order is part of the contract.  ``compositions(n)`` yields
tuples whose first part ascends, recursing on the remainder in the same
order, so for n = 3 the stream is (1,1,1), (1,2), (2,1), (3).  Callers that
snapshot term-by-term output (the brute-force product sums, the CLI) rely
on this order being stable across runs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

__all__ = ["Composition", "compositions"]

Composition = Tuple[int, ...]


def compositions(n: int) -> Iterator[Composition]:
    """Yield every composition of n, first part ascending.

    n must be a positive integer; exactly 2**(n-1) tuples are produced and
    each tuple sums to n.
    """
    if n < 1:
        raise ValueError(f"compositions requires n >= 1, got {n}")
    return _generate(n)


def _generate(n: int) -> Iterator[Composition]:
    for first in range(1, n):
        for rest in _generate(n - first):
            yield (first,) + rest
    yield (n,)

