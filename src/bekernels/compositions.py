"""Integer compositions: ordered sequences of positive parts with a fixed sum.

The enumeration order is part of the contract.  ``compositions(n)`` yields
the tuples in lexicographic order, so for n = 3 the stream is (1,1,1),
(1,2), (2,1), (3).  The CLI listing and library callers that snapshot the
stream rely on this order being stable across runs; the brute-force sums
in ``kernels`` and ``sequences`` walk the composition tree themselves.
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = ["compositions"]


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of n in lexicographic order.

    n must be a positive integer; exactly 2**(n-1) tuples are produced and
    each tuple sums to n.
    """
    if n < 1:
        raise ValueError(f"compositions requires n >= 1, got {n}")
    return _generate(n)


def _generate(n: int) -> Iterator[tuple[int, ...]]:
    # Successor rule: after (..., x, y) comes (..., x + 1) and y - 1 ones.
    parts = [1] * n
    while True:
        yield tuple(parts)
        if len(parts) == 1:
            return
        y = parts.pop()
        parts[-1] += 1
        parts.extend([1] * (y - 1))

