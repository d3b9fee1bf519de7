"""Independent reference generators for Bernoulli and Euler numbers.

These implementations deliberately share no code with the kernel pipeline
in ``kernels``/``sequences``: they are the cross-checks, so they must not
inherit its bugs.  Bernoulli numbers come from Brent and Harvey's
tangent-number loop (arXiv:1108.0286), Euler numbers from the Seidel
boustrophedon (zigzag) transform.  The two share no module-level name,
down to their imports and annotations.  Each is a generator that keeps only
its last row; the per-n and list functions read a fresh one in one O(n^2)
pass, so a caller that reads every value up to some n should read
``bernoulli_evens`` or ``euler_evens`` itself.

Convention notes.  The even-index Bernoulli values, the only ones the kernel
pipeline derives, are convention-free; B_1 = +1/2 is a kept convention.
The Euler numbers here are the secant-family integers defined by the
coefficients of 1/cosh, so E_0 = 1, E_2 = -1, E_4 = 5, E_6 = -61.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from fractions import Fraction
from itertools import accumulate, count, islice

__all__ = [
    "bernoulli_even",
    "bernoulli_evens",
    "bernoulli_numbers",
    "euler_even",
    "euler_evens",
    "zigzag_numbers",
]


def bernoulli_evens() -> Iterator[Fraction]:
    """B_0 = 1, B_2, B_4, ... as B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), one reduction each.

    The tangent numbers T_n come from Brent and Harvey's loop: start from
    T_j = (j-1)!, and in pass k = 2, 3, ... set T_j = (j-k) T_{j-1} +
    (j-k+2) T_j for every j >= k.  Column j keeps T_j after passes 1..j, so
    column j+1 follows from column j alone; pass j+1 doubles its last
    entry.  Only the last column is kept.
    """
    yield Fraction(1)
    column = [1]  # column n, whose last entry is T_n
    for n in count(1):
        four_n = 4**n
        yield Fraction((1 if n % 2 else -1) * 2 * n * column[-1], four_n * (four_n - 1))
        new = [n * column[0]]
        for k in range(2, n + 1):
            new.append((n + 1 - k) * column[k - 1] + (n + 3 - k) * new[-1])
        new.append(2 * new[-1])
        column = new


def bernoulli_numbers(upto: int) -> list[Fraction]:
    """Return [B_0, B_1, ..., B_upto], with B_1 = +1/2 and B_m = 0 at odd m > 1."""
    if upto < 0:
        raise ValueError(f"bernoulli_numbers requires upto >= 0, got {upto}")
    half, zero, evens = Fraction(1, 2), Fraction(0), bernoulli_evens()
    return [half if m == 1 else zero if m % 2 else next(evens) for m in range(upto + 1)]


def bernoulli_even(n: int) -> Fraction:
    """B_{2n}: item n of a fresh ``bernoulli_evens()``."""
    if n < 0:
        raise ValueError(f"bernoulli_even requires n >= 0, got {n}")
    evens = bernoulli_evens()
    for _ in range(n):
        next(evens)
    return next(evens)


def _zigzags() -> Generator[int, None, None]:
    """The zigzag (Euler up/down) numbers Z_0, Z_1, ...: 1, 1, 1, 2, 5, 16, ...

    Seidel's boustrophedon recurrence: row m is the running sums, from 0, of
    row m-1 read in reverse, made in one pass; its last entry is Z_m.  Only
    the last row is kept.
    """
    row = [1]
    while True:
        yield row[-1]
        row = list(accumulate(reversed(row), initial=0))


def zigzag_numbers(upto: int) -> list[int]:
    """Return the zigzag numbers Z_0..Z_upto: 1, 1, 1, 2, 5, 16, ..."""
    if upto < 0:
        raise ValueError(f"zigzag_numbers requires upto >= 0, got {upto}")
    return list(islice(_zigzags(), upto + 1))


def euler_evens() -> Generator[int, None, None]:
    """E_0, E_2, E_4, ... in the 1/cosh convention: 1, -1, 5, -61, ...

    The zigzag numbers give |E_{2n}| = Z_{2n}; the secant-family sign is
    (-1)^n.
    """
    for n, magnitude in enumerate(islice(_zigzags(), 0, None, 2)):
        yield -magnitude if n % 2 else magnitude


def euler_even(n: int) -> int:
    """E_{2n}: item n of a fresh ``euler_evens()``."""
    if n < 0:
        raise ValueError(f"euler_even requires n >= 0, got {n}")
    return next(islice(euler_evens(), n, None))
