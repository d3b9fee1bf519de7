"""Independent reference generators for Bernoulli and Euler numbers.

These implementations deliberately share no code with the kernel pipeline
in ``kernels``/``sequences``: they are the cross-checks, so they must not
inherit its bugs.  Bernoulli numbers come from Brent and Harvey's
tangent-number loop (arXiv:1108.0286), Euler numbers from the Seidel
boustrophedon (zigzag) transform.

Convention notes.  The even-index Bernoulli values, the only ones the kernel
pipeline derives, are convention-free; B_1 = +1/2 is a kept convention.
The Euler numbers here are the secant-family integers defined by the
coefficients of 1/cosh, so E_0 = 1, E_2 = -1, E_4 = 5, E_6 = -61.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate

__all__ = ["bernoulli_even", "bernoulli_numbers", "euler_even", "zigzag_numbers"]

# Both tables run in integers and extend one step at a time, so only the
# missing tail is computed; the locks make the shared state safe to grow
# from several threads.  _tn_column holds the last tangent column (see
# bernoulli_even) and _tn_done T_1..T_j.  _zz_row holds the last Seidel
# row, and _zz_done Z_0..Z_m.  Each step makes its row and the longer list
# of values first and rebinds both names in one statement, so a call
# stopped anywhere leaves a row and a list that match.
_tn_lock = threading.Lock()
_tn_column: list[int] = [1]
_tn_done: list[int] = [1]

_zz_lock = threading.Lock()
_zz_row: list[int] = [1]
_zz_done: list[int] = [1]


def bernoulli_numbers(upto: int) -> list[Fraction]:
    """Return [B_0, B_1, ..., B_upto], with B_1 = +1/2 and B_m = 0 at odd m > 1."""
    if upto < 0:
        raise ValueError(f"bernoulli_numbers requires upto >= 0, got {upto}")
    half, zero = Fraction(1, 2), Fraction(0)
    return [half if m == 1 else zero if m % 2 else bernoulli_even(m // 2) for m in range(upto + 1)]


def bernoulli_even(n: int) -> Fraction:
    """B_0 = 1 and B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), with one reduction.

    The tangent numbers T_n come from Brent and Harvey's loop: start from
    T_j = (j-1)!, and in pass k = 2, 3, ... set T_j = (j-k) T_{j-1} +
    (j-k+2) T_j for every j >= k.  Column j keeps T_j after passes 1..j, so
    column j+1 follows from column j alone; pass j+1 doubles its last entry.
    """
    global _tn_column, _tn_done
    if n < 0:
        raise ValueError(f"bernoulli_even requires n >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    with _tn_lock:
        while len(_tn_done) < n:
            j, col = len(_tn_done), _tn_column
            new = [j * col[0]]
            for k in range(2, j + 1):
                new.append((j + 1 - k) * col[k - 1] + (j + 3 - k) * new[-1])
            new.append(2 * new[-1])
            _tn_column, _tn_done = new, [*_tn_done, new[-1]]
        tangent = _tn_done[n - 1]
    four_n = 4**n
    return Fraction((1 if n % 2 else -1) * 2 * n * tangent, four_n * (four_n - 1))


def zigzag_numbers(upto: int) -> list[int]:
    """Return the zigzag (Euler up/down) numbers Z_0..Z_upto: 1, 1, 1, 2, 5, 16, ...

    Seidel's boustrophedon recurrence: row m is the running sums, from 0, of
    row m-1 read in reverse, made in one pass; its last entry is Z_m.
    """
    global _zz_row, _zz_done
    if upto < 0:
        raise ValueError(f"zigzag_numbers requires upto >= 0, got {upto}")
    with _zz_lock:
        while len(_zz_done) <= upto:
            row = list(accumulate(reversed(_zz_row), initial=0))
            _zz_row, _zz_done = row, [*_zz_done, row[-1]]
        return _zz_done[: upto + 1]


def euler_even(n: int) -> int:
    """E_{2n} in the 1/cosh convention: E_0 = 1, E_2 = -1, E_4 = 5, E_6 = -61.

    The zigzag numbers give |E_{2n}| = Z_{2n}; the secant-family sign is
    (-1)^n.
    """
    if n < 0:
        raise ValueError(f"euler_even requires n >= 0, got {n}")
    magnitude = zigzag_numbers(2 * n)[2 * n]
    return -magnitude if n % 2 else magnitude
