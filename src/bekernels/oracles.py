"""Independent reference generators for Bernoulli and Euler numbers.

These implementations deliberately share no code with the kernel pipeline
in ``kernels``/``sequences``: they are the cross-checks, so they must not
inherit its bugs.  Bernoulli numbers come from the Akiyama-Tanigawa
triangle, Euler numbers from the Seidel boustrophedon (zigzag) transform.

Convention notes.  Akiyama-Tanigawa produces B_1 = +1/2; the even-index
values, the only ones the kernel pipeline derives, are convention-free.
The Euler numbers here are the secant-family integers defined by the
coefficients of 1/cosh, so E_0 = 1, E_2 = -1, E_4 = 5, E_6 = -61.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate
from typing import List

__all__ = ["bernoulli_even", "bernoulli_numbers", "euler_even", "zigzag_numbers"]

# Both triangles run in integers and extend row by row, so only the missing
# tail is computed; the locks make the shared state safe to grow from
# several threads.  _at_row holds the last Akiyama-Tanigawa row times
# _at_lcm = lcm(1..m+1); its head is B_m only at row m, so _at_done keeps
# each B_m.  _zz_row holds the last Seidel row, and _zz_done Z_0..Z_m.
_at_lock = threading.Lock()
_at_row: List[int] = []
_at_lcm = 1
_at_done: List[Fraction] = []

_zz_lock = threading.Lock()
_zz_row: List[int] = [1]
_zz_done: List[int] = [1]


def bernoulli_numbers(upto: int) -> List[Fraction]:
    """Return [B_0, B_1, ..., B_upto] by the Akiyama-Tanigawa algorithm.

    Row m of the triangle starts from 1/(m+1) and is folded in place by
    a[j-1] = j * (a[j-1] - a[j]); the surviving head entry is B_m.  Uses
    the B_1 = +1/2 sign convention.

    The fold is linear with integer coefficients, so the row is kept in
    integers times L = lcm(1..m+1): the new entry is L/(m+1), and when L
    grows the whole row is multiplied by the growth.  B_m = row[0] / L.
    """
    global _at_lcm
    if upto < 0:
        raise ValueError(f"bernoulli_numbers requires upto >= 0, got {upto}")
    with _at_lock:
        while len(_at_done) <= upto:
            m = len(_at_done)
            grow = (m + 1) // math.gcd(_at_lcm, m + 1)
            if grow > 1:
                _at_lcm *= grow
                _at_row[:] = [v * grow for v in _at_row]
            _at_row.append(_at_lcm // (m + 1))
            for j in range(m, 0, -1):
                _at_row[j - 1] = j * (_at_row[j - 1] - _at_row[j])
            _at_done.append(Fraction(_at_row[0], _at_lcm))
        return _at_done[: upto + 1]


def bernoulli_even(n: int) -> Fraction:
    """B_{2n} for n >= 0, free of the B_1 sign ambiguity."""
    if n < 0:
        raise ValueError(f"bernoulli_even requires n >= 0, got {n}")
    return bernoulli_numbers(2 * n)[2 * n]


def zigzag_numbers(upto: int) -> List[int]:
    """Return the zigzag (Euler up/down) numbers Z_0..Z_upto: 1, 1, 1, 2, 5, 16, ...

    Seidel's boustrophedon recurrence: row m is the running sums, from 0, of
    row m-1 read in reverse, made in one pass; its last entry is Z_m.
    """
    global _zz_row
    if upto < 0:
        raise ValueError(f"zigzag_numbers requires upto >= 0, got {upto}")
    with _zz_lock:
        while len(_zz_done) <= upto:
            _zz_row = list(accumulate(reversed(_zz_row), initial=0))
            _zz_done.append(_zz_row[-1])
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
