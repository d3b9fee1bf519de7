"""Exact rational arithmetic primitives shared by every module.

Every exact rational value the package returns is a ``fractions.Fraction``;
the kernel fill and its cache hold their values as integers and make a
Fraction only when one is read.  The class already guarantees the
invariants the rest of the code relies on: results are reduced to lowest
terms, the denominator is positive, and zero is represented as 0/1.
``factorial`` is ``math.factorial``, which raises ValueError for negative m.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

__all__ = [
    "beta_even",
    "factorial",
    "format_rational",
    "parse_rational",
]

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def beta_even(n: int, m: int) -> Fraction:
    """Euler beta function at even integer arguments: B(2n, 2m).

    Evaluates (2n-1)! (2m-1)! / (2n+2m-1)! exactly.  Both arguments must
    be positive integers.
    """
    if n < 1 or m < 1:
        raise ValueError(f"beta_even requires n >= 1 and m >= 1, got n={n}, m={m}")
    return Fraction(factorial(2 * n - 1) * factorial(2 * m - 1), factorial(2 * n + 2 * m - 1))


def format_rational(value: Fraction) -> str:
    """``str(value)``: ``p/q`` in lowest terms, or ``p`` when q is 1."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Parse the ``p/q`` (or bare integer) form produced by format_rational.

    Accepts an optional leading sign on the numerator only.  Anything else,
    including a zero denominator, raises ValueError.  The result is reduced
    to lowest terms, so an unreduced ``p/q`` parses to the same value.
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
