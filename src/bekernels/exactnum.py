"""The p/q text form of exact rationals, and ``factorial``.

Every exact rational the package returns is a ``fractions.Fraction``:
reduced to lowest terms, with a positive denominator, and 0 as 0/1.
``factorial`` is ``math.factorial``, which the other modules import from
``math``.  The three names stay here for perfbench's spans, which wrap
them by name (``factorial`` wherever a module binds that object), until
ROADMAP items 11 and 16 give the package spans of its own.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

__all__ = [
    "factorial",
    "format_rational",
    "parse_rational",
]

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


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
