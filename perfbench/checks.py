"""Output checks that share no code with ``bekernels``.

Exact values come from mpmath (``bernfrac``, ``eulernum(exact=True)``) and
the standard library; a_n is checked as B_2n (1 - 2^(1-2n)) / (2n) and the
kernels as K_b(n) = -B_2n (2^(2n) - 2) / (2n)!, K_e(n) = E_2n / (2n)!.
Evaluations are compared with mpmath's gamma, psi and zeta at the working
precision plus 20 digits, with the acceptance suite's tolerance: error at
most twice the reported bound (relative for gamma) plus a rounding slack
at the working precision.

Every check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import libintmath

# Digits the CLI prints for floats; the printed value may be off by half a
# unit in the last of them.
CLI_FLOAT_DIGITS = 30
REFERENCE_EXTRA_DIGITS = 20


class ExactReference:
    """B_2k, E_2k and the derived sequences for k = 1..upto, from mpmath."""

    def __init__(self, upto: int) -> None:
        # mpmath fills its Euler-number cache while computing E_m, but only
        # up to MAX_EULER_CACHE; raising that bound makes one call at the
        # top index fill every lower one, instead of one full pass each.
        libintmath.MAX_EULER_CACHE = max(libintmath.MAX_EULER_CACHE, 2 * upto)
        self.bernoulli = [Fraction(0)] + [Fraction(*mpmath.bernfrac(2 * k)) for k in range(1, upto + 1)]
        mpmath.eulernum(2 * upto, exact=True)
        self.euler = [1] + [int(mpmath.eulernum(2 * k, exact=True)) for k in range(1, upto + 1)]
        self._texts: Dict[tuple, str] = {}

    def text(self, sequence: str, k: int) -> str:
        key = (sequence, k)
        if key not in self._texts:
            self._texts[key] = rational_text(self.values(sequence, k))
        return self._texts[key]

    def values(self, sequence: str, k: int) -> Fraction:
        b2k = self.bernoulli[k]
        if sequence == "bernoulli":
            return b2k
        if sequence == "euler":
            return Fraction(self.euler[k])
        if sequence == "a":
            return b2k * (1 - Fraction(2) ** (1 - 2 * k)) / (2 * k)
        if sequence == "kb":
            return -b2k * (2 ** (2 * k) - 2) / math.factorial(2 * k)
        if sequence == "ke":
            return Fraction(self.euler[k], math.factorial(2 * k))
        raise ValueError(f"unknown sequence {sequence!r}")


def rational_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def check_exact_strings(ref: ExactReference, sequence: str, texts: Sequence[str]) -> Optional[str]:
    """``texts[k-1]`` must be the k-th value of ``sequence`` written as ``p/q``."""
    for k, text in enumerate(texts, start=1):
        expected = ref.text(sequence, k)
        if text != expected:
            return f"{sequence} k={k}: got {text[:40]!r}, expected {expected[:40]!r}"
    return None


def reference_value(target: str, x: str, wp: int, order: int = 0) -> mpmath.mpf:
    """The exact function value each evaluator approximates, at wp + 20 digits.

    ``order`` is y for polygamma and m0 for hurwitz.
    """
    with mp.workdps(wp + REFERENCE_EXTRA_DIGITS):
        xm = mp.mpf(x)
        if target == "gamma":
            return mpmath.gamma(xm + mp.mpf(1) / 2)
        if target == "digamma":
            return mpmath.psi(0, xm + 1)
        if target == "polygamma":
            return mpmath.psi(order, xm + 1)
        if target == "hurwitz":
            return mpmath.zeta(2 * order, xm + 1)
    raise ValueError(f"unknown target {target!r}")


def check_eval(
    target: str, wp: int, value, bound, reference, printed_digits: Optional[int] = None
) -> Optional[str]:
    """|value - reference| <= 2 * bound + slack; relative for gamma.

    The slack is one unit at the working precision, plus half a unit in
    the last printed digit when the value went through the CLI.
    """
    with mp.workdps(wp + REFERENCE_EXTRA_DIGITS):
        value, bound, reference = mp.mpf(value), mp.mpf(bound), mp.mpf(reference)
        error = abs(value - reference)
        scale = abs(reference)
        if target == "gamma":
            error /= scale
            scale = mp.mpf(1)
        slack = scale * mp.mpf(10) ** (-wp)
        if printed_digits is not None:
            slack += scale * mp.mpf(10) ** (1 - printed_digits)
        if error <= 2 * bound + slack:
            return None
        kind = "relative " if target == "gamma" else ""
        return (
            f"{target} wp={wp}: {kind}error {mp.nstr(error, 3)} exceeds "
            f"2 * bound {mp.nstr(bound, 3)} + slack {mp.nstr(slack, 3)}"
        )


def parse_plain_table(stdout: str) -> List[str]:
    """Values column of ``table`` plain output, after checking the index column."""
    values = []
    for expected_n, line in enumerate(stdout.splitlines(), start=1):
        n_text, value = line.split("\t")
        if int(n_text) != expected_n:
            raise ValueError(f"row {expected_n} is labelled {n_text}")
        values.append(value)
    return values


def parse_indexed_json(stdout: str, step: int) -> List[str]:
    """Values of ``bernoulli``/``euler``/``a-coeff`` JSON output; index k*step at row k."""
    values = []
    for k, row in enumerate(json.loads(stdout), start=1):
        if row["index"] != k * step:
            raise ValueError(f"row {k} has index {row['index']}, expected {k * step}")
        values.append(row["value"])
    return values


def check_cli_exact(ref: ExactReference, command: str, kind: str, upto: int, stdout: str) -> Optional[str]:
    try:
        if command == "table":
            sequence, texts = "k" + kind, parse_plain_table(stdout)
        elif command == "bernoulli":
            sequence, texts = "bernoulli", parse_indexed_json(stdout, 2)
        elif command == "euler":
            sequence, texts = "euler", parse_indexed_json(stdout, 2)
        else:
            sequence, texts = "a", parse_indexed_json(stdout, 1)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{command}: unreadable output ({exc})"
    if len(texts) != upto:
        return f"{command}: {len(texts)} rows, expected {upto}"
    return check_exact_strings(ref, sequence, texts)


def check_cli_eval(target: str, x: str, wp: int, order: int, stdout: str) -> Optional[str]:
    try:
        payload = json.loads(stdout)
        value, bound = payload["value"], payload["bound"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"eval {target}: unreadable output ({exc})"
    reference = reference_value(target, x, wp, order)
    return check_eval(target, wp, value, bound, reference, printed_digits=CLI_FLOAT_DIGITS)


def check_verify(stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    if not lines:
        return "verify printed nothing"
    for line in lines:
        if not line.startswith("PASS "):
            return f"verify line not PASS: {line[:80]!r}"
    return None
