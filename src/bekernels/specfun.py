"""Truncated evaluation of the Gamma-family expansions.

The exact coefficients from ``sequences`` feed expansions of Gamma,
digamma, polygamma, and the Hurwitz zeta function.  The a_n grow
factorially, so the Gamma and digamma series are asymptotic: they are
never summed "to convergence".  Every evaluator cuts off after a
caller-chosen number of terms and reports the magnitude of the first
omitted term as the error estimate, alongside an independently computed
reference value where one is available; ``_truncated`` is the one place
a series stops and its bound is taken.

All floating arithmetic is mpmath at the caller's working precision plus
guard digits; exact rationals are converted at the last moment.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

import mpmath
from mpmath import mp

from .exactnum import factorial
from .kernels import KernelKind, kernel_recursive
from .sequences import a_from_kb, f_of, g_closed

__all__ = [
    "EvalReport",
    "TruncationParams",
    "check_ln_pi_over_e",
    "eval_digamma",
    "eval_gamma",
    "eval_hurwitz_expansion",
    "eval_polygamma",
    "p_term",
    "zeta_direct",
]

Real = int | float | str | Fraction | mpmath.mpf

# Extra digits carried internally so that rounding in the working context
# never shows up at the reported precision.
_GUARD_DIGITS = 10

# References are computed this many digits beyond the omitted-term bounds
# they are compared against; 4 keeps them out of the error budget.
_REFERENCE_MARGIN = 4


class TruncationParams(namedtuple("_Truncation", ["terms", "working_precision"])):
    """How deep to sum and at what precision.

    ``terms`` may be 0: the expansions all have a closed leading part, and
    a zero-term evaluation reports that part alone with the first series
    term as its bound.
    """

    __slots__ = ()

    def __new__(cls, terms: int, working_precision: int = 34) -> "TruncationParams":
        if terms < 0:
            raise ValueError(f"terms must be >= 0, got {terms}")
        if working_precision < 15:
            raise ValueError(f"working_precision must be >= 15, got {working_precision}")
        return super().__new__(cls, terms, working_precision)

    @classmethod
    def _make(cls, iterable) -> "TruncationParams":
        # ``_replace`` builds through ``_make``; route it through the checks.
        return cls(*iterable)


class EvalReport(namedtuple("_EvalReport", ["value", "terms_used", "first_omitted_term_bound",
                                            "reference", "abs_error"], defaults=(None, None))):
    """Outcome of one truncated evaluation.

    ``first_omitted_term_bound`` is the magnitude of the first term the
    truncation dropped; for the multiplicative Gamma form it bounds the
    relative error, for the additive series the absolute error.  It covers
    truncation only, not rounding at the working precision: for Hurwitz
    zeta at x = 1e400 with 3 terms it is 3.3e-3602, while ``abs_error`` is
    1.0e-442, the rounding of a value near 1e-400.
    ``reference`` is None when no independent value is defined for the
    inputs, and ``abs_error`` is |value - reference| otherwise.
    """

    __slots__ = ()


def _report(
    value: mpmath.mpf,
    terms_used: int,
    bound: mpmath.mpf,
    reference: mpmath.mpf | None,
) -> EvalReport:
    error = abs(value - reference) if reference is not None else None
    return EvalReport(value, terms_used, bound, reference, error)


def _mpf(x: Real) -> mpmath.mpf:
    """x at the current working precision; inf and nan raise ValueError."""
    if isinstance(x, Fraction):
        value = mp.mpf(x.numerator) / x.denominator
    else:
        value = mp.mpf(x)
    if not mp.isfinite(value):
        raise ValueError(f"expected a finite number, got {x}")
    return value


def _truncated(term: Callable[[int], mpmath.mpf], terms: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The sum of term(1..terms) and |term(terms + 1)|, the first omitted term."""
    return mp.fsum(term(n) for n in range(1, terms + 1)), abs(term(terms + 1))


def p_term(m: int, x: Real, working_precision: int = 34) -> mpmath.mpf:
    """Leading expansion term 1 / ((2m-1) (x+1/2)^(2m-1)).

    Requires m >= 1 and x > -1/2 (the power base must stay positive).
    """
    if m < 1:
        raise ValueError(f"p_term requires m >= 1, got {m}")
    with mp.workdps(working_precision + _GUARD_DIGITS):
        xm = _mpf(x)
        if not xm > mp.mpf(-1) / 2:
            raise ValueError(f"p_term requires x > -1/2, got {x}")
        base = xm + mp.mpf(1) / 2
        return 1 / ((2 * m - 1) * base ** (2 * m - 1))


def zeta_direct(s: Real, q: Real, tol: Real) -> mpmath.mpf:
    """Hurwitz zeta sum_{n>=0} (n+q)^(-s) for s > 1, q > 0, to within tol.

    Sums N explicit terms, then corrects with the integral tail
    (N+q)^(1-s)/(s-1), half the edge term (N+q)^(-s)/2 and the
    Euler-Maclaurin terms B_2k/(2k)! s(s+1)...(s+2k-2) (N+q)^(1-s-2k).
    tol may be any real (float, str, Fraction or mpf); its decimal
    exponent sets the digits D, and the sum is carried at D plus the
    digits of its own size above 1.  N puts the edge N+q at or past D, and
    the corrections are added until the next one is <= tol; since
    t -> (q+t)^(-s) is completely monotone, that first omitted correction
    bounds the true remainder.  One pass suffices: the corrections shrink
    until 2k is about 2 pi edge - s, and the smallest is at most about
    100 e^(-2 pi edge) <= 10^(2 - 2.7 D), below tol = 10^(10 - D); when
    s > 2 pi edge - 1, the first, about s edge^(-s-1) / 12, is already
    below tol.  A correction that stops shrinking above tol thus means a
    broken premise, such as a wrong B_2k, and raises ArithmeticError.

    B_2k comes from ``mpmath.bernoulli`` at the working precision: this sum
    is the reference the kernel-derived expansions are judged against, so
    it must not read their own Bernoulli pipeline.
    """
    with mp.workdps(15):
        tol_m = _mpf(tol)
        if not tol_m > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        digits = max(25, int(mp.ceil(-mp.log10(tol_m))) + _GUARD_DIGITS)
    with mp.workdps(digits):
        sm = _mpf(s)
        qm = _mpf(q)
        if not sm > 1:
            raise ValueError(f"zeta_direct requires s > 1, got {s}")
        if not qm > 0:
            raise ValueError(f"zeta_direct requires q > 0, got {q}")
        # The sum is at most q^(-s) + q^(1-s)/(s-1); an absolute tol needs
        # the digits of that size above 1 as well.
        extra = max(0, int(mp.ceil(mp.log10(qm**-sm + qm ** (1 - sm) / (sm - 1)))))
    with mp.workdps(digits + extra):
        sm, qm, tol_m = _mpf(s), _mpf(q), _mpf(tol)
        # An edge near the digits tol asks for makes the corrections shrink geometrically.
        n_terms = int(mp.ceil(digits - qm)) if qm < digits else 0
        total = mp.fsum((qm + n) ** -sm for n in range(n_terms))
        edge = qm + n_terms
        corrections = [edge ** (1 - sm) / (sm - 1), edge**-sm / 2]
        # s(s+1)...(s+2k-2) / (2k)! * edge^(1-s-2k), advanced one k at a time
        weight = sm / 2 * edge ** (-sm - 1)
        edge_sq = edge**2
        previous = mp.inf
        for k in itertools.count(1):
            term = mpmath.bernoulli(2 * k) * weight
            if abs(term) <= tol_m:
                return total + mp.fsum(corrections)
            if abs(term) >= previous:
                raise ArithmeticError(
                    f"zeta_direct(s={s}, q={q}, tol={tol}): corrections stop shrinking above tol")
            corrections.append(term)
            previous = abs(term)
            weight *= (sm + 2 * k - 1) * (sm + 2 * k) / ((2 * k + 1) * (2 * k + 2) * edge_sq)


def eval_hurwitz_expansion(m0: int, x: Real, params: TruncationParams) -> EvalReport:
    """Expansion of zeta(2*m0, x+1) in powers of (x+1/2), truncated.

    value = p_term(m0, x) + sum_{z=1}^{N} g_closed(z, m0) / ((2m0+2z-1)
    (x+1/2)^(2m0+2z-1)); the reference is the direct tail-corrected sum.
    """
    if m0 < 1:
        raise ValueError(f"eval_hurwitz_expansion requires m0 >= 1, got {m0}")
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm = _mpf(x)
        leading = p_term(m0, xm, wp)  # rejects x <= -1/2 before any term divides by x + 1/2
        base = xm + mp.mpf(1) / 2
        kernel_recursive(KernelKind.BERNOULLI, params.terms + 1)  # one fill, as in eval_gamma

        def z_term(z: int) -> mpmath.mpf:
            power = 2 * m0 + 2 * z - 1
            return _mpf(g_closed(z, m0)) / (power * base**power)

        series, bound = _truncated(z_term, params.terms)
        value = leading + series
        reference = zeta_direct(2 * m0, xm + 1, mp.mpf(10) ** -(wp - _REFERENCE_MARGIN))
        return _report(value, params.terms, bound, reference)


def eval_gamma(x: Real, params: TruncationParams) -> EvalReport:
    """Gamma(x + 1/2) = (x/e)^x sqrt(2 pi) exp(-sum a_n/((2n-1) x^(2n-1))).

    Requires x > 0.  The omitted-term bound lives inside the exponent, so
    it bounds the relative error of the product form.  The reference is an
    independent high-precision Gamma.
    """
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm = _mpf(x)
        if not xm > 0:
            raise ValueError(f"eval_gamma requires x > 0, got {x}")
        # The exponent's absolute error is the result's relative error.
        magnitude = int(mp.ceil(mp.log10(1 + abs(xm * mp.log(xm)))))
    with mp.workdps(wp + _GUARD_DIGITS + magnitude):
        xm = _mpf(x)
        # One fill up front: on a cold table each a_from_kb below would fill
        # its own row and reduce a K_b(n) to a Fraction that nothing reads.
        kernel_recursive(KernelKind.BERNOULLI, params.terms + 1)

        def exponent_term(n: int) -> mpmath.mpf:
            return _mpf(a_from_kb(n)) / ((2 * n - 1) * xm ** (2 * n - 1))

        exponent, bound = _truncated(exponent_term, params.terms)
        value = mp.exp(xm * mp.log(xm) - xm - exponent) * mp.sqrt(2 * mp.pi)
        reference = mpmath.gamma(xm + mp.mpf(1) / 2)
        return _report(value, params.terms, bound, reference)


def eval_digamma(x: Real, params: TruncationParams) -> EvalReport:
    """psi(x + 1) = ln(x + 1/2) + sum a_n / (x + 1/2)^(2n), truncated.

    Requires x > -1/2.  For non-negative integer x the reference is the
    harmonic number H_x minus the Euler-Mascheroni constant, both from
    mpmath at working precision, so a huge x costs no more than a small
    one; for other x no independent reference is reported.
    """
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm = _mpf(x)
        if not xm > mp.mpf(-1) / 2:
            raise ValueError(f"eval_digamma requires x > -1/2, got {x}")
        base = xm + mp.mpf(1) / 2
        kernel_recursive(KernelKind.BERNOULLI, params.terms + 1)  # one fill, as in eval_gamma

        def series_term(n: int) -> mpmath.mpf:
            return _mpf(a_from_kb(n)) * base ** (-2 * n)

        series, bound = _truncated(series_term, params.terms)
        value = mp.log(base) + series
        reference = None
        if mp.isint(xm) and xm >= 0:
            reference = mp.harmonic(xm) - mp.euler
        return _report(value, params.terms, bound, reference)


def eval_polygamma(y: int, x: Real, params: TruncationParams) -> EvalReport:
    """Order-y polygamma psi^(y)(x + 1) via the f-weighted zeta series.

    value = (-1)^(y-1) [ (y-1)!/(x+1/2)^y
                         - sum_{n=1}^{N} f(n) (2n+y)!/(2n-1)! zeta(2n+y+1, x+1) ],
    with the inner zeta values from zeta_direct.  The identity
    psi^(y)(x+1) = (-1)^(y-1) y! zeta(y+1, x+1), with mpmath's Hurwitz
    zeta at working precision, supplies the reference.
    Requires y >= 1 and x > -1/2.
    """
    if y < 1:
        raise ValueError(f"eval_polygamma requires y >= 1, got {y}")
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm = _mpf(x)
        if not xm > mp.mpf(-1) / 2:
            raise ValueError(f"eval_polygamma requires x > -1/2, got {x}")
        base = xm + mp.mpf(1) / 2
        sign = 1 if y % 2 else -1

        def weight(n: int) -> mpmath.mpf:
            return _mpf(f_of(n)) * (factorial(2 * n + y) // factorial(2 * n - 1))

        # The first omitted term is at least w_{N+1} (x+1)^-(2N+y+3); the
        # inner sums stay 100x below that, so their errors stay out of the
        # bound, but need not go below the rounding of the leading part.
        omitted = params.terms + 1
        least_omitted = weight(omitted) * (xm + 1) ** -(2 * omitted + y + 1)
        leading = factorial(y - 1) / base**y
        inner_tol = min(mp.mpf(10) ** -(wp + 2), max(least_omitted, leading * mp.eps) / 100)

        def series_term(n: int) -> mpmath.mpf:
            return weight(n) * zeta_direct(2 * n + y + 1, xm + 1, inner_tol)

        series, bound = _truncated(series_term, params.terms)
        value = sign * (leading - series)
        reference = sign * factorial(y) * mpmath.zeta(y + 1, xm + 1)
        return _report(value, params.terms, bound, reference)


def check_ln_pi_over_e(terms: int, working_precision: int = 34) -> EvalReport:
    """Partial sum of sum_{j>=1} zeta(2j) f(j), which converges to (ln pi - 1)/2.

    The terms decay like 4^(-j), so this series genuinely converges; the
    report's bound is the first omitted term and the reference is
    (ln pi - 1)/2 with mpmath's pi.
    """
    if terms < 1:
        raise ValueError(f"check_ln_pi_over_e requires terms >= 1, got {terms}")
    with mp.workdps(working_precision + _GUARD_DIGITS):
        inner_tol = mp.mpf(10) ** -(working_precision + 2)

        def series_term(j: int) -> mpmath.mpf:
            return zeta_direct(2 * j, 1, inner_tol) * _mpf(f_of(j))

        value, bound = _truncated(series_term, terms)
        reference = (mp.log(mp.pi) - 1) / 2
        return _report(value, terms, bound, reference)

