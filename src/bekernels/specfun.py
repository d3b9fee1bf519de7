"""Truncated evaluation of the Gamma-family expansions.

The exact coefficients from ``sequences`` feed expansions of Gamma,
digamma, polygamma, and the Hurwitz zeta function.  The a_n grow
factorially, so the Gamma and digamma series are asymptotic: they are
never summed "to convergence".  Every evaluator cuts off after a
caller-chosen number of terms and reports a bound made from the first
omitted term by the series' own rule, alongside a reference value from
mpmath.  ``_evaluate`` is the one place a series stops, its bound is
made and the reference is taken.  The two convergent series, polygamma's
and ln pi/e's, are one f-weighted zeta series, made by ``_zeta_series``
with its one bound rule.

All floating arithmetic is mpmath at the caller's working precision plus
guard digits; exact rationals are converted at the last moment.
"""

from __future__ import annotations

import itertools
import numbers
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

import mpmath
from mpmath import mp

from .sequences import a_from_kb, f_of, g_closed

__all__ = [
    "EvalReport",
    "TruncationParams",
    "check_ln_pi_over_e",
    "eval_digamma",
    "eval_gamma",
    "eval_hurwitz_expansion",
    "eval_polygamma",
    "zeta_direct",
]

Real = int | float | str | Fraction | mpmath.mpf

# Extra digits carried internally so that rounding in the working context
# never shows up at the reported precision.
_GUARD_DIGITS = 10


class TruncationParams(namedtuple("_Truncation", ["terms", "working_precision"])):
    """How deep to sum and at what precision.

    ``terms`` may be 0: the expansions all have a closed leading part, and
    a zero-term evaluation reports that part alone with the first series
    term as its bound.
    """

    __slots__ = ()

    def __new__(cls, terms: int, working_precision: int = 34) -> "TruncationParams":
        if not isinstance(terms, numbers.Integral) or terms < 0:
            raise ValueError(f"TruncationParams requires an integer terms >= 0, got {terms!r}")
        if working_precision < 15:
            raise ValueError(f"working_precision must be >= 15, got {working_precision}")
        return super().__new__(cls, terms, working_precision)

    @classmethod
    def _make(cls, iterable) -> "TruncationParams":
        # ``_replace`` builds through ``_make``; route it through the checks.
        return cls(*iterable)


class EvalReport(namedtuple("_EvalReport", ["value", "terms_used", "first_omitted_term_bound",
                                            "reference", "abs_error"])):
    """Outcome of one truncated evaluation.

    ``first_omitted_term_bound`` is the series' bound rule applied to the
    first term the truncation dropped, of magnitude b.  For Hurwitz and
    digamma it is b, a bound on the absolute error; Gamma sums its series in
    the exponent and reports e^b - 1, the bound on its relative error, or
    inf where b's own rounding is not far below 1 (x = 5 with 400 terms).
    The convergent series, polygamma's and ``check_ln_pi_over_e``'s, report
    b / (1 - rho), which covers the whole tail when each term is at most
    rho times the one before, plus the error their inner zeta sums may add,
    or inf when rho >= 1 (``_zeta_series``).  The bound covers truncation
    and those inner sums, not rounding at the working precision: for
    Hurwitz zeta at x = 1e400 with 3 terms it is 3.3e-3602, while
    ``abs_error`` is 8.1e-446, the rounding of a value near 1e-400.
    ``reference`` is mpmath's value of the same function at the same
    argument, taken ten digits past the value's working precision, and
    ``abs_error`` = |value - reference|.  That is the value's own error only
    where the reference keeps those digits: mpmath's Hurwitz zeta
    (``_hurwitz_em``) stops at an absolute tolerance, so a Hurwitz or
    polygamma reference far below 1 can keep fewer (ROADMAP item 23,
    checked by ``test_reference_is_right_to_its_digits``).  Hurwitz zeta
    at m0 = 10, x = 1000.3 with 4 terms reports abs_error 3.0e-69 against a
    bound of 5.1e-83, yet the value is right to its bound: the reference is
    wrong from its 10th digit.
    """

    __slots__ = ()


def _evaluate(
    terms: int,
    term: Callable[[int], mpmath.mpf],
    value_of: Callable[[mpmath.mpf], mpmath.mpf],
    reference: Callable[[], mpmath.mpf],
    bound_of: Callable[[mpmath.mpf], mpmath.mpf],
) -> EvalReport:
    """The report of value_of(sum of term(1..terms)), bounded by bound_of(term(terms + 1)).

    The first omitted term is taken first, so a term that reads K_b fills
    the table to terms + 1 in one step and the summed terms only read it.
    reference() is taken _GUARD_DIGITS past the working precision.
    """
    bound = bound_of(term(terms + 1))
    value = value_of(mp.fsum(term(n) for n in range(1, terms + 1)))
    with mp.extradps(_GUARD_DIGITS):
        exact = reference()
    return EvalReport(value, terms, bound, exact, abs(value - exact))


def _zeta_series(
    y: int, q: Real, terms: int, wp: int, scale: Real
) -> tuple[Callable[[int], mpmath.mpf], Callable[[mpmath.mpf], mpmath.mpf]]:
    """The term n -> t_n = w_n zeta(2n+y+1, q) of an N-term sum, and the sum's bound rule.

    Here w_n = f(n) (2n)_(y+1).  Polygamma's series at q = x + 1, and ln
    pi/e's sum of f(j) zeta(2j) at y = -1, q = 1.  Each inner zeta sum is
    within inner_tol: w_(N+1) q^-(2N+y+3) <= the first omitted term, over
    100, >= scale's rounding, <= 10^-(wp+2).

    The rule bounds the error of the N-term sum by |t_(N+1)| / (1 - rho)
    + inner_tol max(N, sum_(n<=N) w_n + w_(N+1) / (1 - rho)), or inf when
    rho >= 1, where rho = max(R(N+1), 1/4) / q^2 and R(n) = w_(n+1)/w_n
    = (2n+y+1)(2n+y+2) / (4 (2n+2)(2n+3)):
    - every term is positive, so the tail after N terms is the sum of the
      t_n from n = N + 1 on;
    - zeta(s+2, q) <= zeta(s, q) / q^2, term by term of the Hurwitz sum, so
      t_(n+1) <= R(n) t_n / q^2;
    - for y >= 1, R is at least 1/4 and non-increasing; at y = -1 it rises
      to 1/4.  So R(n) <= max(R(N+1), 1/4) for every n > N, each ratio in
      the tail is at most rho, and the tail is under t_(N+1) (1 + rho +
      rho^2 + ...) = t_(N+1) / (1 - rho);
    - each computed term, the omitted one included, is within w_n
      inner_tol of t_n, so the N summed terms are off by under inner_tol
      sum_(n<=N) w_n, and t_(N+1) exceeds the computed one by under
      w_(N+1) inner_tol, which the tail multiplies by 1 / (1 - rho);
    - the max with N keeps N inner_tol, the allowance ln pi/e had before
      the rule, which covers its rounding floor until the floor is a rule
      of its own (ROADMAP item 2a).
    """
    omitted = terms + 1
    weights = [_mpf(f_of(n)) * mp.rf(2 * n, y + 1) for n in range(1, omitted + 1)]  # w_1..w_(N+1)
    least = weights[-1] * q ** -(2 * omitted + y + 1)
    inner_tol = min(mp.mpf(10) ** -(wp + 2), max(least, scale * mp.eps) / 100)

    def term(n: int) -> mpmath.mpf:
        return weights[n - 1] * zeta_direct(2 * n + y + 1, q, inner_tol)

    def bound_of(first_omitted: mpmath.mpf) -> mpmath.mpf:
        ratio = Fraction((2 * omitted + y + 1) * (2 * omitted + y + 2),
                         4 * (2 * omitted + 2) * (2 * omitted + 3))
        rho = _mpf(max(ratio, Fraction(1, 4))) / q**2
        if rho >= 1:
            return mp.inf
        weighted = mp.fsum(weights[:-1]) + weights[-1] / (1 - rho)
        return abs(first_omitted) / (1 - rho) + inner_tol * max(terms, weighted)

    return term, bound_of


def _mpf(x: Real) -> mpmath.mpf:
    """x at the current working precision; inf and nan raise ValueError.

    A Fraction rounds once, to nearest at ``mp.prec`` bits.
    """
    if isinstance(x, Fraction):
        value = mp.make_mpf(mpmath.libmp.from_rational(x.numerator, x.denominator, mp.prec, "n"))
    else:
        value = mp.mpf(x)
    if not mp.isfinite(value):
        raise ValueError(f"expected a finite number, got {x}")
    return value


def _base(name: str, x: Real) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(x, x + 1/2) at the current working precision; x <= -1/2 raises ValueError naming ``name``.

    The digamma, polygamma and Hurwitz series run in powers of the base
    x + 1/2, which must be real and > 0: the theorem that the first omitted
    term bounds the error of Stirling's series holds only there (DLMF
    5.11(ii); ROADMAP item 19).
    """
    xm = _mpf(x)
    if not xm > mp.mpf(-1) / 2:
        raise ValueError(f"{name} requires x > -1/2, got {x}")
    return xm, xm + mp.mpf(1) / 2


def zeta_direct(s: int, q: Real, tol: Real) -> mpmath.mpf:
    """Hurwitz zeta sum_{n>=0} (n+q)^(-s) for an integer s >= 2 and q > 0, to within tol.

    The paper takes zeta only at integers, and ``_zeta_series``, the one
    caller, passes s = 2n + y + 1; an s that is not a ``numbers.Integral``
    raises ValueError.  Below 10^25 an integer s is exact at the working
    digits, at least 25, so none go to its rounding.  q and tol, any real
    (float, str, Fraction or mpf), are read by ``_mpf``, as x is.

    Sums N explicit terms, then corrects with the integral tail
    (N+q)^(1-s)/(s-1), half the edge term (N+q)^(-s)/2 and the
    Euler-Maclaurin terms B_2k/(2k)! s(s+1)...(s+2k-2) (N+q)^(1-s-2k).
    It runs in two stages.  The first, at 15 digits, reads q and tol,
    checks q > 0 there, since rounding never changes a sign, and sizes the
    digits: tol's decimal exponent sets D, and the sum is carried at D plus
    the digits of its own size above 1.  The second sums at those digits.
    N puts the edge N+q at or past D, and the corrections are added until
    the next one is <= tol; since t -> (q+t)^(-s) is completely monotone,
    that first omitted correction bounds the true remainder.  One pass
    suffices: the corrections shrink until 2k is about 2 pi edge - s, and
    the smallest is at most about 100 e^(-2 pi edge) <= 10^(2 - 2.7 D),
    below tol = 10^(10 - D); when s > 2 pi edge - 1, the first, about
    s edge^(-s-1) / 12, is already below tol.  A correction that stops
    shrinking above tol thus means a broken premise, such as a wrong B_2k,
    and raises ArithmeticError.

    B_2k comes from ``mpmath.bernoulli`` at the working precision: this sum
    gives every inner zeta value of ``_zeta_series``, the one series of
    ``eval_polygamma`` and ``check_ln_pi_over_e``, and it is the tests'
    tolerance-bounded reference for the kernel-derived expansions, so it
    must not read their own Bernoulli pipeline.
    """
    if not isinstance(s, numbers.Integral) or s < 2:
        raise ValueError(f"zeta_direct requires an integer s >= 2, got {s!r}")
    s = int(s)  # mpmath reads no numpy integer
    with mp.workdps(15):
        qm, tol_m = _mpf(q), _mpf(tol)
        if not tol_m > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if not qm > 0:
            raise ValueError(f"zeta_direct requires q > 0, got {q}")
        digits = max(25, int(mp.ceil(-mp.log10(tol_m))) + _GUARD_DIGITS)
        # The sum is at most q^(-s) + q^(1-s)/(s-1); an absolute tol needs
        # the digits of that size above 1 as well.
        extra = max(0, int(mp.ceil(mp.log10(qm**-s + qm ** (1 - s) / (s - 1)))))
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

    value = 1 / ((2m0-1) (x+1/2)^(2m0-1)) + sum_{z=1}^{N} g_closed(z, m0) /
    ((2m0+2z-1) (x+1/2)^(2m0+2z-1)); the reference is
    ``mpmath.zeta(2*m0, x+1)``.  Requires m0 >= 1 and x > -1/2.
    """
    if not isinstance(m0, numbers.Integral) or m0 < 1:
        raise ValueError(f"eval_hurwitz_expansion requires an integer m0 >= 1, got {m0!r}")
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm, base = _base("eval_hurwitz_expansion", x)
        leading = 1 / ((2 * m0 - 1) * base ** (2 * m0 - 1))

        def z_term(z: int) -> mpmath.mpf:
            power = 2 * m0 + 2 * z - 1
            return _mpf(g_closed(z, m0)) / (power * base**power)

        return _evaluate(params.terms, z_term, lambda series: leading + series,
                         lambda: mpmath.zeta(2 * m0, xm + 1), abs)


def eval_gamma(x: Real, params: TruncationParams) -> EvalReport:
    """Gamma(x + 1/2) = (x/e)^x sqrt(2 pi) exp(-sum a_n/((2n-1) x^(2n-1))).

    Requires x > 0.  The first omitted term b bounds the exponent's error,
    |ln(value/Gamma)|, so e^b - 1, the report's bound, bounds the relative
    error |value/Gamma - 1| of the product form; it is inf once b's
    rounding, b 10^(1 - dps), passes 10^-_GUARD_DIGITS, since e^b - 1 then
    holds fewer digits than it would print.  The reference is
    ``mpmath.gamma``.
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

        def exponent_term(n: int) -> mpmath.mpf:
            return _mpf(a_from_kb(n)) / ((2 * n - 1) * xm ** (2 * n - 1))

        def bound_of(omitted: mpmath.mpf) -> mpmath.mpf:
            known = abs(omitted) < mp.mpf(10) ** (mp.dps - 1 - _GUARD_DIGITS)
            return mp.expm1(abs(omitted)) if known else mp.inf

        return _evaluate(
            params.terms, exponent_term,
            lambda exponent: mp.exp(xm * mp.log(xm) - xm - exponent) * mp.sqrt(2 * mp.pi),
            lambda: mpmath.gamma(xm + mp.mpf(1) / 2), bound_of)


def eval_digamma(x: Real, params: TruncationParams) -> EvalReport:
    """psi(x + 1) = ln(x + 1/2) + sum a_n / (x + 1/2)^(2n), truncated.

    Requires x > -1/2.  The reference is ``mpmath.psi(0, x + 1)``.
    """
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm, base = _base("eval_digamma", x)

        def series_term(n: int) -> mpmath.mpf:
            return _mpf(a_from_kb(n)) * base ** (-2 * n)

        return _evaluate(params.terms, series_term, lambda series: mp.log(base) + series,
                         lambda: mpmath.psi(0, xm + 1), abs)


def eval_polygamma(y: int, x: Real, params: TruncationParams) -> EvalReport:
    """Order-y polygamma psi^(y)(x + 1) via the f-weighted zeta series.

    value = (-1)^(y-1) [ (y-1)!/(x+1/2)^y
                         - sum_{n=1}^{N} f(n) (2n+y)!/(2n-1)! zeta(2n+y+1, x+1) ],
    summed by ``_zeta_series`` at q = x + 1, which makes the terms, the
    tolerance of their inner zeta sums, and each zeta_direct call; this
    function keeps its value form, reference and bound rule.  The factorial
    factors, (2n+y)!/(2n-1)! as the rising factorial (2n)_(y+1), are taken
    at the working precision.  The identity
    psi^(y)(x+1) = (-1)^(y-1) y! zeta(y+1, x+1), with mpmath's Hurwitz
    zeta, supplies the reference.
    Requires y >= 1 and x > -1/2.  The bound is the series' rule from
    ``_zeta_series``: the first omitted term over 1 - rho, where rho bounds
    each later term's ratio to the one before, plus the inner sums' error;
    it is inf where rho >= 1, as near x = -1/2 at y >= 2 with few terms.
    """
    if not isinstance(y, numbers.Integral) or y < 1:
        raise ValueError(f"eval_polygamma requires an integer y >= 1, got {y!r}")
    wp = params.working_precision
    with mp.workdps(wp + _GUARD_DIGITS):
        xm, base = _base("eval_polygamma", x)
        sign = 1 if y % 2 else -1
        leading = mp.factorial(y - 1) / base**y
        series_term, bound_of = _zeta_series(y, xm + 1, params.terms, wp, leading)
        return _evaluate(params.terms, series_term, lambda series: sign * (leading - series),
                         lambda: sign * mp.factorial(y) * mpmath.zeta(y + 1, xm + 1), bound_of)


def check_ln_pi_over_e(terms: int, working_precision: int = 34) -> EvalReport:
    """Partial sum of sum_{j>=1} zeta(2j) f(j), which converges to (ln pi - 1)/2.

    The sum is polygamma's f-weighted zeta series at order y = -1 and
    q = 1, where (2j)_0 = 1: ``_zeta_series`` makes its terms, its inner
    zeta sums and their tolerance, from the least omitted term f(N+1)
    (zeta(2N+2) > 1), and its bound rule, whose proof is there.  The
    reference is (ln pi - 1)/2 with mpmath's pi.  Here every term is under
    1/4 of the one before, so the rule's rho is 1/4 and the tail is under
    (4/3) t_(N+1); the rule adds N times the inner tolerance, since the
    f-weighted count, sum_(j<=N) f(j) + (4/3) f(N+1) < 1/21, is below N.
    That N is loose, 798 times the error at precision 34 and N = 120, but it is what
    covers the rounding at the working precision, which is not in the rule
    (ROADMAP item 2a): where rounding sets the error, from about N = 40 at
    precision 15, N times the tolerance, at least N eps/100, exceeds it.
    """
    if not isinstance(terms, numbers.Integral) or terms < 1:
        raise ValueError(f"check_ln_pi_over_e requires an integer terms >= 1, got {terms!r}")
    wp = TruncationParams(terms, working_precision).working_precision  # the evaluators' floor
    with mp.workdps(wp + _GUARD_DIGITS):
        series_term, bound_of = _zeta_series(-1, 1, terms, wp, 1)  # the sum is below 1
        return _evaluate(terms, series_term, lambda total: total, lambda: (mp.log(mp.pi) - 1) / 2,
                         bound_of)
