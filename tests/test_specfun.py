"""Truncated evaluators: domain checks, spec'd trivial points, error discipline."""

import hashlib
import itertools
import math
import subprocess
import sys
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from mpmath import mp

from bekernels import kernels, oracles, sequences, specfun
from bekernels.specfun import (
    EvalReport,
    TruncationParams,
    check_ln_pi_over_e,
    eval_digamma,
    eval_gamma,
    eval_hurwitz_expansion,
    eval_polygamma,
    zeta_direct,
)


def tp(terms, precision=34):
    return TruncationParams(terms, precision)


def test_truncation_params_validation():
    assert tp(0).terms == 0  # closed leading part alone is a valid request
    with pytest.raises(ValueError):
        TruncationParams(-1)
    with pytest.raises(ValueError):
        TruncationParams(3, 14)
    assert tp(3)._replace(working_precision=50) == tp(3, 50)
    with pytest.raises(ValueError):
        tp(3)._replace(terms=-1)


def test_eval_path_imports_no_dataclasses():
    # A fresh interpreter, so modules imported by other tests do not count,
    # and only the modules the import adds: from Python 3.12 the site hook
    # imports inspect before the package loads, so there a new
    # ``import inspect`` would go unseen.
    script = (
        "import sys; before = set(sys.modules); import bekernels.specfun; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_zeta_direct_known_values():
    with mp.workdps(40):
        pi = +mpmath.pi
        assert abs(zeta_direct(2, 1, 1e-12) - pi**2 / 6) <= 1e-12
        expected = pi**2 / 6 - 1 - mp.mpf(1) / 4 - mp.mpf(1) / 9
        assert abs(zeta_direct(2, 4, 1e-12) - expected) <= 1e-12
        assert abs(zeta_direct(4, 1, 1e-12) - pi**4 / 90) <= 1e-12


def test_zeta_direct_tracks_tolerance():
    with mp.workdps(50):
        for tol in (1e-10, 1e-20, 1e-30):
            observed = abs(zeta_direct(3, 2, tol) - mpmath.zeta(3, 2))
            assert observed <= tol


def test_zeta_direct_against_independent_library():
    with mp.workdps(40):
        for s, q in [(2, 10), (5, 1), (2.5, 0.75), (31, 4)]:
            assert abs(zeta_direct(s, q, 1e-25) - mpmath.zeta(s, q)) <= 1e-25


@pytest.mark.parametrize("tol", [1e-12, 1e-56, 1e-100])
@pytest.mark.parametrize("s", [2, 2.5, 4, 31, 122, 1 + 2**-40, 4000])
def test_zeta_direct_meets_tolerance(s, tol):
    # q = 1e400 is past the float range; q = 0.75 with s = 122 puts the sum
    # near 2e15, so an absolute tol needs digits above the decimal point.
    # s = 1 + 2**-40 is exact in binary and puts the tail near 1e12; at
    # s = 4000 the first correction is already below tol.  The check keeps
    # tol only while the sum, near q^-s + q^(1-s)/(s-1), fits its digits:
    # so q = 1e-9 only near s = 1, and no q below 1 at s = 4000.
    qs = {1 + 2**-40: (0.75, 1, 20.74, 1e6, "1e400", "1e-9"), 4000: (1, 20.74, 1e6, "1e400")}
    for q in qs.get(s, (0.75, 1, 20.74, 1e6, "1e400")):
        value = zeta_direct(s, q, tol)
        with mp.workdps(int(-mp.log10(tol)) + 20):
            assert abs(value - mpmath.zeta(s, mp.mpf(q))) <= tol, q


@pytest.mark.parametrize("tol", ["1e-20", "1e-56"])
@pytest.mark.parametrize("q", [0.5, 1, 3.7])
@pytest.mark.parametrize(
    "s", ["1.001", "1.00000001", "1.000000000001", "1.00000000000000000001", "1." + "0" * 39 + "1"]
)
def test_zeta_direct_meets_tolerance_near_one(s, q, tol):
    # Near s = 1 the sum moves by about 1/(s-1)^2 per unit of s, so the
    # rounding of a decimal s must be carried past tol's digits as well:
    # ("1.000000000001", 1, "1e-56") was 1.7e-56 off while it was not.  The
    # last s rounds to 1 at 30 digits, so it must be read exactly before the
    # s > 1 check.  mpmath rounds s too, so its digits rise by the same
    # 2 log10(1/(s-1)).
    value = zeta_direct(s, q, tol)
    near = 2 * math.ceil(math.log10(1 / (Fraction(s) - 1)))
    with mp.workdps(int(-mp.log10(mp.mpf(tol))) + 60 + near):
        assert abs(value - mpmath.zeta(mp.mpf(s), mp.mpf(q))) <= mp.mpf(tol)


def test_zeta_direct_tolerance_past_float_range():
    tol = mp.mpf("1e-340")  # 1e-340 as a float rounds to a subnormal
    value = zeta_direct(2, 1, tol)
    with mp.workdps(400):
        assert abs(value - mpmath.zeta(2)) <= mp.mpf("1e-340")
    for same in ("1e-30", Fraction(1, 10**30)):
        with mp.workdps(40):
            assert abs(zeta_direct(2, 1, same) - mpmath.zeta(2)) <= mp.mpf("1e-30")


def _raise(*args, **kwargs):
    raise AssertionError("zeta_direct must read neither the kernel pipeline nor its oracles")


def test_zeta_direct_reads_no_kernel_code(monkeypatch):
    monkeypatch.setattr(kernels, "kernel_recursive", _raise)
    monkeypatch.setattr(sequences, "bernoulli", _raise)
    monkeypatch.setattr(oracles, "bernoulli_even", _raise)
    monkeypatch.setattr(oracles, "bernoulli_evens", _raise)
    monkeypatch.setattr(oracles, "bernoulli_numbers", _raise)
    with mp.workdps(60):
        assert abs(zeta_direct(4, 1, 1e-50) - mpmath.pi**4 / 90) <= 1e-50
        assert abs(zeta_direct(3, 20.74, 1e-50) - mpmath.zeta(3, 20.74)) <= 1e-50


def test_zeta_direct_takes_bernoulli_from_mpmath(monkeypatch):
    genuine = mpmath.bernoulli
    monkeypatch.setattr(
        mpmath, "bernoulli", lambda n: mp.mpf(1) / 30 if n == 4 else genuine(n)
    )
    with mp.workdps(40):
        assert abs(zeta_direct(4, 1, 1e-30) - mpmath.pi**4 / 90) > 1e-30


def test_zeta_direct_raises_when_the_corrections_stop_shrinking(monkeypatch):
    # With B_2k = 10^(8k) the corrections grow from the first.  An edge moved
    # out until the first is below tol would return 1.6469..., not zeta(2).
    monkeypatch.setattr(mpmath, "bernoulli", lambda n: mp.mpf(10) ** (4 * n))
    with pytest.raises(ArithmeticError, match=r"s=2, q=1, tol=1e-30"):
        zeta_direct(2, 1, 1e-30)


def test_zeta_direct_domain():
    with pytest.raises(ValueError):
        zeta_direct(1, 1, 1e-10)
    with pytest.raises(ValueError):
        zeta_direct(2, "inf", 1e-10)
    with pytest.raises(ValueError):
        zeta_direct(2, 0, 1e-10)
    with pytest.raises(ValueError, match="q > 0"):
        zeta_direct(2, mp.mpf(-1.5), 1e-10)  # an mpf is read exactly, with its sign
    with pytest.raises(ValueError):
        zeta_direct(2, 1, 0.0)
    # An mpf is read whole, before any check: inf and nan are not numbers to compare.
    for bad in (mp.inf, mp.nan):
        with pytest.raises(ValueError):
            zeta_direct(bad, 1, 1e-10)
        with pytest.raises(ValueError):
            zeta_direct(2, bad, 1e-10)
    with pytest.raises(ValueError):
        zeta_direct(2, 1, mp.nan)


def test_zeta_direct_reads_an_mpf_s_exactly():
    # 1 + 2^-200 rounds to 1 at 15 digits, the digits zeta_direct sizes at,
    # so it passes the s > 1 check only if it is read exactly.  The
    # reference's digits are those of the near-one test.
    with mp.workdps(80):
        s = 1 + mp.mpf(2) ** -200
    value = zeta_direct(s, 1, 1e-20)
    near = 2 * math.ceil(math.log10(2**200))
    with mp.workdps(20 + 60 + near):
        assert abs(value - mpmath.zeta(s, 1)) <= mp.mpf("1e-20")


def _fractions_to_convert():
    yield from (sequences.a_from_kb(n) for n in range(1, 200))
    yield from (sequences.g_closed(n, m0) for n in range(1, 31) for m0 in (1, 3, 10))
    yield from (Fraction(1, 3), Fraction(-2, 7))


@pytest.mark.parametrize("digits", [25, 44, 110])
def test_fraction_converts_correctly_rounded(digits):
    # Each v is within half a unit in its last place at mp.prec bits of the
    # exact x.  Two roundings, of the numerator and then of the quotient,
    # put 45 of a_1..a_199 outside this at 44 digits.
    with mp.workdps(digits):
        wrong = []
        for x in _fractions_to_convert():
            v = specfun._mpf(x)
            _, _, exp, bc = v._mpf_
            if abs(specfun._fraction(v) - x) > Fraction(2) ** (exp + bc - mp.prec) / 2:
                wrong.append(x)
    assert wrong == []


def test_report_error_invariant():
    report = eval_digamma(10, tp(5))
    assert isinstance(report, EvalReport)
    with mp.workdps(50):
        # stored field was rounded at the evaluator's working precision, so
        # demand agreement only far past the digits that carry meaning
        recomputed = abs(report.value - report.reference)
        assert abs(report.abs_error - recomputed) < mp.mpf(10) ** -28 * (1 + recomputed)
    assert report.terms_used == 5
    assert report.first_omitted_term_bound >= 0


def test_hurwitz_reproduces_direct_sum():
    for m0 in (1, 2):
        report = eval_hurwitz_expansion(m0, 9, tp(5))
        assert report.abs_error <= 2 * report.first_omitted_term_bound
        assert report.abs_error < 1e-10


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(
            lambda: eval_hurwitz_expansion(1, "1e400", tp(3)),  # error 8.1e-446, bound 3.3e-3602
            marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 2a: the bound covers truncation, not rounding"),
            id="hurwitz-x1e400-terms3",
        ),
        # error 4.7e-47, bound 8.2e-47: 60 inner tolerances cover the 44-digit floor
        pytest.param(lambda: eval_polygamma(1, 20, tp(60)), id="polygamma-y1-x20-terms60"),
    ],
)
def test_report_bound_covers_the_rounding_floor(evaluate):
    report = evaluate()
    assert report.abs_error <= 2 * report.first_omitted_term_bound


def test_report_bound_covers_a_slowly_shrinking_tail():
    # Near x = -1/2 the terms shrink by only rho = 0.96 per step, so the tail
    # is about 26 first omitted terms.  At y = 1 the q^-s part of each term
    # is exactly geometric in rho, so the bound, 8.84011004411..., meets the
    # error to 30 digits.
    report = eval_polygamma(1, "-0.49", tp(60))  # error 8.84
    assert report.abs_error <= 2 * report.first_omitted_term_bound


def test_report_bound_covers_a_huge_order():
    # At order 10^6 three terms cancel almost none of the leading part, and
    # the terms grow: rho >> 1, so the bound is inf.
    report = eval_polygamma(10**6, "1", tp(3))  # error 4.6e+5389611
    assert report.first_omitted_term_bound == mp.inf
    assert report.abs_error <= 2 * report.first_omitted_term_bound


def _polygamma_truth(y, x, digits):
    with mp.workdps(digits):
        return (-1) ** (y - 1) * mpmath.factorial(y) * mpmath.zeta(y + 1, mp.mpf(x) + 1)


def test_zeta_series_bound_covers_the_error_on_a_grid():
    # Every case is kept, at x near -1/2 where the tail is many terms, and
    # at orders whose inner sums carry weights far above 1.  The bound covers
    # truncation and the inner sums; |truth| 10^-wp stands in for the
    # rounding floor, which the bound leaves out until ROADMAP item 2a.
    orders = [(y, 34) for y in (1, 2, 3, 10, 30)] + [(y, 100) for y in (1, 2)]
    over = []
    for (y, precision), x, terms in itertools.product(
            orders, ("-0.49", "-0.3", "0.3", "12", "55.5"), (0, 4, 30)):
        report = eval_polygamma(y, x, tp(terms, precision))
        truth = _polygamma_truth(y, x, precision + 120)
        with mp.workdps(precision + 120):
            error = abs(report.value - truth)
            floor = abs(truth) * mp.mpf(10) ** -precision
            if not error <= report.first_omitted_term_bound + floor:
                over.append((y, x, terms, precision, mp.nstr(error, 3)))
    assert over == []


_loses_digits_at_order_30 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the inner zeta sums take an absolute tol in the series' units, "
    "so a weight above 1 multiplies their error; the inner-sum rule needs a tol relative to zeta",
)


@pytest.mark.parametrize(
    "y, x",
    [
        pytest.param(30, "12", marks=_loses_digits_at_order_30),  # 2.1e-24
        pytest.param(30, "55.5", marks=_loses_digits_at_order_30),  # 2.4e-14
        pytest.param(30, "1000.3", marks=_loses_digits_at_order_30),  # 1.7e-14
        (3, "55.5"),  # 1.1e-46
        (10, "55.5"),  # 8.0e-40
        (30, "2.5"),  # 1.7e-38
    ],
)
def test_polygamma_value_holds_its_digits_at_high_order(y, x):
    # The relative error of a 60-term value at precision 34.  At y = 30 the
    # weights f(n) (2n)_31 pass 10^34, so inner sums within their absolute
    # tol still move the value by up to 2.4e-14 of itself; the bound counts
    # that, but the value should not lose it.
    report = eval_polygamma(y, x, tp(60))
    truth = _polygamma_truth(y, x, 300)
    with mp.workdps(300):
        assert abs(report.value - truth) / abs(truth) <= mp.mpf(10) ** -34


def _reference_cases():
    # Each (target, order) names the x at which its reference loses digits.
    wrong = {
        ("hurwitz", 5): {"1000.3", "50000.3"},
        ("hurwitz", 10): {"55.5", "1000.3", "50000.3"},
        ("polygamma", 10): {"1000.3", "50000.3"},
        ("polygamma", 30): {"55.5", "1000.3", "50000.3"},
    }
    loses_digits = pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 23: mpmath's Hurwitz zeta stops at an absolute tolerance, "
        "so a zeta far below 1 keeps fewer digits than the reference is taken at",
    )
    for target, orders in (("hurwitz", (1, 3, 5, 10)), ("polygamma", (1, 3, 10, 30))):
        for order in orders:
            for x in ("55.5", "1000.3", "50000.3"):
                for precision in (34, 100):
                    marks = [loses_digits] if x in wrong.get((target, order), ()) else []
                    yield pytest.param(target, order, x, precision, marks=marks,
                                       id=f"{target}-{order}-x{x}-p{precision}")


@pytest.mark.parametrize("target, order, x, precision", _reference_cases())
def test_reference_is_right_to_its_digits(target, order, x, precision):
    # The printed reference against mpmath at the same x, read at the
    # evaluator's precision + 10 digits, and taken 60 digits past both the
    # precision and log10(1/|ref|).  ROADMAP item 23's grid also has m0 = 50
    # and x = 1e400, where log10(1/|ref|) runs to thousands of digits; with
    # them the grid did not finish in 600 s, so they stay out of this test.
    hurwitz = target == "hurwitz"
    report = (eval_hurwitz_expansion if hurwitz else eval_polygamma)(order, x, tp(4, precision))
    with mp.workdps(precision + 10):
        xm = mp.mpf(x)
    small = max(0, int(mp.ceil(-mp.log10(abs(report.reference)))))
    with mp.workdps(precision + 60 + small):
        if hurwitz:
            truth = mpmath.zeta(2 * order, xm + 1)
        else:
            sign = -1 if order % 2 == 0 else 1
            truth = sign * mpmath.factorial(order) * mpmath.zeta(order + 1, xm + 1)
        error = abs(report.reference - truth) / abs(truth)
    assert error <= mp.mpf(10) ** -(precision + 5), mp.nstr(error, 2)


def test_gamma_gives_no_bound_past_what_b_holds():
    # At x = 5 with 400 terms b = 1.5e+777 holds about 45 digits, so e^b - 1
    # is not known to any digit; at x = 2.5 with 24 terms b = 97.0 is.
    assert eval_gamma("5", tp(400)).first_omitted_term_bound == mp.inf
    bound = eval_gamma("2.5", tp(24)).first_omitted_term_bound
    assert mp.isfinite(bound) and mp.mpf("1.37e42") < bound < mp.mpf("1.38e42")


@pytest.mark.parametrize(
    "evaluate, relative",
    [
        (eval_digamma, False),
        (partial(eval_hurwitz_expansion, 1), False),
        (partial(eval_hurwitz_expansion, 3), False),
        (eval_gamma, True),
    ],
    ids=["digamma", "hurwitz-m0-1", "hurwitz-m0-3", "gamma"],
)
def test_asymptotic_bound_covers_the_error_on_a_grid(evaluate, relative):
    # At precision 200 rounding stays below every bound kept here, so each
    # case checks the truncation bound alone, before and past the least term.
    kept = 0
    for x in ("-0.45", "0.3", "2.5", "12"):
        if relative and x.startswith("-"):
            continue  # gamma requires x > 0
        for terms in (0, 1, 4, 11, 24, 39):
            report = evaluate(x, tp(terms, 200))
            bound = report.first_omitted_term_bound
            if bound <= mp.mpf("1e-180"):
                continue
            error = report.abs_error / abs(report.reference) if relative else report.abs_error
            assert error <= bound, (x, terms, error, bound)
            kept += 1
    assert kept, "every case fell below the cut"


def test_hurwitz_zero_terms_degenerates_to_p():
    # Zero terms leave the leading term p = 1 / ((2 m0 - 1) (x + 1/2)^(2 m0 - 1)) alone.
    report = eval_hurwitz_expansion(1, 0, tp(0))
    assert report.value == 2
    assert report.terms_used == 0


def test_p_term_known_points():
    # p is computed inline by Hurwitz; zero terms return it unchanged.
    with mp.workdps(50):
        for m0, x, leading in [(1, 0.5, 1), (2, 0.5, mp.mpf(1) / 3), (1, 4.5, mp.mpf("0.2"))]:
            value = eval_hurwitz_expansion(m0, x, tp(0)).value
            assert abs(value - leading) < mp.mpf(10) ** -40, (m0, x)


def test_p_term_domain():
    with pytest.raises(ValueError):
        eval_hurwitz_expansion(0, 1, tp(3))
    for x in (-0.5, -3, float("inf")):
        with pytest.raises(ValueError):
            eval_hurwitz_expansion(1, x, tp(3))


@pytest.mark.parametrize("x", [5, 10])
def test_truncation_discipline(x):
    # First-omitted-term accounting must stay honest across depths, for
    # every target; gamma's bound is relative.
    for n_terms in range(1, 7):
        for report in (
            eval_digamma(x, tp(n_terms)),
            eval_digamma(x + 0.5, tp(n_terms)),
            eval_hurwitz_expansion(1, x, tp(n_terms)),
            eval_polygamma(2, x, tp(n_terms)),
        ):
            assert report.abs_error <= 2 * report.first_omitted_term_bound, (x, n_terms)
        gamma = eval_gamma(x, tp(n_terms))
        assert gamma.abs_error / abs(gamma.reference) <= 2 * gamma.first_omitted_term_bound


def test_digamma_matches_harmonic_reference():
    report = eval_digamma(10, tp(5))
    with mp.workdps(40):
        expected = mp.fsum(mp.mpf(1) / k for k in range(1, 11)) - mpmath.euler
        assert abs(report.value - expected) < 1e-10
        assert abs(report.reference - expected) < mp.mpf(10) ** -38


def test_digamma_at_zero_weakly_asymptotic():
    report = eval_digamma(0, tp(8))
    assert report.abs_error <= report.first_omitted_term_bound


def test_digamma_large_argument_tight_bound():
    report = eval_digamma(100, tp(3))
    assert report.first_omitted_term_bound < 1e-18
    assert report.abs_error <= 2 * report.first_omitted_term_bound


def test_digamma_non_integer_reference():
    report = eval_digamma(2.5, tp(4))
    with mp.workdps(60):
        assert abs(report.reference - mpmath.psi(0, mp.mpf("3.5"))) <= mp.mpf(10) ** -40


def test_digamma_monotone_improvement():
    errors = [eval_digamma(10, tp(n)).abs_error for n in range(1, 6)]
    assert all(later <= earlier for earlier, later in zip(errors, errors[1:]))


def test_digamma_domain():
    with pytest.raises(ValueError):
        eval_digamma(-0.5, tp(3))
    with pytest.raises(ValueError):
        eval_digamma(float("inf"), tp(3))


def test_gamma_trivial_points_within_bound():
    for x, n_terms, expected in [(1.5, 5, 1), (0.5, 3, 1)]:
        report = eval_gamma(x, tp(n_terms))
        assert abs(report.value - expected) / expected <= report.first_omitted_term_bound


def test_gamma_half_integer_closed_form():
    report = eval_gamma(5, tp(5))
    with mp.workdps(40):
        closed = mp.mpf(945) / 32 * mp.sqrt(mpmath.pi)  # 9*7*5*3*1 / 2^5 * sqrt(pi)
        rel = abs(report.value - closed) / closed
    assert rel < 1e-10
    assert rel <= report.first_omitted_term_bound
    assert abs(report.reference - closed) < mp.mpf(10) ** -35


def test_gamma_bound_holds_past_forty_digits():
    # pi enters at working precision; a 40-digit pi would cap the error near 1e-41.
    report = eval_gamma(100, tp(20, 80))
    relative = report.abs_error / report.reference
    assert relative <= 2 * report.first_omitted_term_bound


def test_gamma_keeps_its_digits_at_large_x():
    # x ln x - x is near 7e31 at x = 1e30; at 44 digits its rounding alone
    # would leave a relative error near 1e-13.
    report = eval_gamma(1e30, tp(3))
    with mp.workdps(120):
        exact = mpmath.gamma(mp.mpf(1e30) + mp.mpf(1) / 2)
        relative = abs(report.value - exact) / exact
    assert relative <= mp.mpf(10) ** -34


def test_gamma_domain():
    with pytest.raises(ValueError):
        eval_gamma(0, tp(3))
    with pytest.raises(ValueError):
        eval_gamma(-2.5, tp(3))
    with pytest.raises(ValueError):
        eval_gamma(float("inf"), tp(3))
    with pytest.raises(ValueError):
        eval_gamma("nan", tp(3))


@pytest.mark.parametrize("y", [1, 2, 3])
@pytest.mark.parametrize("x", [4, 9, 19])
def test_polygamma_identity(y, x):
    report = eval_polygamma(y, x, tp(8))
    with mp.workdps(40):
        identity = (-1) ** (y - 1) * mpmath.factorial(y) * zeta_direct(y + 1, x + 1, 1e-36)
        assert abs(report.value - identity) <= 2 * report.first_omitted_term_bound


@pytest.mark.parametrize("y, x", [(2, 35.5), (2, 39.1), (3, 35.5), (3, 39.1)])
def test_polygamma_inner_sums_below_bound(y, x):
    # The bound here is 2e-38 to 3e-37, below an inner tolerance of 1e-36.
    report = eval_polygamma(y, x, tp(8))
    assert report.abs_error <= 2 * report.first_omitted_term_bound


def test_polygamma_spec_points():
    # psi^1(10) = zeta(2, 10), psi^2(10) = -2 zeta(3, 10), psi^3(5) = 6 zeta(4, 5)
    cases = [(1, 9, 8, 1), (2, 9, 8, -2), (3, 4, 10, 6)]
    for y, x, n_terms, scale in cases:
        report = eval_polygamma(y, x, tp(n_terms))
        with mp.workdps(40):
            expected = scale * zeta_direct(y + 1, x + 1, 1e-30)
            assert abs(report.value - expected) <= 2 * report.first_omitted_term_bound
            # reference and expected are two independent tail-bounded sums,
            # each within |scale| * 1e-30 of the true value
            assert abs(report.reference - expected) < mp.mpf(10) ** -28


def test_polygamma_reference_shares_no_code_with_its_value(monkeypatch):
    from bekernels import specfun

    before = eval_polygamma(2, 9, tp(8))
    original = specfun.zeta_direct
    monkeypatch.setattr(
        specfun, "zeta_direct", lambda s, q, tol: original(s, q, tol) * (1 + mp.mpf("1e-20"))
    )
    after = eval_polygamma(2, 9, tp(8))
    assert after.value != before.value  # the value does go through zeta_direct
    assert after.reference == before.reference


def test_references_read_no_zeta_direct(monkeypatch):
    def refuse(*args):
        raise AssertionError("this reference must not read zeta_direct")

    monkeypatch.setattr(specfun, "zeta_direct", refuse)
    for report in (eval_hurwitz_expansion(2, 9, tp(5)), eval_digamma(2.5, tp(4)), eval_gamma(5, tp(5))):
        assert isinstance(report.reference, mpmath.mpf) and isinstance(report.abs_error, mpmath.mpf)


def test_polygamma_domain():
    with pytest.raises(ValueError):
        eval_polygamma(0, 4, tp(3))
    with pytest.raises(ValueError):
        eval_polygamma(1, -0.6, tp(3))
    with pytest.raises(ValueError):
        eval_polygamma(1, float("inf"), tp(3))


def test_ln_pi_over_e_partial_sums():
    single = check_ln_pi_over_e(1)
    with mp.workdps(40):
        assert abs(single.value - zeta_direct(2, 1, 1e-30) / 24) < mp.mpf(10) ** -29
        assert abs(check_ln_pi_over_e(30).abs_error) <= 1e-15
        assert abs(check_ln_pi_over_e(60).abs_error) <= 1e-16
        reference = (mp.log(mpmath.pi) - 1) / 2
        assert abs(single.reference - reference) < mp.mpf(10) ** -38
    with pytest.raises(ValueError):
        check_ln_pi_over_e(0)
    for precision in (14, -20):  # the evaluators' floor, through TruncationParams
        with pytest.raises(ValueError, match="working_precision must be >= 15"):
            check_ln_pi_over_e(3, precision)


@pytest.mark.parametrize("precision", [15, 34, 100])
@pytest.mark.parametrize("terms", [1, 5, 20, 40, 60, 120])
def test_ln_pi_over_e_bound_covers_its_error(terms, precision):
    # At precision 34, 40 and 60 terms: error 3.99e-29 and 1.65e-41, bound
    # 4.05e-29 and 2.42e-41.
    report = check_ln_pi_over_e(terms, precision)
    assert report.abs_error <= report.first_omitted_term_bound
    if precision == 100 and terms <= 60:
        # The tail dominates here, so the bound must be close to the error.
        assert report.first_omitted_term_bound <= 1.5 * report.abs_error


def test_ln_pi_over_e_reports_are_pinned():
    # The five fields of 18 reports, each at 60 digits, pinned by their
    # sha256.  A change to how the series is summed, or to its inner zeta
    # sums' tolerance, must leave these as they were, or change this digest
    # on purpose.
    text = []
    for terms in (1, 5, 20, 40, 60, 120):
        for precision in (15, 34, 100):
            report = check_ln_pi_over_e(terms, precision)
            text.append(" ".join(mp.nstr(field, 60) for field in report) + "\n")
    digest = hashlib.sha256("".join(text).encode()).hexdigest()
    assert digest == "b43367062be42b806c76b19a082780c983bbf3611b0c80bca6dfdf9b26f77289"


def test_working_precision_is_respected():
    coarse = eval_digamma(10, tp(5, 15))
    fine = eval_digamma(10, tp(5, 34))
    assert abs(coarse.value - fine.value) < 1e-13  # same series, coarser rounding
    assert abs(fine.abs_error) < 1e-12


def test_inputs_accept_strings_and_fractions():
    as_float = eval_digamma(9.5, tp(4))
    as_string = eval_digamma("9.5", tp(4))
    as_fraction = eval_digamma(Fraction(19, 2), tp(4))
    assert as_float.value == as_string.value == as_fraction.value
    # A decimal that does not fit the working precision: each form rounds once.
    digits = "914.13111244349999305696769485340543994338538086"
    as_string = eval_digamma(digits, tp(4, 34))
    as_fraction = eval_digamma(Fraction(digits), tp(4, 34))
    assert as_string.value == as_fraction.value


@pytest.mark.parametrize(
    "evaluator",
    [eval_gamma, eval_digamma, partial(eval_hurwitz_expansion, 1)],
    ids=["gamma", "digamma", "hurwitz"],
)
def test_eval_fills_the_cold_table_with_one_reduction(evaluator, monkeypatch, gcd_calls):
    # One fill, by the first omitted term: a gcd per row for the growth of
    # P, one per a_n or g read and one for the K_b it returns.  A fill per
    # term would add a reduced K_b(n) for every n, 603 gcds in all.
    fresh = {kind: kernels.KernelCache(kind) for kind in kernels.KernelKind}
    monkeypatch.setattr(kernels, "_shared", fresh)
    evaluator(5, tp(200))
    assert gcd_calls[0] <= 2 * 201 + 1


@pytest.mark.parametrize(
    "evaluator",
    [eval_gamma, eval_digamma, partial(eval_hurwitz_expansion, 1)],
    ids=["gamma", "digamma", "hurwitz"],
)
def test_eval_fills_the_cold_table_once(evaluator, monkeypatch):
    # a_from_kb and g_closed read K_b(n) for n = 1..N+1; on a cold table,
    # one call per n would fill one row each, 201 fills in all.  The first
    # omitted term is taken first, so its read fills the table to N + 1.
    fresh = {kind: kernels.KernelCache(kind) for kind in kernels.KernelKind}
    monkeypatch.setattr(kernels, "_shared", fresh)
    table = kernels.shared_cache(kernels.KernelKind.BERNOULLI)
    right = kernels.kernel_recursive
    growing = []

    def counted(kind, n, cache=None):
        before = len(table)
        value = right(kind, n, cache)
        if len(table) > before:
            growing.append(n)
        return value

    monkeypatch.setattr(sequences, "kernel_recursive", counted)
    evaluator(5, tp(200))
    assert growing == [201]
