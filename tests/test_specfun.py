"""Truncated evaluators: domain checks, spec'd trivial points, error discipline."""

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
    p_term,
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


def test_p_term_known_points():
    with mp.workdps(50):
        assert p_term(1, 0.5) == 1
        assert abs(p_term(2, 0.5) - mp.mpf(1) / 3) < mp.mpf(10) ** -40
        assert abs(p_term(1, 4.5) - mp.mpf("0.2")) < mp.mpf(10) ** -40


def test_p_term_domain():
    with pytest.raises(ValueError):
        p_term(0, 1)
    with pytest.raises(ValueError):
        p_term(1, -0.5)
    with pytest.raises(ValueError):
        p_term(1, -3)
    with pytest.raises(ValueError):
        p_term(1, "inf")


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: s rounds at the working digits, and near s = 1 "
    "zeta' = -1/(s-1)^2 turns that rounding into error past tol",
)
def test_zeta_direct_meets_tolerance_near_one():
    value = zeta_direct("1.000000000001", 1, "1e-56")  # 1.7e-56 off
    with mp.workdps(150):
        assert abs(value - mpmath.zeta(mp.mpf("1.000000000001"), 1)) <= mp.mpf("1e-56")


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
    with pytest.raises(ValueError):
        zeta_direct(2, 1, 0.0)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the bound covers truncation, not rounding")
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: eval_hurwitz_expansion(1, "1e400", tp(3)),  # error 8.1e-446, bound 3.3e-3602
        lambda: eval_polygamma(1, 20, tp(60)),  # error 4.7e-47, bound 2.1e-201
    ],
    ids=["hurwitz-x1e400-terms3", "polygamma-y1-x20-terms60"],
)
def test_report_bound_covers_the_rounding_floor(evaluate):
    report = evaluate()
    assert report.abs_error <= 2 * report.first_omitted_term_bound


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: near x = -1/2 the terms shrink by only about 0.96 per step, "
    "so the tail is about 26 first omitted terms, not one",
)
def test_report_bound_covers_a_slowly_shrinking_tail():
    report = eval_polygamma(1, "-0.49", tp(60))  # error 8.84, bound 0.343
    assert report.abs_error <= 2 * report.first_omitted_term_bound


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: at order 10^6 three terms cancel almost none of the leading "
    "part, so the first omitted term bounds nothing",
)
def test_report_bound_covers_a_huge_order():
    report = eval_polygamma(10**6, "1", tp(3))  # error 4.6e+5389611, bound 1.8e+5264716
    assert report.abs_error <= 2 * report.first_omitted_term_bound


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: 400 terms run far past the smallest term at x = 5",
)
def test_gamma_report_bound_covers_terms_past_the_smallest():
    # The bound is 1.5e+777, and the value's decimal exponent has 774 digits.
    report = eval_gamma("5", tp(400))
    assert report.abs_error / abs(report.reference) <= 2 * report.first_omitted_term_bound


def test_hurwitz_zero_terms_degenerates_to_p():
    report = eval_hurwitz_expansion(1, 0, tp(0))
    assert report.value == 2
    assert report.terms_used == 0
    with pytest.raises(ValueError):
        eval_hurwitz_expansion(0, 1, tp(3))
    with pytest.raises(ValueError):
        eval_hurwitz_expansion(1, -0.5, tp(3))
    with pytest.raises(ValueError):
        eval_hurwitz_expansion(1, float("inf"), tp(3))


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the tail is about 4/3 of the first omitted term, and the inner "
    "sums are held to 10^-(wp+2) whatever the bound",
)
@pytest.mark.parametrize("terms", [40, 60])
def test_ln_pi_over_e_bound_covers_its_error(terms):
    report = check_ln_pi_over_e(terms, 34)  # error 3.99e-29 and 9.67e-39, bound 3.04e-29 and 1.25e-41
    assert report.abs_error <= report.first_omitted_term_bound


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


@pytest.mark.parametrize(
    "evaluator",
    [eval_gamma, eval_digamma, partial(eval_hurwitz_expansion, 1)],
    ids=["gamma", "digamma", "hurwitz"],
)
def test_eval_fills_the_cold_table_with_one_reduction(evaluator, monkeypatch, gcd_calls):
    # One fill up front: a gcd per row for the growth of P, one per a_n or
    # g read and one for the K_b it returns.  A fill per term would add a
    # reduced K_b(n) for every n, 603 gcds in all.
    fresh = {kind: kernels.KernelCache(kind) for kind in kernels.KernelKind}
    monkeypatch.setattr(kernels, "_shared", fresh)
    evaluator(5, tp(200))
    assert gcd_calls[0] <= 2 * 201 + 1


def test_hurwitz_fills_the_cold_table_once(monkeypatch):
    # g_closed reads K_b(z) for z = 1..N+1; on a cold table, one call per z
    # would fill one row each, 201 fills in all.
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
    monkeypatch.setattr(specfun, "kernel_recursive", counted)
    eval_hurwitz_expansion(1, 5, tp(200))
    assert growing == [201]
