"""Acceptance gate: the thirteen criteria the package must meet.

Each test evaluates one criterion at its stated tolerance, prints a
one-line verdict, and records it for the terminal summary.  Failures are
real failures; nothing here loosens a threshold to pass.  Criteria 2-7
run entries of the check table through ``verify.run_checks``, the runner
``bekernels verify`` calls.
"""

import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import mpmath
from mpmath import mp

import conftest
from bekernels import verify
from bekernels.kernels import KernelCache, KernelKind
from bekernels.oracles import bernoulli_even
from bekernels.sequences import a_from_kb, faulhaber_check
from bekernels.specfun import (
    TruncationParams,
    check_ln_pi_over_e,
    eval_digamma,
    eval_gamma,
    eval_hurwitz_expansion,
    eval_polygamma,
    zeta_direct,
)

KB_TABLE_STRINGS = [
    "-1/6",
    "7/360",
    "-31/15120",
    "127/604800",
    "-73/3421440",
    "1414477/653837184000",
]


def _verdict(number, description, ok):
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {description}"
    conftest.ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def _table_passes(title_start, depth):
    """Run every verify check-table entry whose title starts with title_start, at depth."""
    entries = tuple(check for check in verify.CHECKS if check.title.startswith(title_start))
    assert entries, f"no check-table entry titled {title_start!r}"
    with mock.patch.object(verify, "CHECKS", entries):
        return all(problem is None for _, problem in verify.run_checks(depth, depth))


def test_criterion_01_reference_table_reproduction():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bekernels", "table", "--kind", "b", "--upto", "6"],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    values = [row.split("\t")[1] for row in proc.stdout.splitlines()]
    ok = proc.returncode == 0 and values == KB_TABLE_STRINGS and elapsed < 1.0
    _verdict(1, f"table --kind b --upto 6 exact strings in {elapsed:.2f}s", ok)


def test_criterion_02_three_way_agreement():
    start = time.perf_counter()
    ok = _table_passes("three-way kernel agreement", 12)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(2, f"recursion = compositions = determinant, n <= 12, in {elapsed:.1f}s", ok)


def test_criterion_03_bernoulli_oracle():
    ok = _table_passes("Bernoulli numbers vs tangent-number oracle", 30)
    _verdict(3, "bernoulli(n) = tangent-number oracle, n <= 30", ok)


def test_criterion_04_euler_oracle():
    ok = _table_passes("Euler numbers vs Seidel oracle", 30)
    _verdict(4, "euler(n) = Seidel oracle and integral, n <= 30", ok)


def test_criterion_05_coefficient_triple():
    ok = _table_passes("coefficient route agreement", 25)
    for n in range(1, 26):
        scaled = bernoulli_even(n) * (1 - Fraction(2) ** (1 - 2 * n)) / (2 * n)
        ok = ok and a_from_kb(n) == scaled
    _verdict(5, "a_from_kb = a_recursive = scaled Bernoulli form, n <= 25", ok)


def test_criterion_06_g_oracle_equivalence():
    ok = _table_passes("g closed form vs brute force", 10)
    _verdict(6, "g_closed = g_bruteforce, n <= 10, m0 <= 5", ok)


def test_criterion_07_m0_independence():
    ok = _table_passes("beta-scaled g independent of m0", 10)
    _verdict(7, "-beta_even(n, m0) * g_closed(n, m0) independent of m0, n <= 10", ok)


def test_criterion_08_hurwitz_accuracy():
    report = eval_hurwitz_expansion(1, 9, TruncationParams(5))
    reference = zeta_direct(2, 10, 1e-14)
    error = abs(report.value - reference)
    ok = error <= 2 * report.first_omitted_term_bound and error < 1e-10
    _verdict(8, f"hurwitz(m0=1, x=9, N=5) error {mp.nstr(error, 3)} within bounds", ok)


def test_criterion_09_digamma_accuracy():
    report = eval_digamma(10, TruncationParams(5))
    with mp.workdps(40):
        harmonic = mp.fsum(mp.mpf(1) / k for k in range(1, 11))
        error = abs(report.value - (harmonic - mpmath.euler))
    ok = error < 1e-10
    _verdict(9, f"digamma(x=10, N=5) error {mp.nstr(error, 3)} < 1e-10 vs H_10 - gamma", ok)


def test_criterion_10_gamma_accuracy():
    report = eval_gamma(5, TruncationParams(5))
    with mp.workdps(40):
        closed = mp.mpf(9 * 7 * 5 * 3 * 1) / 2**5 * mp.sqrt(mpmath.pi)
        relative = abs(report.value - closed) / closed
    ok = relative < 1e-10
    _verdict(10, f"gamma(x=5, N=5) relative error {mp.nstr(relative, 3)} < 1e-10", ok)


def test_criterion_11_ln_pi_over_e_identity():
    report = check_ln_pi_over_e(60)
    with mp.workdps(40):
        error = abs(report.value - (mp.log(mpmath.pi) - 1) / 2)
    ok = error < 1e-15
    _verdict(11, f"check_ln_pi_over_e(60) error {mp.nstr(error, 3)} < 1e-15", ok)


def test_criterion_12_polygamma_identity():
    ok = True
    details = []
    for y in (1, 2, 3):
        report = eval_polygamma(y, 9, TruncationParams(8))
        with mp.workdps(40):
            identity = (-1) ** (y - 1) * mpmath.factorial(y) * zeta_direct(y + 1, 10, 1e-36)
            error = abs(report.value - identity)
        ok = ok and error <= 2 * report.first_omitted_term_bound
        details.append(f"y={y}: {mp.nstr(error, 2)}")
    _verdict(12, "polygamma(y, x=9, N=8) vs (-1)^(y-1) y! zeta(y+1, 10): " + ", ".join(details), ok)


def test_criterion_13_faulhaber_property():
    cache = KernelCache(KernelKind.BERNOULLI)
    ok = all(faulhaber_check(n, r, cache) for n in range(2, 21) for r in range(1, 13))
    _verdict(13, "faulhaber_check(n, r) for 2 <= n <= 20, 1 <= r <= 12", ok)
