"""Derived sequences: f, j, g (two routes), a (three routes), B, E, Faulhaber."""

import hashlib
import math
from fractions import Fraction
from itertools import islice

import pytest

from bekernels.compositions import compositions
from bekernels.exactnum import format_rational
from bekernels.kernels import KernelCache, KernelKind, kernel_recursive
from bekernels.oracles import bernoulli_even, bernoulli_evens, euler_evens
from bekernels.sequences import (
    a_from_bernoulli_rows,
    a_from_kb,
    a_recursive,
    a_recursive_rows,
    bernoulli,
    beta_even,
    euler,
    f_of,
    faulhaber_check,
    g_bruteforce,
    g_closed,
    j_of,
)
import bekernels.sequences as sequences_module


def test_f_of_values():
    assert f_of(1) == Fraction(1, 24)
    assert f_of(2) == Fraction(1, 320)
    assert f_of(3) == Fraction(1, 2688)
    with pytest.raises(ValueError):
        f_of(0)


def test_j_of_values():
    # All three confirmed by the factorial arithmetic inside g_bruteforce.
    assert j_of(1, 1) == Fraction(-1, 4)
    assert j_of(1, 2) == Fraction(-1, 16)
    assert j_of(2, 1) == Fraction(-5, 6)
    with pytest.raises(ValueError):
        j_of(0, 1)
    with pytest.raises(ValueError):
        j_of(1, 0)


def test_j_always_negative():
    assert all(j_of(a, b) < 0 for a in range(1, 9) for b in range(1, 9))


def test_g_closed_values():
    assert g_closed(1, 1) == Fraction(-1, 4)
    assert g_closed(1, 2) == Fraction(-5, 6)
    assert g_closed(2, 1) == Fraction(7, 48)
    with pytest.raises(ValueError):
        g_closed(0, 1)
    with pytest.raises(ValueError):
        g_closed(1, 0)


def test_j_of_is_the_factorial_ratio():
    for a in range(1, 31):
        for b in range(1, 31):
            expected = -Fraction(
                math.factorial(2 * a + 2 * b - 1),
                4**b * math.factorial(2 * b + 1) * math.factorial(2 * a - 1),
            )
            assert j_of(a, b) == expected, (a, b)


def test_g_closed_is_the_factorial_definition():
    # g = (2n-1)! / (B(2n, 2m0) 4^n) K_b(n), read from a filled cache.
    cache = KernelCache(KernelKind.BERNOULLI)
    kernel_recursive(KernelKind.BERNOULLI, 30, cache)
    for n in range(1, 31):
        kernel = cache.get(n)
        for m0 in range(1, 41):
            expected = math.factorial(2 * n - 1) / (beta_even(n, m0) * 4**n) * kernel
            assert g_closed(n, m0, cache) == expected, (n, m0)


def test_g_bruteforce_values():
    assert g_bruteforce(1, 1) == Fraction(-1, 4)
    # j(1,1)*j(2,1) + j(1,2) = 5/24 - 1/16
    assert g_bruteforce(2, 1) == Fraction(7, 48)
    assert g_bruteforce(3, 2) == g_closed(3, 2)


def test_g_routes_agree():
    for n in range(1, 11):
        for m0 in range(1, 6):
            assert g_closed(n, m0) == g_bruteforce(n, m0), (n, m0)


def test_g_bruteforce_visits_each_prefix_once(monkeypatch):
    # One exact step per composition prefix: 2**n - 1 of them for n.  A
    # per-composition product makes (n+1) 2**(n-2); a memoized suffix sum
    # O(n**2).
    steps = [0]

    def counted(x, y):
        steps[0] += 1
        return divmod(x, y)

    monkeypatch.setattr(sequences_module, "divmod", counted, raising=False)
    assert g_bruteforce(10, 3) == g_closed(10, 3)
    assert steps[0] == 2**10 - 1


def test_g_bruteforce_reduces_once(gcd_calls):
    # The walk keeps the product as an integer over a common denominator:
    # one reduction per j of its table (10 * 11 / 2 for n = 10) and one for
    # the sum, none per prefix.
    value = g_bruteforce(10, 3)
    assert gcd_calls[0] == 10 * 11 // 2 + 1
    assert value == g_closed(10, 3)


def test_g_bruteforce_is_the_literal_sum():
    # The walk, checked against one product of j factors per composition.
    for n in range(1, 11):
        for m0 in range(1, 4):
            literal = Fraction(0)
            for parts in compositions(n):
                a, product = m0, Fraction(1)
                for b in parts:
                    product *= j_of(a, b)
                    a += b
                literal += product
            assert g_bruteforce(n, m0) == literal, (n, m0)


def test_g_bruteforce_rejects_an_inexact_step(monkeypatch):
    # A j factor whose denominator D does not absorb must not be rounded away.
    monkeypatch.setattr(sequences_module, "j_of", lambda a, b: Fraction(-1, 7**50))
    with pytest.raises(ArithmeticError):
        g_bruteforce(2, 1)


def test_a_from_kb_values():
    assert a_from_kb(1) == Fraction(1, 24)
    assert a_from_kb(2) == Fraction(-7, 960)
    assert a_from_kb(3) == Fraction(31, 8064)


def test_a_recursive_values():
    assert a_recursive(1) == Fraction(1, 24)
    # f(2) - C(3,2)/(4*3) * a_1
    assert a_recursive(2) == Fraction(1, 320) - Fraction(3, 12) * Fraction(1, 24)
    assert a_recursive(5) == a_from_kb(5)


def test_a_recursive_is_item_n_of_its_rows():
    rows = list(islice(a_recursive_rows(), 25))
    assert a_recursive(25) == rows[24]
    assert a_recursive(12) == rows[11] == a_from_kb(12)


def test_a_recursive_reduces_once_per_row(gcd_calls):
    value = list(islice(a_recursive_rows(), 40))[-1]
    assert gcd_calls[0] <= 4 * 40
    assert value == a_from_kb(40, KernelCache(KernelKind.BERNOULLI))


def test_a_recursive_grown_in_uneven_steps():
    # L grows at many rows on the way to 120, and every kept term must grow
    # with it, or the rows after a growth come out wrong.
    cache = KernelCache(KernelKind.BERNOULLI)
    assert list(islice(a_recursive_rows(), 120)) == [a_from_kb(n, cache) for n in range(1, 121)]


def test_a_from_bernoulli_reduces_once(gcd_calls):
    # The oracle makes one Fraction per value, the scaling one more.
    values = list(islice(a_from_bernoulli_rows(), 200))
    assert gcd_calls[0] <= 2 * 200
    cache = KernelCache(KernelKind.BERNOULLI)
    assert values == [a_from_kb(n, cache) for n in range(1, 201)]


def test_a_triple_consistency():
    for n, from_bernoulli in zip(range(1, 26), a_from_bernoulli_rows()):
        from_kb = a_from_kb(n)
        assert from_kb == a_recursive(n), n
        assert from_kb == from_bernoulli, n
        assert from_kb == bernoulli_even(n) * (1 - Fraction(1, 2 ** (2 * n - 1))) / (2 * n), n


def test_beta_even_known_values():
    assert beta_even(1, 1) == Fraction(1, 6)
    assert beta_even(1, 2) == Fraction(1, 20)
    assert beta_even(2, 1) == Fraction(1, 20)


def test_beta_even_rejects_zero_arguments():
    with pytest.raises(ValueError):
        beta_even(0, 1)
    with pytest.raises(ValueError):
        beta_even(1, 0)


def test_beta_even_symmetry():
    for n in range(1, 21):
        for m in range(1, 21):
            assert beta_even(n, m) == beta_even(m, n)


def test_beta_relation_m0_independent():
    for n in range(1, 11):
        scaled = {-beta_even(n, m0) * g_closed(n, m0) for m0 in range(1, 6)}
        assert scaled == {a_from_kb(n)}, n


def test_bernoulli_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(0)


def test_bernoulli_matches_oracle():
    cache = KernelCache(KernelKind.BERNOULLI)
    for n, oracle in zip(range(1, 151), islice(bernoulli_evens(), 1, None)):
        assert bernoulli(n, cache) == oracle, n


def test_euler_values():
    assert euler(1) == -1
    assert euler(2) == 5
    assert euler(4) == 1385
    with pytest.raises(ValueError):
        euler(0)


def test_euler_matches_oracle_and_is_integer():
    cache = KernelCache(KernelKind.EULER)
    for n, oracle in zip(range(1, 401), islice(euler_evens(), 1, None)):
        value = euler(n, cache)
        assert value.denominator == 1, n
        assert value == oracle, n


SCALINGS = [(bernoulli, KernelKind.BERNOULLI), (euler, KernelKind.EULER), (a_from_kb, KernelKind.BERNOULLI)]


def test_scalings_are_pinned():
    # sha256 of "name k p/q" lines for k = 1..400, each scaling reading its
    # own filled cache: a change to how B, E and a are scaled from the
    # kernel must leave every byte of their values as it is.
    digest = hashlib.sha256()
    for scaling, kind in SCALINGS:
        cache = KernelCache(kind)
        kernel_recursive(kind, 400, cache)
        for k in range(1, 401):
            digest.update(f"{scaling.__name__} {k} {format_rational(scaling(k, cache))}\n".encode())
    assert digest.hexdigest() == "63a88184a1faa470d51d86d978bed78b91c29ed06a16c265377f937a280d5f04"


@pytest.mark.parametrize("scaling, kind", SCALINGS, ids=[s.__name__ for s, _ in SCALINGS])
def test_fill_and_scaling_reduce_once_per_value(scaling, kind, gcd_calls):
    # The fill reduces only the K(200) it returns, and the kind b fill takes
    # one gcd per row for the growth of P.  E_2n is the fill's own integer;
    # B_2n and a_n cost one reduction each.
    cache = KernelCache(kind)
    kernel_recursive(kind, 200, cache)
    for k in range(1, 201):
        scaling(k, cache)
    assert gcd_calls[0] <= (2 if kind is KernelKind.EULER else 2 * 200 + 1)


@pytest.mark.parametrize("scaling, kind", SCALINGS, ids=[s.__name__ for s, _ in SCALINGS])
def test_scaling_rejects_a_cache_of_the_other_kind(scaling, kind):
    other = KernelCache(KernelKind.EULER if kind is KernelKind.BERNOULLI else KernelKind.BERNOULLI)
    kernel_recursive(other.kind, 5, other)
    with pytest.raises(ValueError, match="kind"):
        scaling(3, other)


def test_faulhaber_examples():
    assert faulhaber_check(5, 1)
    assert faulhaber_check(10, 4)
    assert faulhaber_check(20, 10)
    with pytest.raises(ValueError):
        faulhaber_check(1, 3)
    with pytest.raises(ValueError):
        faulhaber_check(5, 0)


def test_faulhaber_full_grid():
    cache = KernelCache(KernelKind.BERNOULLI)
    assert all(
        faulhaber_check(n, r, cache) for n in range(2, 21) for r in range(1, 13)
    )


def test_faulhaber_terms_for_every_r_to_20():
    # Both sides are polynomials in n of degree r + 1, so agreeing at the
    # r + 2 points n = 2..r+3 pins every term B_k C(r+1, k) n^(r-k+1) / (r+1)
    # to the factorial form B_k r! n^(r-k+1) / (k! (r-k+1)!).
    cache = KernelCache(KernelKind.BERNOULLI)
    for r in range(1, 21):
        assert all(faulhaber_check(n, r, cache) for n in range(2, r + 4)), r
