"""Exact rational layer: factorial, beta at even arguments, p/q text."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bekernels.exactnum import beta_even, factorial, format_rational, parse_rational


def test_factorial_known_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(21) == 51090942171709440000


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorial_matches_repeated_multiplication():
    running = 1
    for m in range(1, 30):
        running *= m
        assert factorial(m) == running


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


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_canonical_form(p, q):
    value = Fraction(p, q)
    assert value.denominator >= 1
    import math

    assert math.gcd(abs(value.numerator), value.denominator) == 1
    if value == 0:
        assert value.numerator == 0 and value.denominator == 1


_SMALL_FRACTIONS = st.fractions(
    min_value=-(10**4), max_value=10**4, max_denominator=10**4
)


@given(_SMALL_FRACTIONS, _SMALL_FRACTIONS, _SMALL_FRACTIONS)
def test_field_axioms_spot_check(a, b, c):
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1
    assert a * (b + c) == a * b + a * c


def test_format_rational():
    assert format_rational(Fraction(-1, 6)) == "-1/6"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"


@given(st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9))
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_parse_rational_accepts_signed_and_spaced():
    assert parse_rational(" -7/360 ") == Fraction(-7, 360)
    assert parse_rational("+3") == 3


@pytest.mark.parametrize("bad", ["", "abc", "1.5", "1/2/3", "1/0", "--1", "1/-2"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
