"""The reference generators themselves, pinned to published values."""

import threading
from fractions import Fraction

import pytest

from bekernels.oracles import bernoulli_even, bernoulli_numbers, euler_even, zigzag_numbers
import bekernels.oracles as oracles_module


def test_bernoulli_low_values_plus_convention():
    values = bernoulli_numbers(12)
    assert values[0] == 1
    assert values[1] == Fraction(1, 2)  # Akiyama-Tanigawa convention
    assert values[2] == Fraction(1, 6)
    assert values[3] == 0
    assert values[4] == Fraction(-1, 30)
    assert values[6] == Fraction(1, 42)
    assert values[8] == Fraction(-1, 30)
    assert values[10] == Fraction(5, 66)
    assert values[12] == Fraction(-691, 2730)


def test_odd_bernoulli_vanish_beyond_one():
    values = bernoulli_numbers(31)
    assert all(values[k] == 0 for k in range(3, 32, 2))


def test_bernoulli_triangle_reduces_once_per_row(monkeypatch, gcd_calls):
    # The triangle stays in integers over lcm(1..m+1); one Fraction per row.
    expected = bernoulli_numbers(80)
    monkeypatch.setattr(oracles_module, "_at_row", [])
    monkeypatch.setattr(oracles_module, "_at_lcm", 1)
    monkeypatch.setattr(oracles_module, "_at_done", [])
    gcd_calls[0] = 0
    assert bernoulli_numbers(80) == expected
    assert gcd_calls[0] <= 4 * 81


def test_zigzag_sequence():
    assert zigzag_numbers(8) == [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_euler_even_secant_signs():
    assert [euler_even(n) for n in range(5)] == [1, -1, 5, -61, 1385]


def test_rejects_negative():
    for fn in (bernoulli_numbers, zigzag_numbers, bernoulli_even, euler_even):
        with pytest.raises(ValueError):
            fn(-1)


def test_incremental_extension_consistent():
    head = bernoulli_numbers(6)
    full = bernoulli_numbers(20)
    assert full[:7] == head
    assert zigzag_numbers(12)[:5] == zigzag_numbers(4)


def test_concurrent_growth_is_safe():
    results = {}

    def worker(upto):
        results[upto] = bernoulli_numbers(upto)[upto]

    threads = [threading.Thread(target=worker, args=(40 + i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = bernoulli_numbers(47)
    assert results == {40 + i: expected[40 + i] for i in range(8)}
