"""Composition enumeration: order contract, counts, streaming behavior."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bekernels.compositions import compositions


def test_order_golden_n3():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_single_part():
    assert list(compositions(1)) == [(1,)]


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        compositions(0)


@given(st.integers(1, 14))
def test_stream_properties(n):
    seen = list(compositions(n))
    assert len(seen) == 2 ** (n - 1)
    assert all(sum(parts) == n for parts in seen)
    assert all(min(parts) >= 1 for parts in seen)
    assert len(set(seen)) == len(seen)


@given(st.integers(1, 12))
def test_order_stable_across_runs(n):
    assert list(compositions(n)) == list(compositions(n))


def test_is_streaming_not_materialized():
    # 2**4999 tuples, and deeper than the recursion limit: only a stream
    # that builds each tuple from the one before it can start.
    stream = compositions(5000)
    assert next(stream) == (1,) * 5000
    assert next(stream) == (1,) * 4998 + (2,)


@pytest.mark.parametrize("n", range(1, 13))
def test_order_is_lexicographic(n):
    # Independent oracle: one composition per set of cut points in 1..n-1.
    expected = []
    for size in range(n):
        for cuts in itertools.combinations(range(1, n), size):
            bounds = (0,) + cuts + (n,)
            expected.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    assert list(compositions(n)) == sorted(expected)
