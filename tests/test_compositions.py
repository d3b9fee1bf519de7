"""Composition enumeration: order contract, counts, streaming behavior."""

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
    stream = compositions(30)
    first = next(stream)
    assert first == tuple([1] * 30)
