"""Kernel values by three routes, the prefix cache, persistence."""

import hashlib
import io
import os
import sys
import threading
import warnings
from fractions import Fraction

import pytest

from bekernels.kernels import (
    BRUTE_FORCE_SOFT_LIMIT,
    KernelCache,
    KernelKind,
    kernel_compositions,
    kernel_determinant,
    kernel_recursive,
    read_cache_file,
    write_cache_file,
)
from bekernels.exactnum import format_rational
import bekernels.kernels as kernels_module

B = KernelKind.BERNOULLI
E = KernelKind.EULER

# Snapshot of the first Bernoulli-kind values; every route must hit these.
KB_TABLE = [
    Fraction(-1, 6),
    Fraction(7, 360),
    Fraction(-31, 15120),
    Fraction(127, 604800),
    Fraction(-73, 3421440),
    Fraction(1414477, 653837184000),
]


def test_weight_denominators():
    assert B.weight_denominator(1) == 6
    assert E.weight_denominator(1) == 2
    assert B.weight(2) == Fraction(1, 120)
    assert E.weight(2) == Fraction(1, 24)
    with pytest.raises(ValueError):
        B.weight_denominator(0)


def test_recursive_known_values():
    assert kernel_recursive(B, 0) == 1
    assert kernel_recursive(B, 2) == Fraction(7, 360)
    assert kernel_recursive(B, 6) == Fraction(1414477, 653837184000)
    assert kernel_recursive(E, 1) == Fraction(-1, 2)
    assert kernel_recursive(E, 2) == Fraction(5, 24)
    assert [kernel_recursive(B, n) for n in range(1, 7)] == KB_TABLE


def test_compositions_known_values():
    assert kernel_compositions(B, 1) == Fraction(-1, 6)
    assert kernel_compositions(B, 3) == Fraction(-31, 15120)
    assert kernel_compositions(E, 3) == Fraction(-61, 720)


def test_determinant_known_values():
    assert kernel_determinant(E, 1) == Fraction(-1, 2)
    assert kernel_determinant(E, 2) == Fraction(5, 24)  # 1/4 - 1/24
    assert kernel_determinant(B, 4) == Fraction(127, 604800)


@pytest.mark.parametrize("kind", [B, E])
def test_composition_sum_visits_each_prefix_once(monkeypatch, kind):
    # One weight per composition prefix: 2**n - 1 of them for n.  A
    # per-composition product makes (n+1) 2**(n-2); a memoized suffix sum
    # O(n**2).
    calls = []
    right = KernelKind.weight_denominator

    def counted(self, b):
        calls.append(b)
        return right(self, b)

    monkeypatch.setattr(KernelKind, "weight_denominator", counted)
    value = kernel_compositions(kind, 10)
    assert len(calls) == 2**10 - 1
    assert value == kernel_recursive(kind, 10, KernelCache(kind))


@pytest.mark.parametrize("kind", [B, E])
def test_three_way_agreement(kind):
    cache = KernelCache(kind)
    for n in range(1, 15):
        recursive = kernel_recursive(kind, n, cache)
        assert recursive == kernel_compositions(kind, n), n
        assert recursive == kernel_determinant(kind, n), n


@pytest.mark.parametrize("kind", [B, E])
def test_recursion_vs_determinant_deep(kind):
    cache = KernelCache(kind)
    for n in range(15, 61):
        assert kernel_recursive(kind, n, cache) == kernel_determinant(kind, n), n


@pytest.mark.parametrize("kind", [B, E])
def test_sign_alternation(kind):
    cache = KernelCache(kind)
    for n in range(1, 31):
        value = kernel_recursive(kind, n, cache)
        assert (value > 0) == (n % 2 == 0), n


def test_reciprocal_identity():
    # Restates the defining recursions as a vanishing convolution.
    cache_b = KernelCache(B)
    cache_e = KernelCache(E)
    from bekernels.exactnum import factorial

    for n in range(1, 31):
        total_e = sum(
            kernel_recursive(E, k, cache_e) / factorial(2 * (n - k)) for k in range(n + 1)
        )
        assert total_e == 0, n
        total_b = kernel_recursive(B, n, cache_b) + sum(
            kernel_recursive(B, k, cache_b) / factorial(2 * (n - k) + 1) for k in range(n)
        )
        assert total_b == 0, n


def _hessenberg_matrix(kind, n):
    # The explicit matrix the determinant route is defined against:
    # unit superdiagonal, weight(i - j + 1) at and below the diagonal.
    return [
        [
            kind.weight(i - j + 1)
            if j <= i
            else (Fraction(1) if j == i + 1 else Fraction(0))
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]


def _det_by_gaussian_elimination(matrix):
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


@pytest.mark.parametrize("kind", [B, E])
def test_determinant_matches_explicit_matrix(kind):
    # Independent route: build H_n explicitly and eliminate; the minor
    # recurrence inside kernel_determinant never sees this code.
    for n in range(1, 11):
        det = _det_by_gaussian_elimination(_hessenberg_matrix(kind, n))
        expected = det if n % 2 == 0 else -det
        assert kernel_determinant(kind, n) == expected, n


@pytest.mark.parametrize("kind", [B, E])
def test_determinant_keeps_its_minors(kind, monkeypatch):
    cache = KernelCache(kind)
    expected = [kernel_recursive(kind, n, cache) for n in range(1, 61)]
    kernel_determinant(kind, 60)
    # Minors up to 60 are kept, so asking again builds no weight.
    monkeypatch.setattr(KernelKind, "weight_denominator", None)
    assert [kernel_determinant(kind, n) for n in range(1, 61)] == expected


@pytest.mark.parametrize("kind", [B, E])
def test_determinant_reduces_once_per_minor(kind, monkeypatch, gcd_calls):
    # The minors stay integers; one Fraction per new minor.  A Fraction
    # sum per matrix entry makes thousands of gcds by n = 40.
    monkeypatch.setattr(kernels_module, "_det_rows", {})
    value = kernel_determinant(kind, 40)
    assert gcd_calls[0] <= 4 * 40
    assert value == kernel_recursive(kind, 40, KernelCache(kind))


def test_concurrent_determinant(monkeypatch):
    monkeypatch.setattr(kernels_module, "_det_rows", {})
    outcomes = []

    def worker(n):
        outcomes.append(kernel_determinant(B, n))

    # Threads ask for different indices so fills overlap at the frontier.
    threads = [threading.Thread(target=worker, args=(33 + i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    cache = KernelCache(B)
    assert sorted(outcomes) == sorted(kernel_recursive(B, 33 + i, cache) for i in range(8))


def test_domain_errors():
    with pytest.raises(ValueError):
        kernel_recursive(B, -1)
    with pytest.raises(ValueError):
        kernel_compositions(B, 0)
    with pytest.raises(ValueError):
        kernel_determinant(E, 0)


def test_brute_force_soft_limit_warns(monkeypatch):
    monkeypatch.setattr(kernels_module, "BRUTE_FORCE_SOFT_LIMIT", 4)
    with pytest.warns(UserWarning, match="2\\*\\*5"):
        value = kernel_compositions(B, 6)
    assert value == Fraction(1414477, 653837184000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel_compositions(B, 4)  # at the limit: no warning


def test_real_soft_limit_is_22():
    assert BRUTE_FORCE_SOFT_LIMIT == 22


def _loaded_cache(tmp_path, kind, values):
    """A cache loaded from a file holding K(0), K(1), ... = values."""
    path = tmp_path / "kernel.txt"
    path.write_text("".join(f"{n} {format_rational(v)}\n" for n, v in enumerate(values)))
    cache = KernelCache(kind)
    read_cache_file(path, cache)
    return cache


def test_cache_seeded_and_write_once():
    cache = KernelCache(B)
    assert cache.get(0) == 1
    assert 0 in cache and len(cache) == 1
    assert cache.get(-1) is None and -1 not in cache and 1 not in cache
    assert not hasattr(cache, "put")


def test_recursive_rejects_mismatched_cache():
    with pytest.raises(ValueError, match="kind"):
        kernel_recursive(B, 3, KernelCache(E))


def test_recursive_fills_cache_ascending():
    cache = KernelCache(E)
    kernel_recursive(E, 8, cache)
    assert sorted(n for n, _ in cache.items()) == list(range(9))
    # a second call is a pure lookup and must agree
    assert kernel_recursive(E, 5, cache) == kernel_determinant(E, 5)


@pytest.mark.parametrize("kind", [B, E])
def test_ascending_and_single_fill_agree(kind):
    ascending = KernelCache(kind)
    for n in range(1, 61):
        kernel_recursive(kind, n, ascending)
    single = KernelCache(kind)
    kernel_recursive(kind, 60, single)
    assert list(ascending.items()) == list(single.items())


def test_bernoulli_kind_where_odd_lcm_grows():
    # 2m+1 = 9, 25, 27, 49, 81, 121, 125 are the odd prime powers past the
    # primes themselves: the steps where the common factor P grows by a
    # prime it already holds.
    cache = KernelCache(B)
    for m in (4, 12, 13, 24, 40, 60, 62):
        assert kernel_recursive(B, m, cache) == kernel_determinant(B, m), m


@pytest.mark.parametrize("kind", [B, E])
def test_loaded_prefix_extends(kind, tmp_path):
    full = KernelCache(kind)
    kernel_recursive(kind, 45, full)
    loaded = _loaded_cache(tmp_path, kind, [value for n, value in full.items() if n <= 20])
    assert kernel_recursive(kind, 45, loaded) == kernel_determinant(kind, 45)
    assert list(loaded.items()) == list(full.items())


@pytest.mark.parametrize("kind", [B, E])
def test_non_integral_cached_value_rejected(kind, tmp_path):
    # K(3) with a denominator that no kernel value of index 3 can have.
    prefix = [Fraction(1)] + [kernel_determinant(kind, n) for n in (1, 2)]
    cache = _loaded_cache(tmp_path, kind, prefix + [Fraction(1, 7919)])
    assert kernel_recursive(kind, 2, cache) == kernel_determinant(kind, 2)
    _assert_fails_again(cache, 4, "not an integer")
    assert len(cache) == 4


def test_wrong_cached_value_caught_by_exact_division(tmp_path):
    # A wrong K(5) (the true one is -73/3421440) that is still integral in
    # scaled units; the division by 2m+1 = 15 at n=7 then leaves a remainder.
    # Row 6 is rebuilt from the loaded values and passes; row 7 is stepped.
    cache = _loaded_cache(tmp_path, B, [Fraction(1)] + KB_TABLE[:4] + [Fraction(-109, 5132160)])
    _assert_fails_again(cache, 7, "not divisible by 15")
    assert len(cache) == 7


def _assert_fails_again(cache, n, match):
    """A fill to n raises, and a second call raises the same message and adds nothing."""
    with pytest.raises(ValueError, match=match) as first:
        kernel_recursive(cache.kind, n, cache)
    length = len(cache)
    with pytest.raises(ValueError) as second:
        kernel_recursive(cache.kind, n, cache)
    assert str(second.value) == str(first.value)
    assert len(cache) == length


@pytest.mark.parametrize("kind", [B, E])
def test_takeover_across_odd_prime_powers(kind, tmp_path):
    # The prefix ends at n = 12 (2m+1 = 25), so the rebuilt row is n = 13
    # (2m+1 = 27): for kind b, P must already hold 25 and then grow by 3.
    fresh = KernelCache(kind)
    kernel_recursive(kind, 60, fresh)
    loaded = _loaded_cache(tmp_path, kind, [value for n, value in fresh.items() if n <= 12])
    kernel_recursive(kind, 60, loaded)
    assert list(loaded.items()) == list(fresh.items())


def test_fill_output_is_pinned():
    # sha256 of "kind n p/q" lines for both kinds to n = 400: a change to
    # the fill's arithmetic must leave every byte of its values as it is.
    digest = hashlib.sha256()
    for kind in (B, E):
        cache = KernelCache(kind)
        kernel_recursive(kind, 400, cache)
        for n, value in cache.items():
            digest.update(f"{kind.value} {n} {format_rational(value)}\n".encode())
    assert digest.hexdigest() == "00561245dc0ba9aafa21bd5aae73a26063ffafb09a56c40a6c64f37b8ee03b13"


@pytest.mark.parametrize("kind", [B, E])
def test_factorial_calls_grow_linearly(kind, monkeypatch):
    # Each new value costs O(m) integer steps and one factorial; a fill
    # that rebuilt weights per pair would call factorial O(n^2) times.
    calls = []
    original = kernels_module.factorial

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(kernels_module, "factorial", counting)
    counts = {}
    for upto in (50, 100):
        calls.clear()
        cache = KernelCache(kind)
        for n in range(1, upto + 1):
            kernel_recursive(kind, n, cache)
        counts[upto] = len(calls)
    assert counts[50] <= 50 and counts[100] <= 100  # at most one per new value


def test_concurrent_fill_single_write():
    cache = KernelCache(B)
    outcomes = []

    def worker(n):
        outcomes.append(kernel_recursive(B, n, cache))

    # Threads ask for different indices so fills overlap at the frontier.
    threads = [threading.Thread(target=worker, args=(33 + i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(outcomes) == sorted(kernel_determinant(B, 33 + i) for i in range(8))
    single = KernelCache(B)
    kernel_recursive(B, 40, single)
    assert list(cache.items()) == list(single.items())


def test_cache_file_round_trip(tmp_path):
    cache = KernelCache(B)
    kernel_recursive(B, 6, cache)
    path = tmp_path / "kernel_b.txt"
    write_cache_file(cache, path)
    text = path.read_text()
    assert text.splitlines()[0] == "0 1"
    assert "6 1414477/653837184000" in text
    reloaded = KernelCache(B)
    read_cache_file(path, reloaded)
    assert list(reloaded.items()) == list(cache.items())


def test_cache_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 not-a-number\n")
    cache = KernelCache(B)
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_cache_file(path, cache)
    assert len(cache) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 1\n2 7/360\n", 2),  # a gap
        ("0 1\n1 -1/6\n1 -1/6\n", 3),  # a repeated index
        ("0 1\n\n2 7/360\n1 -1/6\n", 3),  # out of order, after a blank line
        ("0 2\n1 -1/6\n", 1),  # a K(0) other than 1
        ("1 -1/6\n", 1),  # no line 0
        ("0 1\n1 -1/6\n2 7/36\u00e9\n", 3),  # a byte outside ASCII
    ],
    ids=["gap", "repeat", "order", "line0", "no-line0", "non-ascii"],
)
def test_cache_file_must_hold_a_prefix(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    cache = KernelCache(B)
    with pytest.raises(ValueError, match=f"bad.txt:{line}:"):
        read_cache_file(path, cache)
    assert len(cache) == 1


def test_cache_file_loads_only_into_a_fresh_cache(tmp_path):
    # A file cannot overwrite values a cache already holds.
    cache = KernelCache(B)
    kernel_recursive(B, 3, cache)
    path = tmp_path / "kernel_b.txt"
    path.write_text("0 1\n1 -1/7\n")
    with pytest.raises(ValueError, match="K\\(0\\) alone"):
        read_cache_file(path, cache)
    assert [value for _, value in cache.items()] == [1] + KB_TABLE[:3]


class _FailingWrite:
    """A text file whose first write stores half its text, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "kernel_b.txt"
    cache = KernelCache(B)
    kernel_recursive(B, 2, cache)
    write_cache_file(cache, path)
    before = path.read_text()
    kernel_recursive(B, 6, cache)
    real_open = io.open

    def open_then_fail(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return _FailingWrite(handle) if "r" not in mode else handle

    monkeypatch.setattr(io, "open", open_then_fail)
    with pytest.raises(OSError, match="No space"):
        write_cache_file(cache, path)
    monkeypatch.undo()
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["kernel_b.txt"]
