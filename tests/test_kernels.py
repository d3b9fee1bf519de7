"""Kernel values by three routes, the prefix cache, persistence."""

import hashlib
import io
import math
import os
import sys
import threading
from fractions import Fraction
from itertools import islice

import pytest

from bekernels.kernels import (
    KernelCache,
    KernelKind,
    determinant_rows,
    kernel_compositions,
    kernel_determinant,
    kernel_recursive,
    read_cache_file,
    write_cache_file,
)
from bekernels.compositions import compositions
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
    assert Fraction(1, B.weight_denominator(2)) == Fraction(1, 120)
    assert Fraction(1, E.weight_denominator(2)) == Fraction(1, 24)
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
    assert kernel_compositions(B, 6) == Fraction(1414477, 653837184000)


def test_determinant_known_values():
    assert kernel_determinant(E, 1) == Fraction(-1, 2)
    assert kernel_determinant(E, 2) == Fraction(5, 24)  # 1/4 - 1/24
    assert kernel_determinant(B, 4) == Fraction(127, 604800)


@pytest.mark.parametrize("kind", [B, E])
def test_composition_sum_visits_each_prefix_once(monkeypatch, kind):
    # One weight per tree node, that is per partition of each k <= n:
    # p(1) + ... + p(10) = 138 of them for n = 10.  A product per partition
    # of 10 makes 192, one per part; a suffix sum memoized by (what is
    # left, largest part allowed) makes 66.
    calls = []
    right = KernelKind.weight_denominator

    def counted(self, b):
        calls.append(b)
        return right(self, b)

    monkeypatch.setattr(KernelKind, "weight_denominator", counted)
    value = kernel_compositions(kind, 10)
    assert len(calls) == 138  # p(1) + ... + p(10)
    assert value == kernel_recursive(kind, 10, KernelCache(kind))


@pytest.mark.parametrize("kind", [B, E])
def test_three_way_agreement(kind):
    cache = KernelCache(kind)
    for n, determinant in zip(range(1, 15), islice(determinant_rows(kind), 1, None)):
        recursive = kernel_recursive(kind, n, cache)
        assert recursive == kernel_compositions(kind, n), n
        assert recursive == determinant, n


@pytest.mark.parametrize("kind", [B, E])
def test_composition_sum_equals_the_literal_sum(kind):
    # The grouping by partition, checked against one term per composition.
    for n in range(1, 13):
        literal = sum(
            Fraction((-1) ** len(parts), math.prod(map(kind.weight_denominator, parts)))
            for parts in compositions(n)
        )
        assert kernel_compositions(kind, n) == literal, n


@pytest.mark.parametrize("kind", [B, E])
def test_composition_sum_deep(kind):
    cache = KernelCache(kind)
    for n in range(1, 41):
        assert kernel_compositions(kind, n) == kernel_recursive(kind, n, cache), n


@pytest.mark.parametrize("kind", [B, E])
def test_recursion_vs_determinant_deep(kind):
    cache = KernelCache(kind)
    for n, determinant in zip(range(15, 61), islice(determinant_rows(kind), 15, None)):
        assert kernel_recursive(kind, n, cache) == determinant, n


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
            Fraction(1, kind.weight_denominator(i - j + 1))
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
def test_determinant_is_item_n_of_its_rows(kind):
    cache = KernelCache(kind)
    expected = [kernel_recursive(kind, n, cache) for n in range(1, 61)]
    assert [kernel_determinant(kind, n) for n in range(1, 61)] == expected
    assert list(islice(determinant_rows(kind), 61)) == [1, *expected]


@pytest.mark.parametrize("kind", [B, E])
def test_determinant_reduces_once_per_minor(kind, gcd_calls):
    # The minors stay integers; one Fraction per row.  A Fraction sum per
    # matrix entry makes thousands of gcds by n = 40.
    rows = list(islice(determinant_rows(kind), 41))
    assert gcd_calls[0] <= 4 * 40
    assert rows[40] == kernel_recursive(kind, 40, KernelCache(kind))


@pytest.mark.parametrize("kind", [B, E])
def test_stopped_fill_leaves_its_cache_consistent(kind, stop_sweep):
    # The chains leave the cache while they are stepped, so this already held.
    expected = list(islice(determinant_rows(kind), 1, 16))
    cache = [KernelCache(kind)]

    def reset():
        cache[0] = KernelCache(kind)
        kernel_recursive(kind, 3, cache[0])

    def check():
        assert [kernel_recursive(kind, n, cache[0]) for n in range(1, 16)] == expected

    assert stop_sweep(kernels_module, reset, lambda: kernel_recursive(kind, 12, cache[0]), check)


def test_domain_errors():
    with pytest.raises(ValueError):
        kernel_recursive(B, -1)
    with pytest.raises(ValueError):
        kernel_compositions(B, 0)
    with pytest.raises(ValueError):
        kernel_determinant(E, 0)


def _scaled_values(source, upto):
    """V(0..upto) of a filled cache, as ``scaled`` holds them."""
    return [source.scaled(n)[0] for n in range(upto + 1)]


def _cache_text(values):
    """The ``n V`` lines of a file holding V(0), V(1), ... = values, in hex."""
    return "".join(f"{n} {v:x}\n" for n, v in enumerate(values))


def _loaded_cache(tmp_path, kind, values):
    """A cache loaded from a file holding V(0), V(1), ... = values."""
    path = tmp_path / "kernel.txt"
    path.write_text(_cache_text(values))
    cache = KernelCache(kind)
    read_cache_file(path, cache)
    return cache


def test_cache_seeded_and_write_once():
    cache = KernelCache(B)
    assert cache.get(0) == 1
    assert 0 in cache and len(cache) == 1
    assert cache.get(-1) is None and -1 not in cache and 1 not in cache
    assert not hasattr(cache, "put")


@pytest.mark.parametrize("kind", [B, E])
def test_scaled_holds_the_fill_integers(kind):
    # K(n) = V / (P (2n)!), with P the lcm of the odd numbers up to 2n+1
    # for kind b and 1 for kind e.
    cache = KernelCache(kind)
    kernel_recursive(kind, 30, cache)
    odd_lcm = 1
    for n, expected in zip(range(31), determinant_rows(kind)):
        if kind is B and n:
            odd_lcm = odd_lcm * (2 * n + 1) // math.gcd(odd_lcm, 2 * n + 1)
        scaled, unit = cache.scaled(n)
        assert unit == odd_lcm
        assert cache.get(n) == Fraction(scaled, unit * math.factorial(2 * n)) == expected
    with pytest.raises(IndexError):
        cache.scaled(31)


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


@pytest.mark.parametrize("kind", [B, E])
def test_items_step_matches_get(kind, tmp_path):
    # items() steps (2n)! along the rows, get(n) computes it afresh: the two
    # must agree on a cache filled at once, one row per call, and from a file.
    at_once = KernelCache(kind)
    kernel_recursive(kind, 200, at_once)
    row_by_row = KernelCache(kind)
    for n in range(1, 201):
        kernel_recursive(kind, n, row_by_row)
    path = tmp_path / "kernel.txt"
    write_cache_file(at_once, path)
    loaded = KernelCache(kind)
    read_cache_file(path, loaded)
    for cache in (at_once, row_by_row, loaded):
        assert len(cache) == 201
        assert list(cache.items()) == [(n, cache.get(n)) for n in range(len(cache))]


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
    loaded = _loaded_cache(tmp_path, kind, _scaled_values(full, 20))
    assert kernel_recursive(kind, 45, loaded) == kernel_determinant(kind, 45)
    assert list(loaded.items()) == list(full.items())


@pytest.mark.parametrize("kind", [B, E])
def test_non_integral_cached_value_rejected(kind, tmp_path):
    # K(3) = 1/7919 after a valid prefix: a line holds V, an integer, so the
    # load itself refuses the file, on that value's line, and loads nothing.
    source = KernelCache(kind)
    kernel_recursive(kind, 2, source)
    path = tmp_path / "kernel.txt"
    path.write_text(_cache_text(_scaled_values(source, 2)) + "3 1/7919\n")
    cache = KernelCache(kind)
    with pytest.raises(ValueError, match="kernel.txt:4: bad cache line .* in hex"):
        read_cache_file(path, cache)
    assert list(cache.items()) == [(0, 1)]


def test_wrong_cached_value_caught_by_exact_division(tmp_path):
    # A wrong V(5) = -267050 (the true one is -268275, K(5) = -73/3421440).
    # Rows 6 and 7 read only rows 3, 0 and 4, 1 and pass; row 8, the next
    # of V(5)'s chain, divides by 17 * 18 * 19 = 5814 and leaves 1938.
    source = KernelCache(B)
    kernel_recursive(B, 4, source)
    cache = _loaded_cache(tmp_path, B, _scaled_values(source, 4) + [-267050])
    _assert_fails_again(cache, 8, "not divisible by 5814")
    assert len(cache) == 8


def _assert_fails_again(cache, n, match):
    """A fill to n raises, and a second call raises the same message and adds nothing."""
    with pytest.raises(ValueError, match=match) as first:
        kernel_recursive(cache.kind, n, cache)
    length = len(cache)
    with pytest.raises(ValueError) as second:
        kernel_recursive(cache.kind, n, cache)
    assert str(second.value) == str(first.value)
    assert len(cache) == length


_BLOCK = kernels_module._BLOCK


def test_block_holds_at_least_16_rows():
    # _BLOCK counts class-rows, and a block holds that many of each chain.
    assert 3 * _BLOCK >= 16


# The rows of the fill's first block are 1 .. 3 _BLOCK.
_EDGE = 3 * _BLOCK


# 33 stops a fill part-way into the second block.
@pytest.mark.parametrize("n", [_EDGE - 1, _EDGE, _EDGE + 1, 33, 2 * _EDGE + 1])
@pytest.mark.parametrize("kind", [B, E])
def test_fill_to_a_block_edge_matches_determinant(kind, n):
    cache = KernelCache(kind)
    kernel_recursive(kind, n, cache)
    assert [cache.get(k) for k in range(1, n + 1)] == list(islice(determinant_rows(kind), 1, n + 1))


@pytest.mark.parametrize("size", [2, 7, _BLOCK])
@pytest.mark.parametrize("kind", [B, E])
def test_block_step_closed_forms(kind, size):
    # Over (6k)!, the product of a term's k class-row divisors
    # D_j = (6j+s+1)...(6j+s+6) is C(6j+s+6k, 6k), and that of a chain's k
    # multipliers 64 (r-5)...r grow is 64^k C(r_last, 6k) times the grows;
    # the kernel_recursive docstring's exactness argument rests on both.
    shift = 3 if kind is B else 0
    n = 9 * _BLOCK
    cache = KernelCache(kind)
    kernel_recursive(kind, n, cache)
    divisors = cache._divisors
    for j in range(1, len(divisors) - size + 2):
        window = math.prod(divisors[j - 1 : j - 1 + size]) // math.factorial(6 * size)
        assert window == math.comb(6 * j + shift + 6 * size, 6 * size)
    odd_lcms = [1]
    for m in range(1, n + 1):
        odd_lcms.append(kernels_module._odd_lcm_step(odd_lcms[-1], m) if shift else 1)
    grows = {m: odd_lcms[m] // odd_lcms[m - 3] for m in range(3, n + 1)}  # P_m / P_(m-3)
    for last in range(3 * size, n + 1):
        rows = range(last - 3 * size + 3, last + 1, 3)  # a chain's k rows ending at last
        product = math.prod(64 * math.perm(2 * m + shift, 6) * grows[m] for m in rows)
        assert product == 64**size * math.factorial(6 * size) * math.comb(
            2 * last + shift, 6 * size
        ) * math.prod(grows[m] for m in rows)


@pytest.mark.parametrize("kind", [B, E])
def test_strided_extension_equals_single_fill(kind):
    # Fills that stop short of, at and past a block's edge, so the blocks
    # of later calls start part-way into those of a single fill.  The calls
    # add every count of rows from 1 to 3 _BLOCK + 1, so the chains are
    # stepped by every count of class-rows from 0 to _BLOCK at once.
    strided = KernelCache(kind)
    n = 0
    for stride in range(1, 3 * _BLOCK + 2):
        n += stride
        kernel_recursive(kind, n, strided)
    single = KernelCache(kind)
    kernel_recursive(kind, n, single)
    assert _scaled_values(strided, n) == _scaled_values(single, n)
    assert list(strided.items()) == list(single.items())


@pytest.mark.parametrize("kind", [B, E])
def test_loaded_prefix_ending_mid_block_extends(kind, tmp_path):
    fresh = KernelCache(kind)
    kernel_recursive(kind, 60, fresh)
    loaded = _loaded_cache(tmp_path, kind, _scaled_values(fresh, _BLOCK // 2 + 3))
    kernel_recursive(kind, 60, loaded)
    assert _scaled_values(loaded, 60) == _scaled_values(fresh, 60)


def test_wrong_cached_value_caught_inside_a_block(tmp_path):
    # The wrong V(5) of the test above, now filled to n = 40: row 8 is the
    # third row of the block that starts at row 6, and it fails there.  Rows
    # 6 and 7 stay cached, and a second call rebuilds the chains and fails
    # again.
    source = KernelCache(B)
    kernel_recursive(B, 4, source)
    cache = _loaded_cache(tmp_path, B, _scaled_values(source, 4) + [-267050])
    _assert_fails_again(cache, 40, "at n=8: the sum is not divisible by 5814")
    assert len(cache) == 8


@pytest.mark.parametrize(
    "end", [_EDGE - 3, _EDGE - 2, _EDGE - 1, _EDGE, _EDGE + 1, _EDGE + 2, _EDGE + 3]
)
@pytest.mark.parametrize("kind", [B, E])
def test_loaded_prefix_at_each_residue_extends(kind, end, tmp_path):
    # Prefixes ending at rows of each residue mod 3, and one class-row
    # before, at and after the edge of a single fill's first block: the
    # takeover rebuilds each chain from its own last row.
    n = 3 * _EDGE + 5
    fresh = KernelCache(kind)
    kernel_recursive(kind, n, fresh)
    loaded = _loaded_cache(tmp_path, kind, _scaled_values(fresh, end))
    kernel_recursive(kind, n, loaded)
    assert _scaled_values(loaded, n) == _scaled_values(fresh, n)


@pytest.mark.parametrize("kind", [B, E])
def test_one_row_calls_across_a_block_edge(kind):
    # A fill to just short of a block's edge, then one row per call past
    # it, then a fill that starts a block part-way into a chain's rows.
    stepped = KernelCache(kind)
    kernel_recursive(kind, _EDGE - 4, stepped)
    for n in range(_EDGE - 3, _EDGE + 8):
        kernel_recursive(kind, n, stepped)
    kernel_recursive(kind, 3 * _EDGE, stepped)
    single = KernelCache(kind)
    kernel_recursive(kind, 3 * _EDGE, single)
    assert _scaled_values(stepped, 3 * _EDGE) == _scaled_values(single, 3 * _EDGE)


def _lacunary_values(kind, upto):
    """E(n) or V(n) = P_n (2n)! K(n), n <= upto, from determinant_rows, with the P_n."""
    odd_lcms, values = [1], [1]
    for n, determinant in zip(range(1, upto + 1), islice(determinant_rows(kind), 1, None)):
        odd = 2 * n + 1
        odd_lcms.append(odd_lcms[-1] * odd // math.gcd(odd_lcms[-1], odd) if kind is B else 1)
        value = determinant * odd_lcms[n] * math.factorial(2 * n)
        assert value.denominator == 1, n
        values.append(value.numerator)
    return values, odd_lcms


def test_lacunary_identity_of_kind_e():
    # E(n) = (1 + (-3)^n)/2 - 48 sum_{j>=1} 64^(j-1) C(2n, 6j) E(n-3j), on
    # values from the minor recurrence, with no fill code.
    values, _ = _lacunary_values(E, 60)
    for n in range(61):
        tail = sum(
            64 ** (j - 1) * math.comb(2 * n, 6 * j) * values[n - 3 * j]
            for j in range(1, n // 3 + 1)
        )
        assert values[n] == (1 + (-3) ** n) // 2 - 48 * tail, n


def test_lacunary_identity_of_kind_b():
    # (2n+1)(2n+2)(2n+3) V(n) = P_n (2n+3) (1 - (-3)^(n+1))/2
    #     - 6 sum_{j>=1} 64^j C(2n+3, 6j+3) (P_n / P_(n-3j)) V(n-3j).
    values, odd_lcms = _lacunary_values(B, 60)
    for n in range(61):
        tail = sum(
            64**j
            * math.comb(2 * n + 3, 6 * j + 3)
            * (odd_lcms[n] // odd_lcms[n - 3 * j])
            * values[n - 3 * j]
            for j in range(1, n // 3 + 1)
        )
        left = (2 * n + 1) * (2 * n + 2) * (2 * n + 3) * values[n]
        assert left == odd_lcms[n] * (2 * n + 3) * (1 - (-3) ** (n + 1)) // 2 - 6 * tail, n


@pytest.mark.parametrize("kind", [B, E])
def test_takeover_across_odd_prime_powers(kind, tmp_path):
    # The prefix ends at n = 12 (2m+1 = 25), so the rebuilt row is n = 13
    # (2m+1 = 27): for kind b, P must already hold 25 and then grow by 3.
    fresh = KernelCache(kind)
    kernel_recursive(kind, 60, fresh)
    loaded = _loaded_cache(tmp_path, kind, _scaled_values(fresh, 12))
    kernel_recursive(kind, 60, loaded)
    assert list(loaded.items()) == list(fresh.items())


def test_rows_share_each_odd_lcm(tmp_path):
    # P grows only where 2m+1 is an odd prime power, so P_0..P_900 take 299
    # values; a fill and a load of its file each hold one object per value.
    cache = KernelCache(B)
    kernel_recursive(B, 900, cache)
    path = tmp_path / "kernel_b.txt"
    write_cache_file(cache, path)
    loaded = KernelCache(B)
    read_cache_file(path, loaded)
    for source in (cache, loaded):
        odd_lcms = [source.scaled(n)[1] for n in range(901)]
        assert len({id(p) for p in odd_lcms}) == len(set(odd_lcms)) == 299


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
    assert sorted(outcomes) == sorted(islice(determinant_rows(B), 33, 41))
    single = KernelCache(B)
    kernel_recursive(B, 40, single)
    assert list(cache.items()) == list(single.items())


@pytest.mark.parametrize("n", [6, 300])
@pytest.mark.parametrize("kind", [B, E])
def test_cache_file_round_trip(tmp_path, kind, n):
    cache = KernelCache(kind)
    kernel_recursive(kind, n, cache)
    path = tmp_path / f"kernel_{kind.value}.txt"
    write_cache_file(cache, path)
    lines = path.read_text().splitlines()
    # V(1) = -1 for both kinds: K_b(1) = -1/(3 * 2!), K_e(1) = -1/2!.
    assert lines[:2] == ["0 1", "1 -1"] and len(lines) == n + 1
    reloaded = KernelCache(kind)
    read_cache_file(path, reloaded)
    assert list(reloaded.items()) == list(cache.items())
    assert [reloaded.scaled(k) for k in range(n + 1)] == [cache.scaled(k) for k in range(n + 1)]


def test_cache_file_bytes_are_pinned(tmp_path):
    # sha256 of the kind-b file, then the kind-e file, each to n = 400: a
    # change to the file format must leave every byte of it as it is.
    digest = hashlib.sha256()
    for kind in (B, E):
        cache = KernelCache(kind)
        kernel_recursive(kind, 400, cache)
        path = tmp_path / f"kernel_{kind.value}.txt"
        write_cache_file(cache, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == "62542529ce3e414ed3f9eb8155948cc1dfa085ca39a74b901deec2c9a1f4f5d4"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int <-> str limit"
)
def test_cache_file_needs_no_int_string_limit(tmp_path):
    # V(800) of kind b has more decimal digits than 4300, Python's default
    # limit on int <-> str conversion; hex is exempt from it.
    cache = KernelCache(B)
    kernel_recursive(B, 800, cache)
    assert abs(cache.scaled(800)[0]).bit_length() > 4300 * math.log2(10)
    path = tmp_path / "kernel_b.txt"
    reloaded = KernelCache(B)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        write_cache_file(cache, path)
        read_cache_file(path, reloaded)
    finally:
        sys.set_int_max_str_digits(limit)
    assert [reloaded.scaled(k) for k in range(801)] == [cache.scaled(k) for k in range(801)]


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
        ("0 1\n2 7\n", 2),  # a gap
        ("0 1\n1 -1\n1 -1\n", 3),  # a repeated index
        ("0 1\n\n2 7\n1 -1\n", 3),  # out of order, after a blank line
        ("0 2\n1 -1\n", 1),  # a K(0) other than 1
        ("1 -1\n", 1),  # no line 0
        ("0 1\n1 -1\n2 7\u00e9\n", 3),  # a byte outside ASCII
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
    path.write_text("0 1\n1 -7\n")
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
