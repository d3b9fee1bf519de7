"""Kernel sequences behind the Bernoulli and Euler numbers.

Both sequences start from K(0) = 1 and are determined by a reciprocal
factorial weight w(b): 1/(2b+1)! for the Bernoulli-type kernel, 1/(2b)!
for the Euler-type one.  Three independent routes compute the same values:

* ``kernel_recursive``   -- K(n) = -sum_{n'<n} K(n') * w(n - n'),
* ``kernel_compositions``-- sum over the partitions of n, each counted once
  per ordering, of (-1)^(number of parts) * product of w(part),
* ``kernel_determinant`` -- (-1)^n times the determinant of the n x n
  lower Hessenberg matrix with unit superdiagonal and w(i - j + 1) at and
  below the diagonal.

The routes exist to check one another; none of them may be redefined in
terms of the others.  They are not equally strong checks.  With
d_k = (-1)^k K(k), the determinant's minor recurrence is the defining
recurrence, so recursion-vs-determinant checks what ``kernel_recursive``
adds to it: the integer scaling, the step of the terms with the odd-lcm
growth folded into it, and the one-time rebuild that takes over cached
values, not the paper's identities.  The composition sum (the paper's
combinatorial formula) and the two oracles in ``oracles`` carry the
mathematics, which is why ``verify`` runs its oracle checks at the same
depth as the exact routes.

The fill steps its terms ``_BLOCK`` rows at a time.  CPython takes about
four times as long to divide a big integer by a one-digit divisor as to
multiply it by one, so a term from before a block is divided once, by the
product of its ``_BLOCK`` divisors, in place of once per row.  Every such
division is exact, since each quotient is a term of the block's last row;
``kernel_recursive`` gives the argument.  A fill of one row per call runs
the same code with a block of one row.

``KernelCache`` holds the recursion's values as its integers, V(n) and P
with K(n) = V(n) / (P (2n)!), and nothing else: ``get`` reduces K(n) to a
Fraction on each call.  The persisted file holds the same integers, one
``n V`` line per value with V in hex, so a save reduces nothing and a load
makes no Fraction.  The scalings in ``sequences`` read the integers
through ``KernelCache.scaled``, so ``verify`` checks both forms: the
recursion-vs-determinant entries the Fractions, the oracle and coefficient
entries the integers.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import threading
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

from .exactnum import factorial

__all__ = [
    "KernelCache",
    "KernelKind",
    "kernel_compositions",
    "kernel_determinant",
    "kernel_recursive",
    "read_cache_file",
    "shared_cache",
    "write_cache_file",
]

# Rows that kernel_recursive's fill steps at once.  A term is divided once
# per block, by the product of its divisors, where a one-row step divides it
# by each one.  A fill of kind e to n = 1600 took 3.2 s in blocks of 32, 3.8 s
# in blocks of 16 and 6.7 s one row at a time; at n = 100-300, blocks of 16
# to 64 were within 5 % of one another (2 shared x86_64 vCPUs, Python 3.11).
# Keep it at 16 or more.
_BLOCK = 32
# Terms a block steps and sums at a time, so that no second copy of a
# whole row is held.
_CHUNK = 64


class KernelKind(enum.Enum):
    """Which weight family a kernel value belongs to."""

    BERNOULLI = "b"
    EULER = "e"

    def weight_denominator(self, b: int) -> int:
        """Denominator of the weight w(b): (2b+1)! for kind b, (2b)! for kind e."""
        if b < 1:
            raise ValueError(f"weight index must be >= 1, got {b}")
        return factorial(2 * b + 1) if self is KernelKind.BERNOULLI else factorial(2 * b)

    def weight(self, b: int) -> Fraction:
        return Fraction(1, self.weight_denominator(b))


class KernelCache:
    """Memo table of kernel values for a single kind.

    The values are always the prefix K(0..len-1), with K(0) = 1 seeded.
    The fill of ``kernel_recursive`` is the only writer; ``read_cache_file``
    only gives a fresh cache a prefix from a file.  Nothing overwrites a
    value, and both append under a lock, so a cache may be shared.

    Each K(k) is held only as the fill's integers: V(k) and P_k, with
    K(k) = V(k) / (P_k (2k)!) and P_k the lcm of the odd numbers up to
    2k+1 (1 for kind e).  ``scaled`` returns them as they are; ``get`` makes
    the reduced Fraction anew on each call and keeps none.

    The cache also holds the last row of ``kernel_recursive``'s integer
    recurrence, so that extending the table by one value costs O(m)
    integer operations by small factors: that row's terms C(r, 2k) V(k),
    nearest-first, the divisors that step the terms to the next row, and
    the products of ``_BLOCK`` consecutive divisors that step them across a
    block.
    """

    def __init__(self, kind: KernelKind):
        self.kind = kind
        self._scaled: list[tuple[int, int]] = [(1, 1)]
        self._lock = threading.Lock()
        self._terms: list[int] = []
        self._divisors: list[int] = []
        self._windows: list[int] = []

    def get(self, n: int) -> Fraction | None:
        """K(n) as a reduced Fraction, made on each call, or None when n is not cached."""
        if not 0 <= n < len(self._scaled):
            return None
        numerator, odd_lcm = self._scaled[n]
        return Fraction(numerator, odd_lcm * factorial(2 * n))

    def scaled(self, n: int) -> tuple[int, int]:
        """(V, P) with K(n) = V / (P (2n)!), as the fill made them; P is 1 for kind e.

        No reduction takes place, so this is the cheap way to scale K(n) by
        a factorial.  n must be cached.
        """
        if not 0 <= n < len(self._scaled):
            raise IndexError(f"K({n}) is not cached")
        return self._scaled[n]

    def __contains__(self, n: int) -> bool:
        return 0 <= n < len(self._scaled)

    def __len__(self) -> int:
        return len(self._scaled)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return enumerate([self.get(n) for n in range(len(self))])


_shared: dict[KernelKind, KernelCache] = {}
_shared_lock = threading.Lock()


def shared_cache(kind: KernelKind) -> KernelCache:
    """Process-wide cache used when callers do not supply their own."""
    with _shared_lock:
        if kind not in _shared:
            _shared[kind] = KernelCache(kind)
        return _shared[kind]


def kernel_recursive(kind: KernelKind, n: int, cache: KernelCache | None = None) -> Fraction:
    """K(n) by the defining recursion, filling the cache up to n.

    Every value K(1)..K(n) not already cached is computed in ascending
    order, so a later call at a smaller or equal index is a lookup.

    The recursion runs in integers.  Multiplying
    sum_{k<=m} K(k) w(m-k) = 0 (with w(0) = 1) by (2m)! for kind e, or by
    P (2m+1)! for kind b, gives

    * kind e: E(m) = (2m)! K(m) and E(m) = -sum_{k<m} C(2m, 2k) E(k);
    * kind b: V(m) = P (2m)! K(m) and
      (2m+1) V(m) = -sum_{k<m} C(2m+1, 2k) V(k),

    where P is the lcm of the odd numbers up to 2m+1, so every V(k) is an
    integer.  With r = 2m+1 for kind b and r = 2m for kind e, row m sums
    the terms t_k = C(r, 2k) V(k), and the cache keeps them from one row to
    the next.  Row m+1 has r' = r+2, and when 2m+3 is a new odd prime power
    p, P and every V(k) grow by p (grow = 1 otherwise).  So a term steps
    one row by one small multiplier and one small divisor:
    t'_k = t_k r'(r'-1) grow / ((r'-2k)(r'-2k-1)), and the row's one new
    term is grow V(m) C(r', r'-2m).

    The fill steps ``_BLOCK`` rows at a time; a fill's last block may be
    shorter.  With r_0, P_0 of the row before a block of s rows and r_1, P_1
    of its last row, a term t_k = C(r_0, 2k) V(k) P_0 / P_k is multiplied by
    the product of the s multipliers and divided by that of its s divisors.
    Each product holds 2s consecutive integers, so (2s)! is first cancelled:
    that leaves C(r_1, 2s) P_1 / P_0 and C(r_1 - 2k, 2s).  As
    C(r_0, 2k) C(r_1, 2s) = C(r_1, 2k) C(r_1 - 2k, 2s), the division is
    exact for any integer V(k), with quotient C(r_1, 2k) V(k) P_1 / P_k.
    The sum of these terms at an earlier row of the block comes back from
    the stepped terms: each is multiplied back by its divisors of the later
    rows, which leaves that row's term times the product of the later rows'
    multipliers, an integer, so the sum divides by that product exactly.
    This runs over ``_CHUNK`` terms at a time.  The block's own new terms,
    one per row, step one row at a time.  Each new row appends its integers
    V(m) and P to the cache and makes no Fraction; the one returned, K(n),
    is made by ``KernelCache.get``.

    Values already cached past the frontier (loaded from a file, which
    holds the same V(k)) are taken over once: the terms of the row before
    the first row that must be computed are rebuilt from the cached
    integers with ``math.comb``.  A division by 2m+1 that leaves a
    remainder raises ValueError.  The values of the rows before it stay
    cached, and the row state falls back to that of row 0, so the next call
    rebuilds the state and raises the same error.
    """
    if n < 0:
        raise ValueError(f"kernel index must be >= 0, got {n}")
    if cache is None:
        cache = shared_cache(kind)
    elif cache.kind is not kind:
        raise ValueError(f"cache holds kind {cache.kind.value!r}, not {kind.value!r}")
    if n in cache:
        return cache.get(n)
    shift = 1 if kind is KernelKind.BERNOULLI else 0  # r = 2m + shift
    with cache._lock:
        rows, divisors = cache._scaled, cache._divisors
        # The divisor (r' - 2k)(r' - 2k - 1) = (2j + shift)(2j + shift - 1) of
        # the term j = m - k places from the front, for j = 2, 3, ...
        for j in range(len(divisors) + 2, n + 2):
            divisors.append((2 * j + shift) * (2 * j + shift - 1))
        # The state leaves the cache while it is stepped, so a fill that stops
        # for any reason leaves the state of row 0, and the next call rebuilds.
        terms, cache._terms = cache._terms, []
        last = len(rows) - 1
        if len(terms) != last:  # values past the state's row were loaded, or a fill stopped
            r, odd_lcm = 2 * last + shift, rows[last][1]
            terms = [math.comb(r, 2 * k) * rows[k][0] * (odd_lcm // rows[k][1])
                     for k in range(last - 1, -1, -1)]
        while len(rows) <= n:
            _fill_block(cache, terms, min(_BLOCK, n + 1 - len(rows)), shift)
        cache._terms = terms
    return cache.get(n)


def _fill_block(cache: KernelCache, terms: list[int], size: int, shift: int) -> None:
    """Append the next ``size`` rows' V(m) and P to the cache and step ``terms`` past them.

    ``terms`` holds the state of the row before the block and ends holding
    that of its last row.  The caller holds the cache's lock.
    """
    rows, divisors = cache._scaled, cache._divisors
    first = len(rows)
    odd_lcm = rows[-1][1]
    steps = []  # (r, grow, P, multiplier) of each row of the block
    product = 1  # of the block's multipliers r (r - 1) grow
    for m in range(first, first + size):
        r = 2 * m + shift
        odd_lcm, grow = _odd_lcm_step(odd_lcm, m) if shift else (odd_lcm, 1)
        multiplier = r * (r - 1) * grow
        steps.append((r, grow, odd_lcm, multiplier))
        product *= multiplier
    if size == 1:
        scale, windows = product, divisors
    else:  # each is a product of 2 size consecutive integers, so (2 size)! divides both
        scale = product // math.factorial(2 * size)
        windows = _divisor_windows(cache, size, len(terms))
    for i, w in enumerate(windows[: len(terms)]):
        terms[i] = terms[i] * scale // w
    # sums[b]: the old terms' sum at row b of the block, times the product of
    # the multipliers of the rows after it.
    sums = [0] * size
    sums[-1] = sum(terms)
    if size > 1:  # multiply each chunk back, row by row, from the last row
        for lo in range(0, len(terms), _CHUNK):
            chunk = terms[lo : lo + _CHUNK]
            for b in range(size - 1, 0, -1):
                chunk = list(map(operator.mul, chunk, divisors[lo + b : lo + b + _CHUNK]))
                sums[b - 1] += sum(chunk)
    fresh: list[int] = []  # the block's own terms, nearest-first
    for partial, (r, grow, odd_lcm, multiplier) in zip(sums, steps):
        product //= multiplier  # now that of the rows after this one
        for i, t in enumerate(fresh):
            fresh[i] = t * multiplier // divisors[i]
        fresh.insert(0, rows[-1][0] * (grow * math.comb(r, 2 + shift)))
        total = -(partial // product + sum(fresh))
        m = len(rows)
        value, remainder = divmod(total, 2 * m + 1) if shift else (total, 0)
        if remainder:
            raise ValueError(
                f"kernel recursion at n={m}: the sum is not divisible by {2 * m + 1}, "
                f"so a cached value below n={m} is not a kernel value"
            )
        rows.append((value, odd_lcm))
    terms[:0] = fresh


def _odd_lcm_step(odd_lcm: int, m: int) -> tuple[int, int]:
    """(P_m, grow) from P_(m-1); when grow is 1, P_m is P_(m-1) itself, so rows share it."""
    odd = 2 * m + 1
    grow = odd // math.gcd(odd_lcm, odd)
    return (odd_lcm * grow if grow > 1 else odd_lcm), grow


def _divisor_windows(cache: KernelCache, size: int, count: int) -> list[int]:
    """Products of ``size`` consecutive divisors over (2 size)!, for the first ``count`` starts.

    Those of ``_BLOCK`` divisors are kept on the cache; each new one slides
    the window by one exact division.
    """
    divisors = cache._divisors
    windows = cache._windows if size == _BLOCK else []
    if count and not windows:
        windows.append(math.prod(divisors[:size]) // math.factorial(2 * size))
    for i in range(len(windows), count):
        windows.append(windows[-1] * divisors[i + size - 1] // divisors[i - 1])
    return windows


def kernel_compositions(kind: KernelKind, n: int) -> Fraction:
    """K(n) as the signed sum over the compositions of n, grouped by partition.

    A composition's term (-1)^l prod w(b_i) depends only on the multiset of
    its l parts, so a depth-first walk visits each partition (parts
    non-increasing) once and counts it l! / prod m_b! times, once per
    ordering.  Appending a part b steps the count to count (l+1) / r, r the
    run length of b at the end; that is the child's count, an integer, so
    the division is exact.  The walk makes one weight per tree node, one per
    partition of each k <= n.  The sum is one integer over D = (3n)!, which
    every product of (2b+1)! (kind b) or (2b)! (kind e) over the parts
    divides; D // (the prefix's product) goes down the tree.  No suffix sum
    is memoized: that would turn the route into the recursion it checks.
    n = 0 is rejected: the empty composition is the callers' base case.
    """
    if n < 1:
        raise ValueError(f"composition sum requires n >= 1, got {n}")

    def walk(remaining: int, last: int, run: int, quotient: int, count: int, length: int) -> int:
        # count: (-1)^l times the orderings of the l parts so far; length: l + 1
        total = 0
        for b in range(1, min(last, remaining) + 1):
            q = quotient // kind.weight_denominator(b)
            r = run + 1 if b == last else 1
            c = -count * length // r
            total += c * q if b == remaining else walk(remaining - b, b, r, q, c, length + 1)
        return total

    common = factorial(3 * n)
    return Fraction(walk(n, n, 0, common, 1, 1), common)


# The weight-denominator ratios W(b) / W(b-1) for b = 1..k (W(0) = 1) and
# the scaled minors N_0..N_k = d_k (3k)! of each kind, all integers.  Only
# kernel_determinant fills them, from exact weights, and the lock makes
# them safe to grow from several threads.
_det_lock = threading.Lock()
_det_rows: dict[KernelKind, tuple[list[int], list[int]]] = {}


def kernel_determinant(kind: KernelKind, n: int) -> Fraction:
    """K(n) = (-1)^n det(H_n) for the lower Hessenberg weight matrix H_n.

    H_n has 1 on the superdiagonal and w(i - j + 1) at entry (i, j) for
    j <= i.  Expanding along the last row gives the minor recurrence
    d_k = sum_{j=1..k} (-1)^(k-j) w(k - j + 1) d_{j-1} with d_0 = 1, so no
    matrix is ever materialized here; the explicit-matrix route lives in
    the test suite as an independent check.  The minors are kept between
    calls, so a call at an index already reached computes none.

    The recurrence runs in integers.  With W(b) the denominator of w(b),
    N_k = d_k (3k)! satisfies N_k = sum_j (-1)^(k-j) c(k, j) N_{j-1} with
    c(k, j) = (3k)! / ((3j-3)! W(k-j+1)), an integer because
    (3j-3) + (2k-2j+3) <= 3k.  Going down from c(k, k+1) = 1, each
    multiplier comes from the one before it, exactly:
    c(k, j) = c(k, j+1) (3j)(3j-1)(3j-2) / (W(b) / W(b-1)) with b = k-j+1.
    Only the N_k are kept; each call makes one Fraction, (-1)^n N_n / (3n)!.
    """
    if n < 1:
        raise ValueError(f"determinant form requires n >= 1, got {n}")
    with _det_lock:
        ratios, scaled = _det_rows.setdefault(kind, ([], [1]))
        for k in range(len(scaled), n + 1):
            previous = kind.weight_denominator(k - 1) if k > 1 else 1
            ratios.append(kind.weight_denominator(k) // previous)
            acc, multiplier, sign = 0, 1, 1
            for j in range(k, 0, -1):
                multiplier = multiplier * (3 * j) * (3 * j - 1) * (3 * j - 2) // ratios[k - j]
                acc += sign * multiplier * scaled[j - 1]
                sign = -sign
            scaled.append(acc)
        return Fraction(scaled[n] if n % 2 == 0 else -scaled[n], factorial(3 * n))


def write_cache_file(cache: KernelCache, path: str | Path) -> None:
    """Persist a cache as sorted ``n V`` lines: V(n) of ``KernelCache.scaled`` in hex.

    Nothing is reduced, and hex needs no int-to-str digit limit.  The lines
    go to a temporary file in the same directory, which then replaces
    ``path`` in one step, so a failed write leaves the previous file as it
    was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with temp.open("x", encoding="ascii") as out:
            for n, (value, _) in enumerate(cache._scaled):
                out.write(f"{n} {value:x}\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_cache_file(path: str | Path, cache: KernelCache) -> None:
    """Load a file's ``n V`` lines into a cache that holds K(0) alone.

    Each line holds an index and V(n) = P_n (2n)! K(n) in hex, as
    ``write_cache_file`` writes them; P_n comes from ``_odd_lcm_step``, as in the fill.
    Non-blank line i must hold index i and line 0 must be ``0 1``; any
    other line raises ValueError naming ``path:line`` and loads nothing.
    A line is not checked to hold a kernel value: a wrong V loads, and the
    fill's exact division by 2m+1 may catch it later.
    """
    with cache._lock:
        if len(cache._scaled) != 1:
            raise ValueError(f"{path}: a file loads only into a cache holding K(0) alone")
        rows: list[tuple[int, int]] = []
        odd_lcm = 1  # P_k of the line's index k
        bernoulli = cache.kind is KernelKind.BERNOULLI
        for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
            if not raw.strip():
                continue
            try:
                index_text, value_text = raw.split()
                index, value = int(index_text), int(value_text, 16)
            except ValueError as exc:
                line = raw.decode("ascii", "backslashreplace")
                raise ValueError(
                    f"{path}:{lineno}: bad cache line {line!r}: a line holds 'n V', "
                    f"V the kernel value's integer in hex"
                ) from exc
            k = len(rows)
            if index != k or (k == 0 and value != 1):
                raise ValueError(f"{path}:{lineno}: expected K({k}) of a prefix from K(0) = 1")
            if bernoulli:
                odd_lcm = _odd_lcm_step(odd_lcm, k)[0]
            rows.append((value, odd_lcm))
        cache._scaled.extend(rows[1:])
