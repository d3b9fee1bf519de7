"""Kernel sequences behind the Bernoulli and Euler numbers.

Both sequences start from K(0) = 1 and are determined by a reciprocal
factorial weight w(b): 1/(2b+1)! for the Bernoulli-type kernel, 1/(2b)!
for the Euler-type one.  Three independent routes compute the same values:

* ``kernel_recursive``   -- K(n) = -sum_{n'<n} K(n') * w(n - n'),
* ``kernel_compositions``-- sum over all compositions of n of
  (-1)^(number of parts) * product of w(part),
* ``kernel_determinant`` -- (-1)^n times the determinant of the n x n
  lower Hessenberg matrix with unit superdiagonal and w(i - j + 1) at and
  below the diagonal.

The routes exist to check one another; none of them may be redefined in
terms of the others.  They are not equally strong checks.  With
d_k = (-1)^k K(k), the determinant's minor recurrence is the defining
recurrence, so recursion-vs-determinant checks what ``kernel_recursive``
adds to it: the integer scaling, the row step of the terms with the odd-lcm
growth folded into it, and the one-time rebuild that takes over cached
values, not the paper's identities.  The
composition sum (the paper's combinatorial formula) and the two oracles
in ``oracles`` carry the mathematics, which is why ``verify`` runs its
oracle checks at the same depth as the exact routes.
"""

from __future__ import annotations

import enum
import math
import os
import threading
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .exactnum import factorial, format_rational, parse_rational

__all__ = [
    "BRUTE_FORCE_SOFT_LIMIT",
    "KernelCache",
    "KernelKind",
    "kernel_compositions",
    "kernel_determinant",
    "kernel_recursive",
    "read_cache_file",
    "shared_cache",
    "write_cache_file",
]

# Above this index a composition sum walks more than 2**22 tuples; library
# callers get a warning rather than an error so that explicit overrides stay
# easy.  The CLI's compositions listing rejects an n past it.
BRUTE_FORCE_SOFT_LIMIT = 22


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

    The cache also holds the last row of ``kernel_recursive``'s integer
    recurrence, so that extending the table by one value costs O(m)
    integer operations by small factors: that row's terms C(r, 2k) V(k),
    nearest-first, its value V(m), its odd factor P (1 for kind e) and the
    divisors that step the terms to the next row.
    """

    def __init__(self, kind: KernelKind):
        self.kind = kind
        self._values: List[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()
        self._terms: List[int] = []
        self._last = 1
        self._divisors: List[int] = []
        self._odd_lcm = 1

    def get(self, n: int) -> Optional[Fraction]:
        return self._values[n] if 0 <= n < len(self._values) else None

    def __contains__(self, n: int) -> bool:
        return 0 <= n < len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return enumerate(list(self._values))


_shared: Dict[KernelKind, KernelCache] = {}
_shared_lock = threading.Lock()


def shared_cache(kind: KernelKind) -> KernelCache:
    """Process-wide cache used when callers do not supply their own."""
    with _shared_lock:
        if kind not in _shared:
            _shared[kind] = KernelCache(kind)
        return _shared[kind]


def kernel_recursive(kind: KernelKind, n: int, cache: Optional[KernelCache] = None) -> Fraction:
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
    p, P and every V(k) grow by p (grow = 1 otherwise).  So each term steps
    exactly, by one small multiplier and one small divisor:
    t'_k = t_k r'(r'-1) grow / ((r'-2k)(r'-2k-1)), and the row's one new
    term is grow V(m) C(r', r'-2m).  Each new value is appended to the
    cache as ``Fraction(V(m), P (2m)!)``.

    Values already cached past the frontier (loaded from a file) are taken
    over once: the first row that must be computed rebuilds its terms from
    the cached Fractions with ``math.comb``.  A cached K(k) that is not an
    integer in the scaled units of its own row, P (2k)!, or a division by
    2m+1 that leaves a remainder, raises ValueError.  The values of the rows
    before it stay cached, and the row state falls back to that of row 0,
    so the next call rebuilds the failing row and raises the same error.
    """
    if n < 0:
        raise ValueError(f"kernel index must be >= 0, got {n}")
    if cache is None:
        cache = shared_cache(kind)
    elif cache.kind is not kind:
        raise ValueError(f"cache holds kind {cache.kind.value!r}, not {kind.value!r}")
    known = cache.get(n)
    if known is not None:
        return known
    bernoulli = kind is KernelKind.BERNOULLI
    shift = 1 if bernoulli else 0  # r = 2m + shift
    with cache._lock:
        values, divisors = cache._values, cache._divisors
        # The divisor (r' - 2k)(r' - 2k - 1) = (2j + shift)(2j + shift - 1) of
        # the term j = m - k places from the front, for j = 2, 3, ...
        for j in range(len(divisors) + 2, n + 2):
            divisors.append((2 * j + shift) * (2 * j + shift - 1))
        for m in range(len(values), n + 1):
            odd, r = 2 * m + 1, 2 * m + shift
            if len(cache._terms) == m - 1:  # the state holds row m - 1
                terms, odd_lcm = cache._terms, cache._odd_lcm
                grow = odd // math.gcd(odd_lcm, odd) if bernoulli else 1
                odd_lcm *= grow
                multiplier = r * (r - 1) * grow
                for i, d in enumerate(divisors[: m - 1]):
                    terms[i] = terms[i] * multiplier // d
                terms.insert(0, cache._last * (grow * math.comb(r, 2 + shift)))
            else:  # values past the state's row were loaded, or a row failed
                terms, odd_lcm = _take_over(values, m, bernoulli)
            total = -sum(terms)
            value, remainder = divmod(total, odd) if bernoulli else (total, 0)
            if remainder:
                # The terms may have been stepped in place: fall back to the
                # state of row 0, so the next call rebuilds row m and raises again.
                cache._terms, cache._last, cache._odd_lcm = [], 1, 1
                raise ValueError(
                    f"kernel recursion at n={m}: the sum is not divisible by {odd}, "
                    f"so a cached value below n={m} is not a kernel value"
                )
            values.append(Fraction(value, odd_lcm * factorial(2 * m)))
            cache._terms, cache._last, cache._odd_lcm = terms, value, odd_lcm
    return values[n]


def _take_over(values: List[Fraction], m: int, bernoulli: bool) -> Tuple[List[int], int]:
    """Row m's terms C(r, 2k) V(k), nearest-first, and its P, from K(0..m-1).

    Each cached K(k) must be an integer in its own row's units P_k (2k)!;
    it then enters the terms in row m's units P_m (2k)!.
    """
    odd_lcms = [1]
    for k in range(1, m + 1):
        odd = 2 * k + 1
        odd_lcms.append(odd_lcms[-1] * (odd // math.gcd(odd_lcms[-1], odd)) if bernoulli else 1)
    odd_lcm = odd_lcms[m]
    scaled = [odd_lcm]
    for k in range(1, m):
        cached, unit = values[k], odd_lcms[k] * factorial(2 * k)
        if unit % cached.denominator:
            raise ValueError(
                f"cached K({k}) = {format_rational(cached)} is not a kernel value: "
                f"it is not an integer in the recursion's scaled units"
            )
        scaled.append(cached.numerator * (unit // cached.denominator) * (odd_lcm // odd_lcms[k]))
    r = 2 * m + 1 if bernoulli else 2 * m
    return [math.comb(r, 2 * k) * scaled[k] for k in range(m - 1, -1, -1)], odd_lcm


def kernel_compositions(kind: KernelKind, n: int) -> Fraction:
    """K(n) as a signed sum over all 2**(n-1) compositions of n.

    A depth-first walk over the composition tree visits every composition
    once.  It keeps the sum as one integer over D = (3n)!, which every
    product of (2b+1)! (kind b) or (2b)! (kind e) over the parts divides,
    and carries D // (the prefix's product) down the tree.  No suffix sum
    is memoized: that would turn the route into the recursion.

    Exponential in n by construction; beyond BRUTE_FORCE_SOFT_LIMIT a
    warning is emitted and the walk proceeds anyway.  n = 0 is rejected:
    the empty composition is the callers' base case, not an enumerated one.
    """
    if n < 1:
        raise ValueError(f"composition sum requires n >= 1, got {n}")
    if n > BRUTE_FORCE_SOFT_LIMIT:
        warnings.warn(
            f"composition sum at n={n} enumerates 2**{n - 1} terms; "
            f"expect a long wait past n={BRUTE_FORCE_SOFT_LIMIT}",
            stacklevel=2,
        )

    def walk(remaining: int, quotient: int, sign: int) -> int:
        total = 0
        for b in range(1, remaining + 1):
            q = quotient // kind.weight_denominator(b)
            total += sign * q if b == remaining else walk(remaining - b, q, -sign)
        return total

    common = factorial(3 * n)
    return Fraction(walk(n, common, -1), common)


# The weight-denominator ratios W(b) / W(b-1) for b = 1..k (W(0) = 1), the
# scaled minors N_0..N_k and the minors d_0..d_k of each kind.  Only
# kernel_determinant fills them, from exact weights, and the lock makes
# them safe to grow from several threads.
_det_lock = threading.Lock()
_det_rows: Dict[KernelKind, Tuple[List[int], List[int], List[Fraction]]] = {}


def kernel_determinant(kind: KernelKind, n: int) -> Fraction:
    """K(n) = (-1)^n det(H_n) for the lower Hessenberg weight matrix H_n.

    H_n has 1 on the superdiagonal and w(i - j + 1) at entry (i, j) for
    j <= i.  Expanding along the last row gives the minor recurrence
    d_k = sum_{j=1..k} (-1)^(k-j) w(k - j + 1) d_{j-1} with d_0 = 1, so no
    matrix is ever materialized here; the explicit-matrix route lives in
    the test suite as an independent check.  The minors are kept between
    calls, so a call at an index already reached is a lookup.

    The recurrence runs in integers.  With W(b) the denominator of w(b),
    N_k = d_k (3k)! satisfies N_k = sum_j (-1)^(k-j) c(k, j) N_{j-1} with
    c(k, j) = (3k)! / ((3j-3)! W(k-j+1)), an integer because
    (3j-3) + (2k-2j+3) <= 3k.  Going down from c(k, k+1) = 1, each
    multiplier comes from the one before it, exactly:
    c(k, j) = c(k, j+1) (3j)(3j-1)(3j-2) / (W(b) / W(b-1)) with b = k-j+1.
    Each minor becomes a Fraction once.
    """
    if n < 1:
        raise ValueError(f"determinant form requires n >= 1, got {n}")
    with _det_lock:
        ratios, scaled, minors = _det_rows.setdefault(kind, ([], [1], [Fraction(1)]))
        for k in range(len(minors), n + 1):
            previous = kind.weight_denominator(k - 1) if k > 1 else 1
            ratios.append(kind.weight_denominator(k) // previous)
            acc, multiplier, sign = 0, 1, 1
            for j in range(k, 0, -1):
                multiplier = multiplier * (3 * j) * (3 * j - 1) * (3 * j - 2) // ratios[k - j]
                acc += sign * multiplier * scaled[j - 1]
                sign = -sign
            scaled.append(acc)
            minors.append(Fraction(acc, factorial(3 * k)))
        return minors[n] if n % 2 == 0 else -minors[n]


def write_cache_file(cache: KernelCache, path: Union[str, Path]) -> None:
    """Persist a cache as sorted ``n p/q`` lines.

    The lines go to a temporary file in the same directory, which then
    replaces ``path`` in one step, so a failed write leaves the previous
    file as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with temp.open("x", encoding="ascii") as out:
            for n, value in cache.items():
                out.write(f"{n} {format_rational(value)}\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_cache_file(path: Union[str, Path], cache: KernelCache) -> None:
    """Load a file's ``n p/q`` lines into a cache that holds K(0) alone.

    Non-blank line i must hold index i, and line 0 must be ``0 1``; any
    other line raises ValueError naming ``path:line`` and loads nothing.
    The fill stays the only writer, and checks each value it takes over.
    """
    values: List[Fraction] = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            index_text, value_text = raw.decode("ascii").split()
            index, value = int(index_text), parse_rational(value_text)
        except ValueError as exc:
            line = raw.decode("ascii", "backslashreplace")
            raise ValueError(f"{path}:{lineno}: bad cache line {line!r}") from exc
        if index != len(values) or (index == 0 and value != 1):
            raise ValueError(f"{path}:{lineno}: expected K({len(values)}) of a prefix from K(0) = 1")
        values.append(value)
    with cache._lock:
        if len(cache._values) != 1:
            raise ValueError(f"{path}: a file loads only into a cache holding K(0) alone")
        cache._values.extend(values[1:])
