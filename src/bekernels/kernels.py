"""Kernel sequences behind the Bernoulli and Euler numbers.

Both sequences start from K(0) = 1 and are determined by a reciprocal
factorial weight w(b): 1/(2b+1)! for the Bernoulli-type kernel, 1/(2b)!
for the Euler-type one.  Three independent routes compute the same values:

* ``kernel_recursive``   -- K(n) = -sum_{n'<n} K(n') * w(n - n'), filled
  through its lacunary form, in which K(n) reads only K(n-3), K(n-6), ...,
* ``kernel_compositions``-- sum over the partitions of n, each counted once
  per ordering, of (-1)^(number of parts) * product of w(part),
* ``kernel_determinant`` -- (-1)^n times the determinant of the n x n
  lower Hessenberg matrix with unit superdiagonal and w(i - j + 1) at and
  below the diagonal, item n of the generator ``determinant_rows``.

The routes exist to check one another; none of them may be redefined in
terms of the others.  They are not equally strong checks.  With
d_k = (-1)^k K(k), the determinant's minor recurrence is the defining
recurrence.  ``kernel_recursive`` runs another one, the defining
recurrence multiplied by W(omega x) W(omega^2 x) (W the weights' series,
omega a primitive cube root of unity).  So recursion-vs-determinant checks
that lacunary identity against the defining recurrence, together with what
the fill adds to it: the integer scaling, the step of the terms with the
odd-lcm growth folded into it, and the one-time rebuild that takes over
cached values.  It does not check the paper's identities: the composition
sum (the paper's combinatorial formula) and the two oracles in ``oracles``
carry the mathematics, which is why ``verify`` runs its oracle checks at
the same depth as the exact routes.

The lacunary form splits the fill into three chains, one per residue of n
mod 3, each with a third of the terms per row.  The fill steps each chain
``_BLOCK`` of its rows (class-rows) at a time, so a block covers 3 ``_BLOCK``
rows.  CPython takes several times as long to divide a big integer by a
small divisor as to multiply it by one, so a term from before a block is
divided once, by the product of its ``_BLOCK`` divisors, in place of once
per class-row.  Every such division is exact, since each quotient is a term
of the chain's last row in the block; ``kernel_recursive`` gives the
argument.  A fill of one row per call runs the same code with a block of
one row, which steps one chain by one class-row.

``KernelCache`` holds the recursion's values as its integers, V(n) and P
with K(n) = V(n) / (P (2n)!), and nothing else: ``get`` reduces one K(n)
to a Fraction on each call, and ``items`` reads the rows in order, with
(2n)! stepped from row to row.  The persisted file holds the same
integers, one ``n V`` line per value with V in hex, so a save reduces
nothing and a load makes no Fraction.  The scalings in ``sequences`` read
the integers through ``KernelCache.scaled``, so ``verify`` checks both
forms: the recursion entries the Fractions of ``items``, as ``table`` reads
them, and the oracle and coefficient entries the integers.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import threading
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice
from pathlib import Path

from .exactnum import factorial

__all__ = [
    "KernelCache",
    "KernelKind",
    "determinant_rows",
    "kernel_compositions",
    "kernel_determinant",
    "kernel_recursive",
    "read_cache_file",
    "shared_cache",
    "write_cache_file",
]

# Class-rows that kernel_recursive's fill steps at once in each chain, so a
# block covers 3 _BLOCK rows.  A term is divided once per block, by the
# product of its divisors, where a one-class-row step divides it by each one.
# Sixty cold fills at n = 100-300, both kinds, took 596-618 / 507-542 /
# 525-528 / 491-572 ms in two runs with 8 / 10 / 12 / 16 class-rows (2 shared
# x86_64 vCPUs, Python 3.11).  8 was slower; the runs of 10, 12 and 16
# overlap, so no larger block was shown faster, and 10 stays.  Keep a block
# at 16 rows or more.
_BLOCK = 10
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


class KernelCache:
    """Memo table of kernel values for a single kind.

    The values are always the prefix K(0..len-1), with K(0) = 1 seeded.
    The fill of ``kernel_recursive`` is the only writer; ``read_cache_file``
    only gives a fresh cache a prefix from a file.  Nothing overwrites a
    value, and both append under a lock, so a cache may be shared.

    Each K(k) is held only as the fill's integers: V(k) and P_k, with
    K(k) = V(k) / (P_k (2k)!) and P_k the lcm of the odd numbers up to
    2k+1 (1 for kind e).  ``scaled`` returns them as they are; ``get`` makes
    one reduced Fraction anew on each call and keeps none, and ``items``
    makes them for every row in order, stepping (2k)! along the rows.

    The cache also holds the last row of each of ``kernel_recursive``'s
    three chains, so that extending the table by one value costs O(m)
    integer operations by small factors: that row's terms, nearest-first,
    one list per residue of the row mod 3, and the divisors, which the
    chains share, that step a term to its chain's next row.
    """

    def __init__(self, kind: KernelKind):
        self.kind = kind
        self._scaled: list[tuple[int, int]] = [(1, 1)]
        self._lock = threading.Lock()
        self._chains: list[list[int]] = [[], [], []]
        self._divisors: list[int] = []

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
        """(n, K(n)) for the rows cached when iteration starts, in order, each reduced anew."""
        unit = 1  # (2n)!
        for n, (numerator, odd_lcm) in enumerate(self._scaled[:]):
            yield n, Fraction(numerator, odd_lcm * unit)
            unit *= (2 * n + 1) * (2 * n + 2)


_shared = {kind: KernelCache(kind) for kind in KernelKind}


def shared_cache(kind: KernelKind) -> KernelCache:
    """The process-wide cache of ``kind``, made at import, used when callers supply none."""
    return _shared[kind]


def kernel_recursive(kind: KernelKind, n: int, cache: KernelCache | None = None) -> Fraction:
    """K(n) by the defining recursion, filling the cache up to n.

    Every value K(1)..K(n) not already cached is computed in ascending
    order, so a later call at a smaller or equal index is a lookup.

    The fill runs the recursion's lacunary form, in integers.  With t = x^2,
    the defining recursion says K W = 1 for the series K(x) = sum K(n) x^(2n)
    and W(x) = sum w(b) x^(2b) (w(0) = 1): W is cosh x for kind e and
    sinh(x) / x for kind b.  Multiplying both sides by W(omega x)
    W(omega^2 x), omega a primitive cube root of unity, leaves on the left
    W(x) W(omega x) W(omega^2 x), which holds only the powers x^(6j), and on
    the right (cosh x + cos(sqrt(3) x)) / 2 for kind e and
    (cosh x - cos(sqrt(3) x)) / (2 x^2) for kind b (Ramanujan, 1911;
    D. H. Lehmer, Ann. of Math. 36, 1935).  So K(m) reads only K(m-3),
    K(m-6), ...:

    * kind e, E(m) = (2m)! K(m):
      E(m) = (1 + (-3)^m) / 2 - 48 sum_{j>=1} 64^(j-1) C(2m, 6j) E(m-3j);
    * kind b, V(m) = P_m (2m)! K(m), with P_m the lcm of the odd numbers up
      to 2m+1, so that every V(k) is an integer:
      (2m+1)(2m+2)(2m+3) V(m) = P_m (2m+3) (1 - (-3)^(m+1)) / 2
      - 6 sum_{j>=1} 64^j C(2m+3, 6j+3) (P_m / P_(m-3j)) V(m-3j).

    Each residue of m mod 3 is its own chain.  With s = 3 for kind b and 0
    for kind e, r = 2m + s and k = m - 3j, row m sums the terms
    t_j = 64^(j-1) C(r, 2k) (P_m / P_k) V(k) for j >= 1 (P is 1 for kind
    e), and the cache keeps each chain's terms, nearest-first, from one of
    its rows (class-rows) to the next.  That is row m+3, with r' = r + 6, and
    P grows by grow = P_(m+3) / P_m on the way.  So a term steps one
    class-row by one common multiplier and one small divisor:
    t_(j+1)' = t_j 64 (r+1)...(r+6) grow / D_j with
    D_j = (6j+s+1)...(6j+s+6), and the row's one new term is
    t_1' = C(r', 6+s) grow V(m).

    The fill steps ``_BLOCK`` class-rows of each chain at a time, a block
    of 3 ``_BLOCK`` rows; a fill's last block may be shorter, and its
    chains may then differ by one class-row.  With r_0, P_0 of a chain's
    row before the block and r_1 = r_0 + 6c, P_1 of its last row in it (c
    class-rows), a term t_j is multiplied by the product of the c
    multipliers and divided by that of its c divisors.  Each product holds
    6c consecutive integers, so (6c)! is first cancelled: that leaves
    64^c C(r_1, 6c) P_1 / P_0 and C(6j+s+6c, 6c).  As
    C(r_0, 2k) C(r_1, 6c) = C(r_1, 2k) C(r_1 - 2k, 6c) and
    r_1 - 2k = 6j+s+6c, the division is exact for any integer V(k), with
    quotient 64^(j+c-1) C(r_1, 2k) V(k) P_1 / P_k.  The sum of these terms
    at an earlier class-row of the block comes back from the stepped terms:
    each is multiplied back by its divisors of the later class-rows, which
    leaves that row's term times the product of the later class-rows'
    multipliers, an integer, so the sum divides by that product exactly.
    This runs over ``_CHUNK`` terms at a time.  The block's own new terms,
    one per class-row, step one class-row at a time.  The block's rows are
    then made in index order, each from its chain's sum, and each appends
    its integers V(m) and P to the cache and makes no Fraction; the one
    returned, K(n), is made by ``KernelCache.get``.

    Values already cached past the chains' rows (loaded from a file, which
    holds the same V(k)) are taken over once: the terms of the last cached
    row of each chain are rebuilt from the cached integers with
    ``math.comb``.  For kind b, a division by (2m+1)(2m+2)(2m+3) that
    leaves a remainder raises ValueError.  The values of the rows before it
    stay cached, and the chains fall back to empty ones, so the next call
    rebuilds them and raises the same error.
    """
    if n < 0:
        raise ValueError(f"kernel index must be >= 0, got {n}")
    if cache is None:
        cache = shared_cache(kind)
    elif cache.kind is not kind:
        raise ValueError(f"cache holds kind {cache.kind.value!r}, not {kind.value!r}")
    if n in cache:
        return cache.get(n)
    shift = 3 if kind is KernelKind.BERNOULLI else 0  # r = 2m + shift
    with cache._lock:
        rows, divisors = cache._scaled, cache._divisors
        # The divisor D_j = (6j + shift + 1)...(6j + shift + 6) of the term j
        # class-rows from its row, for j = 1, 2, ...
        for j in range(len(divisors) + 1, n // 3 + 2):
            divisors.append(math.perm(6 * j + shift + 6, 6))
        # The chains leave the cache while they are stepped, so a fill that
        # stops for any reason leaves empty ones, and the next call rebuilds.
        chains, cache._chains = cache._chains, [[], [], []]
        # Chains are all kept or all empty, so the last row's tells.
        last = len(rows) - 1
        if len(chains[last % 3]) != last // 3:  # rows were loaded, or a fill stopped
            chains = [_rebuilt_terms(rows, last - (last - c) % 3, shift) for c in range(3)]
        while len(rows) <= n:
            _fill_block(cache, chains, min(3 * _BLOCK, n + 1 - len(rows)), shift)
        cache._chains = chains
    return cache.get(n)


def _rebuilt_terms(rows: list[tuple[int, int]], head: int, shift: int) -> list[int]:
    """The terms of row ``head`` from the cached integers, nearest-first; none for head < 3."""
    r = 2 * head + shift
    return [
        math.comb(r, 2 * k) * rows[k][0] * (rows[head][1] // rows[k][1]) << 6 * j
        for j, k in enumerate(range(head - 3, -1, -3))
    ]


def _fill_block(cache: KernelCache, chains: list[list[int]], size: int, shift: int) -> None:
    """Append the next ``size`` rows' V(m) and P to the cache and step ``chains`` past them.

    ``chains[c]`` holds the terms of the last row m = c (mod 3) before the
    block and ends holding those of its last row in the block.  The caller
    holds the cache's lock.
    """
    rows, divisors = cache._scaled, cache._divisors
    first = len(rows)
    odd_lcms = [rows[m][1] if m >= 0 else 1 for m in range(first - 3, first)]
    steps = []  # (r, P, grow, multiplier) of each row of the block
    for m in range(first, first + size):
        r = 2 * m + shift
        odd_lcm = _odd_lcm_step(odd_lcms[-1], m) if shift else 1
        grow = odd_lcm // odd_lcms[-3]  # P_m / P_(m-3)
        # rows 1 and 2 start their chains and have no term to step
        multiplier = 64 * math.perm(r, 6) * grow if m >= 3 else 1
        odd_lcms.append(odd_lcm)
        steps.append((r, odd_lcm, grow, multiplier))
    # partials[b]: the old terms' sum at row first + b, times the product of
    # the multipliers of its chain's rows after it; products[c]: that of
    # all of chain c's multipliers in the block.
    partials, products = [0] * size, [1, 1, 1]
    for c, terms in enumerate(chains):
        offsets = range((c - first) % 3, size, 3)
        k = len(offsets)
        if not k:
            continue
        products[c] = product = math.prod(steps[b][3] for b in offsets)
        if not terms:
            continue
        # Divide term i by its k divisors' product over (6k)!, the window
        # C(6j+s+6k, 6k) with j = i + 1, slid one term on at each step.
        cancel = math.factorial(6 * k)
        scale, window = product // cancel, math.prod(divisors[:k]) // cancel
        for i, t in enumerate(terms):
            terms[i] = t * scale // window
            window = window * divisors[i + k] // divisors[i]
        sums = [0] * k
        sums[-1] = sum(terms)
        if k > 1:  # multiply each chunk back, class-row by class-row, from the last
            for lo in range(0, len(terms), _CHUNK):
                chunk = terms[lo : lo + _CHUNK]
                for b in range(k - 1, 0, -1):
                    chunk = list(map(operator.mul, chunk, divisors[lo + b : lo + b + _CHUNK]))
                    sums[b - 1] += sum(chunk)
        for b, offset in enumerate(offsets):
            partials[offset] = sums[b]
    fresh: list[list[int]] = [[], [], []]  # each chain's terms of the block, nearest-first
    power = (-3) ** first
    for m, partial, step in zip(range(first, first + size), partials, steps):
        r, odd_lcm, grow, multiplier = step
        c = m % 3
        products[c] //= multiplier  # now that of the chain's rows after this one
        new = fresh[c]
        for i, t in enumerate(new):
            new[i] = t * multiplier // divisors[i]
        if m >= 3:
            new.insert(0, rows[m - 3][0] * (grow * math.comb(r, 6 + shift)))
        total = partial // products[c] + sum(new)
        # The identities of kernel_recursive's docstring, with 6 * 64^j = 384 * 64^(j-1)
        if shift:
            divisor = r * (r - 1) * (r - 2)
            value, remainder = divmod(odd_lcm * r * (1 + 3 * power) // 2 - 384 * total, divisor)
            if remainder:
                raise ValueError(
                    f"kernel recursion at n={m}: the sum is not divisible by {divisor}, "
                    f"so a cached value below n={m} is not a kernel value"
                )
        else:
            value = (1 + power) // 2 - 48 * total
        rows.append((value, odd_lcm))
        power *= -3
    for terms, new in zip(chains, fresh):
        terms[:0] = new


def _odd_lcm_step(odd_lcm: int, m: int) -> int:
    """P_m from P_(m-1); when P_m equals P_(m-1), it is that object, so rows share it."""
    odd = 2 * m + 1
    grow = odd // math.gcd(odd_lcm, odd)
    return odd_lcm * grow if grow > 1 else odd_lcm


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


def determinant_rows(kind: KernelKind) -> Iterator[Fraction]:
    """K(0), K(1), ... with K(n) = (-1)^n det(H_n) for the lower Hessenberg weight matrix H_n.

    H_n has 1 on the superdiagonal and w(i - j + 1) at entry (i, j) for
    j <= i.  Expanding along the last row gives the minor recurrence
    d_k = sum_{j=1..k} (-1)^(k-j) w(k - j + 1) d_{j-1} with d_0 = 1, so no
    matrix is ever materialized here; the explicit-matrix route lives in
    the test suite as an independent check.

    The recurrence runs in integers.  With W(b) the denominator of w(b),
    N_k = d_k (3k)! satisfies N_k = sum_j (-1)^(k-j) tau(k, j) with the
    terms tau(k, j) = c(k, j) N_{j-1} and c(k, j) = (3k)! / ((3j-3)! W(b)),
    b = k-j+1, an integer because (3j-3) + (2b+1) <= 3k.  A term steps
    from row to row by a small multiplier and a small divisor:
    tau(k, j) = tau(k-1, j) (3k)(3k-1)(3k-2) / ((2b+s-1)(2b+s)), with
    s = 1 for kind b and 0 for kind e, since W(b) / W(b-1) is
    (2b+s-1)(2b+s).  The quotient is the integer tau(k, j), so each
    division is exact.  The row's new term is the step of
    tau(k-1, k) = N_{k-1} (c(k-1, k) = 1, the superdiagonal) with b = 1.
    Only the last row's terms, its minor and (3k)! are kept, in this
    generator; each row makes one Fraction, (-1)^k N_k / (3k)!.
    """
    s = 1 if kind is KernelKind.BERNOULLI else 0
    terms, minor, unit = [], 1, 1  # tau(k, j) for j = 1..k, N_k, (3k)!
    yield Fraction(1)
    for k in count(1):
        cube = (3 * k) * (3 * k - 1) * (3 * k - 2)
        pairs = zip(range(2 * k + s, s, -2), [*terms, minor])  # (2b+s, tau(k-1, j))
        terms = [t * cube // (top * (top - 1)) for top, t in pairs]
        minor = sum(terms[-1::-2]) - sum(terms[-2::-2])
        unit *= cube
        yield Fraction(minor if k % 2 == 0 else -minor, unit)


def kernel_determinant(kind: KernelKind, n: int) -> Fraction:
    """K(n), item n of a fresh ``determinant_rows(kind)``: one O(n^2) pass, nothing kept."""
    if n < 1:
        raise ValueError(f"determinant form requires n >= 1, got {n}")
    return next(islice(determinant_rows(kind), n, None))


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
    A line is not checked to hold a kernel value: a wrong V loads, and for
    kind b the fill's exact division by (2m+1)(2m+2)(2m+3) may catch it
    later, at a row of its chain.
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
                odd_lcm = _odd_lcm_step(odd_lcm, k)
            rows.append((value, odd_lcm))
        cache._scaled.extend(rows[1:])
