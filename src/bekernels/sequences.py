"""Sequences derived from the kernel values.

Everything here is exact.  The module exposes:

* the classical numbers: ``bernoulli(n)`` = B_{2n} and ``euler(n)`` = E_{2n},
  rescaled from the kernels of the matching kind;
* the expansion coefficients a_n that drive the asymptotic evaluators in
  ``specfun``, computable by three independent routes that must agree;
  the two O(n^2) ones are generators that keep only their last row;
* the auxiliary sequences f, j, and g, where g has both a closed form in
  the kernel and a brute-force definition as a sum of j-products over
  compositions, and ``beta_even``, whose B(2n, 2m0) scales g to
  a_n = -B(2n, 2m0) g(n; m0) for every m0.

Sign and index conventions follow the oracles module: B_2 = 1/6,
E_2 = -1, and a_1 = 1/24.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice
from math import comb, factorial, gcd

from .kernels import KernelCache, KernelKind, kernel_recursive, shared_cache

__all__ = [
    "a_from_bernoulli_rows",
    "a_from_kb",
    "a_recursive",
    "a_recursive_rows",
    "bernoulli",
    "beta_even",
    "euler",
    "f_of",
    "faulhaber_check",
    "g_bruteforce",
    "g_closed",
    "j_of",
]


def f_of(n: int) -> Fraction:
    """f(n) = 1 / (2^{2n} (2n) (2n+1)) for n >= 1."""
    if n < 1:
        raise ValueError(f"f_of requires n >= 1, got {n}")
    return Fraction(1, (1 << (2 * n)) * (2 * n) * (2 * n + 1))


def j_of(a: int, b: int) -> Fraction:
    """j(a, b) = -(2a+2b-1)! / (2^{2b} (2b+1)! (2a-1)!) for a, b >= 1.

    The factorial ratio is one binomial: j = -C(2a+2b-1, 2b) / ((2b+1) 4^b).
    Always negative, which is what makes the sign of a product of j
    factors depend only on the number of factors.
    """
    if a < 1 or b < 1:
        raise ValueError(f"j_of requires a >= 1 and b >= 1, got a={a}, b={b}")
    return Fraction(-comb(2 * a + 2 * b - 1, 2 * b), (2 * b + 1) << (2 * b))


def g_closed(n: int, m0: int, cache: KernelCache | None = None) -> Fraction:
    """g in closed form: (2n-1)! / (B(2n, 2m0) 2^{2n}) times K_b(n).

    Indexing note: some derivations label this quantity by the absolute
    row n + m0; both arguments here are taken directly, n being the offset
    above the baseline row m0, to keep an off-by-one out of the API.  The
    value depends on m0 only through the beta factor; ``g_bruteforce``
    must reproduce it for every m0 >= 1.  With K_b(n) = V / (P (2n)!) this
    is C(2n+2m0-1, 2n) V / (P 4^n): one reduction.
    """
    if n < 1 or m0 < 1:
        raise ValueError(f"g_closed requires n >= 1 and m0 >= 1, got n={n}, m0={m0}")
    scaled, odd_lcm = _scaled_kernel(KernelKind.BERNOULLI, n, cache)
    return Fraction(comb(2 * n + 2 * m0 - 1, 2 * n) * scaled, odd_lcm << (2 * n))


def beta_even(n: int, m: int) -> Fraction:
    """Euler beta function at even integer arguments: B(2n, 2m).

    Evaluates (2n-1)! (2m-1)! / (2n+2m-1)! exactly.  Both arguments must
    be positive integers.
    """
    if n < 1 or m < 1:
        raise ValueError(f"beta_even requires n >= 1 and m >= 1, got n={n}, m={m}")
    return Fraction(factorial(2 * n - 1) * factorial(2 * m - 1), factorial(2 * n + 2 * m - 1))


def g_bruteforce(n: int, m0: int) -> Fraction:
    """g(n; m0) summed over all 2**(n-1) compositions of n; exponential in n.

    A composition (b_1, ..., b_l) contributes the product of j(a_k, b_k)
    along a_1 = m0, a_{k+1} = a_k + b_k.  A depth-first walk over the
    composition tree carries each prefix's product down and visits every
    composition once; the product is never telescoped into the kernel.

    The walk runs in integers.  Every prefix product has a denominator
    dividing D = (2m0-1)! 4^n (3n)!, so it carries q = D * product and
    steps q -> q * s / t, s / t = j(a, b) from ``j``, a table of ``j_of``
    made per call for a >= m0, a + b <= m0 + n: an exact division (a
    remainder raises ArithmeticError).  The sum is Fraction(sum of q, D).
    """
    if n < 1 or m0 < 1:
        raise ValueError(f"g_bruteforce requires n >= 1 and m0 >= 1, got n={n}, m0={m0}")
    top = m0 + n
    j = {a: [j_of(a, b).as_integer_ratio() for b in range(1, top - a + 1)] for a in range(m0, top)}

    def walk(a: int, quotient: int) -> int:
        total = 0
        for b, (numerator, denominator) in enumerate(j[a], 1):
            q, remainder = divmod(quotient * numerator, denominator)
            if remainder:
                raise ArithmeticError(f"g_bruteforce: j({a}, {b}) does not step D exactly")
            total += q if a + b == top else walk(a + b, q)
        return total

    common = factorial(2 * m0 - 1) * (1 << (2 * n)) * factorial(3 * n)
    return Fraction(walk(m0, common), common)


def _scaled_kernel(kind: KernelKind, n: int, cache: KernelCache | None) -> tuple[int, int]:
    """(V, P) with K(n) = V / (P (2n)!), filling the cache only when n is not in it.

    ``kernel_recursive`` gets ``cache`` as the caller passed it, None for
    the process-wide cache, as it would from a direct call.
    """
    table = shared_cache(kind) if cache is None else cache
    if n not in table or table.kind is not kind:
        kernel_recursive(kind, n, cache)  # fills, or rejects a cache of the other kind
    return table.scaled(n)


def bernoulli(n: int, cache: KernelCache | None = None) -> Fraction:
    """B_{2n} = -(2n)! / (2^{2n} - 2) * K_b(n) for n >= 1.

    With K_b(n) = V / (P (2n)!) this is -V / ((2^{2n} - 2) P): one reduction.
    """
    if n < 1:
        raise ValueError(f"bernoulli requires n >= 1, got {n}")
    scaled, odd_lcm = _scaled_kernel(KernelKind.BERNOULLI, n, cache)
    return Fraction(-scaled, ((1 << (2 * n)) - 2) * odd_lcm)


def euler(n: int, cache: KernelCache | None = None) -> Fraction:
    """E_{2n} = (2n)! * K_e(n) for n >= 1; the result is always an integer.

    It is the fill's own integer E(n) = (2n)! K_e(n) (P is 1 for kind e).
    """
    if n < 1:
        raise ValueError(f"euler requires n >= 1, got {n}")
    scaled, _ = _scaled_kernel(KernelKind.EULER, n, cache)
    return Fraction(scaled)


def a_from_kb(n: int, cache: KernelCache | None = None) -> Fraction:
    """a_n = -(2n-1)! / 2^{2n} * K_b(n), the kernel route.

    With K_b(n) = V / (P (2n)!) this is -V / (2n 2^{2n} P): one reduction.
    """
    if n < 1:
        raise ValueError(f"a_from_kb requires n >= 1, got {n}")
    scaled, odd_lcm = _scaled_kernel(KernelKind.BERNOULLI, n, cache)
    return Fraction(-scaled, (2 * n << (2 * n)) * odd_lcm)


def a_recursive_rows() -> Iterator[Fraction]:
    """a_1, a_2, ... by the self-contained recursion seeded with a_1 = f(1) = 1/24.

    a_m = f(m) - sum_{k=1}^{m-1} C(2m-1, 2k) / (2^{2k} (2k+1)) * a_{m-k};
    no kernel values are consulted.

    The recursion runs in integers.  With u_m = 4^m a_m it reads
    2m (2m+1) u_m = 1 - (2m+1) sum_{k=1}^{m-1} C(2m, 2k+1) u_{m-k}, and
    every u_m is held as U_m = L u_m over a common denominator L of the
    route's own.  When 2m (2m+1) does not divide the right-hand side
    times L, L and every kept term grow by the missing factor.  The terms
    tau(m, k) = C(2m, 2k+1) U_{m-k} step from row to row by small integers:
    tau(m, k) = tau(m-1, k-1) (2m)(2m-1) / ((2k)(2k+1)), since
    C(2m, 2k+1) = C(2m-2, 2k-1) (2m)(2m-1) / ((2k)(2k+1)).  The quotient is
    the integer tau(m, k), so each division is exact.  The row's new term
    tau(m, 1) = C(2m, 3) U_{m-1} is the same step of
    tau(m-1, 0) = C(2m-2, 1) U_{m-1}.  Only L, the last U and the last
    row's terms are kept, in this generator; each row makes one Fraction,
    U_m / (L 4^m).
    """
    unit, last, terms = 1, 0, []  # L, U_(m-1), tau(m-1, k) for k = 1..m-2
    for m in count(1):
        step = 2 * m * (2 * m - 1)
        pairs = zip(range(2, 2 * m, 2), [(2 * m - 2) * last, *terms])  # (2k, tau(m-1, k-1))
        terms = [t * step // (even * (even + 1)) for even, t in pairs]
        total = unit - (2 * m + 1) * sum(terms)
        divisor = 2 * m * (2 * m + 1)
        grow = divisor // gcd(total, divisor)
        if grow > 1:
            unit, terms, total = unit * grow, [t * grow for t in terms], total * grow
        last = total // divisor
        yield Fraction(last, unit << (2 * m))


def a_recursive(n: int) -> Fraction:
    """a_n by the recursion: item n of a fresh ``a_recursive_rows()``, in one O(n^2) pass."""
    if n < 1:
        raise ValueError(f"a_recursive requires n >= 1, got {n}")
    return next(islice(a_recursive_rows(), n - 1, None))


def a_from_bernoulli_rows() -> Iterator[Fraction]:
    """a_1, a_2, ... as a_n = B_{2n} (1 - 2^{1-2n}) / (2n), B_{2n} from the oracle.

    Deliberately reads ``oracles.bernoulli_evens`` rather than this
    module's own ``bernoulli`` so the route stays independent of the
    kernels.  As B_{2n} (4^n - 2) / (2n 4^n) each value is one reduction.
    """
    from . import oracles

    evens = oracles.bernoulli_evens()
    next(evens)  # B_0
    for n, b2n in enumerate(evens, 1):
        yield Fraction(b2n.numerator * ((1 << (2 * n)) - 2), (b2n.denominator * 2 * n) << (2 * n))


def faulhaber_check(n: int, r: int, cache: KernelCache | None = None) -> bool:
    """Check sum_{k=1}^{n-1} k^r against its Bernoulli-polynomial closed form.

    The closed form is sum_{k=0}^{r} B_k C(r+1, k) n^{r-k+1} / (r+1) with
    B_1 = -1/2; even-index B come from this module's kernel route, so a
    passing check exercises the whole pipeline end to end.
    """
    if n < 2 or r < 1:
        raise ValueError(f"faulhaber_check requires n >= 2 and r >= 1, got n={n}, r={r}")
    direct = sum(k**r for k in range(1, n))
    closed = Fraction(0)
    for k in range(r + 1):
        if k == 0:
            b_k = Fraction(1)
        elif k == 1:
            b_k = Fraction(-1, 2)
        elif k % 2:
            continue
        else:
            b_k = bernoulli(k // 2, cache)
        closed += b_k * Fraction(comb(r + 1, k) * n ** (r - k + 1), r + 1)
    return closed == direct
