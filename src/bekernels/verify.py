"""The cross-route check table behind ``bekernels verify`` and the acceptance suite.

Each entry compares two or more routes that the package keeps independent
(see the ``kernels`` docstring): it names a title, the depth it runs at
(``"exact"`` for the O(n^2) routes, ``"brute"`` for the exponential ones)
and a ``pairs(depth)`` generator of ``(where, lhs, rhs)`` triples.
``first_difference`` turns those triples into a verdict.  The CLI caps
the two depths (``cli.EXACT_DEPTH_LIMIT``, ``cli.BRUTE_DEPTH_LIMIT``).

Every entry builds its own ``KernelCache``, so values loaded from cache
files cannot vouch for themselves, and fills it to the depth in one
``kernel_recursive`` call before its first pair: the entries then check
the block step that ``table`` and the scalings run, and the tests cover
the one-row step.  ``kernel_recursive`` fills by the lacunary form of the
defining recurrence, and the determinant's minors follow the defining
recurrence itself, so the recursion-vs-determinant entries check that
lacunary identity against the definition, not only the fill's integer
machinery.  The five O(n^2) entries read each route's row generator
(``determinant_rows``, ``a_recursive_rows``, ``a_from_bernoulli_rows``,
``bernoulli_evens``, ``euler_evens``) in one pass beside the rows they
check; a generator keeps only its last row, so nothing is kept between
calls or loaded from a cache file.  Routes are called through their modules, never
imported by name, so that whatever a module exposes under a route's name
is what the table checks.  The recursion entries read the rows through
``KernelCache.items``, the reader ``table`` prints with.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import partial
from itertools import islice

from . import exactnum, kernels, oracles, sequences
from .kernels import KernelCache, KernelKind

__all__ = ["CHECKS", "Check", "first_difference"]

Pair = tuple[str, Fraction, Fraction]

Check = namedtuple("Check", ["title", "depth", "pairs"])
Check.__doc__ = """One cross-route comparison; ``title`` holds ``{n}`` for the depth."""


def first_difference(pairs: Iterable[Pair]) -> str | None:
    """None when every pair agrees, else a description of the first that does not."""
    for where, lhs, rhs in pairs:
        if lhs != rhs:
            return (
                f"first difference at {where}: "
                f"{exactnum.format_rational(lhs)} vs {exactnum.format_rational(rhs)}"
            )
    return None


def _filled(kind: KernelKind, depth: int) -> KernelCache:
    """A fresh cache, filled to ``depth`` by one call of the recursion."""
    cache = KernelCache(kind)
    kernels.kernel_recursive(kind, depth, cache)
    return cache


def _three_way(kind: KernelKind, depth: int) -> Iterator[Pair]:
    rows = zip(_filled(kind, depth).items(), kernels.determinant_rows(kind))
    for (n, recursive), determinant in islice(rows, 1, depth + 1):
        yield f"n={n} (compositions)", recursive, kernels.kernel_compositions(kind, n)
        yield f"n={n} (determinant)", recursive, determinant


def _recursion_vs_determinant(kind: KernelKind, depth: int) -> Iterator[Pair]:
    rows = zip(_filled(kind, depth).items(), kernels.determinant_rows(kind))
    for (n, recursive), determinant in islice(rows, 1, depth + 1):
        yield f"n={n}", recursive, determinant


def _coefficient_routes(depth: int) -> Iterator[Pair]:
    cache = _filled(KernelKind.BERNOULLI, depth)
    rows = zip(sequences.a_recursive_rows(), sequences.a_from_bernoulli_rows())
    for n, (recursion, scaled) in zip(range(1, depth + 1), rows):
        from_kb = sequences.a_from_kb(n, cache)
        yield f"n={n} (recursion)", from_kb, recursion
        yield f"n={n} (scaled Bernoulli)", from_kb, scaled


def _bernoulli_oracle(depth: int) -> Iterator[Pair]:
    cache = _filled(KernelKind.BERNOULLI, depth)
    for n, oracle in enumerate(islice(oracles.bernoulli_evens(), 1, depth + 1), 1):
        yield f"n={n}", sequences.bernoulli(n, cache), oracle


def _euler_oracle(depth: int) -> Iterator[Pair]:
    # Equality with the integer oracle also shows that E_2n is integral.
    cache = _filled(KernelKind.EULER, depth)
    for n, oracle in enumerate(islice(oracles.euler_evens(), 1, depth + 1), 1):
        yield f"n={n}", sequences.euler(n, cache), Fraction(oracle)


def _g_brute_force(depth: int) -> Iterator[Pair]:
    cache = _filled(KernelKind.BERNOULLI, depth)
    for n in range(1, depth + 1):
        for m0 in range(1, 6):
            closed = sequences.g_closed(n, m0, cache)
            yield f"n={n}, m0={m0}", closed, sequences.g_bruteforce(n, m0)


def _g_m0_independence(depth: int) -> Iterator[Pair]:
    cache = _filled(KernelKind.BERNOULLI, depth)
    for n in range(1, depth + 1):
        for m0 in range(1, 6):
            scaled = -sequences.beta_even(n, m0) * sequences.g_closed(n, m0, cache)
            yield f"n={n}, m0={m0}", scaled, sequences.a_from_kb(n, cache)


_B, _E = KernelKind.BERNOULLI, KernelKind.EULER

CHECKS: tuple[Check, ...] = (
    Check("three-way kernel agreement (kind=b, n=1..{n})", "brute", partial(_three_way, _B)),
    Check("recursion vs determinant (kind=b, n=1..{n})", "exact",
          partial(_recursion_vs_determinant, _B)),
    Check("three-way kernel agreement (kind=e, n=1..{n})", "brute", partial(_three_way, _E)),
    Check("recursion vs determinant (kind=e, n=1..{n})", "exact",
          partial(_recursion_vs_determinant, _E)),
    Check("coefficient route agreement (n=1..{n})", "exact", _coefficient_routes),
    Check("Bernoulli numbers vs tangent-number oracle (n=1..{n})", "exact", _bernoulli_oracle),
    Check("Euler numbers vs Seidel oracle (n=1..{n})", "exact", _euler_oracle),
    Check("g closed form vs brute force (n=1..{n}, m0=1..5)", "brute", _g_brute_force),
    Check("beta-scaled g independent of m0 (n=1..{n})", "brute", _g_m0_independence),
)
