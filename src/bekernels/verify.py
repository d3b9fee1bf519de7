"""The cross-route check table behind ``bekernels verify`` and the acceptance suite.

Each entry compares two or more routes that the package keeps independent
(see the ``kernels`` docstring): it names a title, the kind it reads, the
depth it runs at (``"exact"`` for the O(n^2) routes, ``"brute"`` for the
exponential ones) and a ``pairs(cache, depth)`` generator of
``(where, lhs, rhs)`` triples.  ``run_checks`` runs the table for the CLI
and the tests alike; the CLI caps the two depths
(``cli.EXACT_DEPTH_LIMIT``, ``cli.BRUTE_DEPTH_LIMIT``).

A run fills one fresh ``KernelCache`` per kind it reads, never the
process-wide one, to the exact depth in one ``kernel_recursive`` call:
values loaded from cache files cannot vouch for themselves, and each kind
is filled once.  The entries check the block step that ``table`` and the
scalings run, and the tests cover the one-row step.  ``kernel_recursive``
fills by the lacunary form of the defining recurrence, and the
determinant's minors follow the defining recurrence itself, so the
recursion-vs-determinant entries check that lacunary identity against the
definition, not only the fill's integer machinery.  The five O(n^2)
entries read the routes' row generators (``determinant_rows``,
``a_recursive_rows``, ``bernoulli_evens``, ``euler_evens``) in one pass
beside the rows they check; a generator keeps only its last row, so
nothing is kept between calls or loaded from a cache file.  The
tangent-number entry checks ``bernoulli`` against each B_2n and
``a_from_kb`` against B_2n (4^n - 2) / (2n 4^n), so the tangent loop runs
once.  Routes are called through their modules, never imported by name, so
that whatever a module exposes under a route's name is what the table
checks.  The recursion entries read the rows through
``KernelCache.items``, the reader ``table`` prints with.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

from . import exactnum, kernels, oracles, sequences
from .kernels import KernelCache, KernelKind

__all__ = ["CHECKS", "Check", "first_difference", "run_checks"]

Pair = tuple[str, Fraction, Fraction]

Check = namedtuple("Check", ["title", "kind", "depth", "pairs"])
Check.__doc__ = """One cross-route comparison; ``title`` holds ``{n}`` for the depth."""


def first_difference(pairs: Iterable[Pair]) -> str | None:
    """None when every pair agrees, else a description of the first that does not."""
    for where, lhs, rhs in pairs:
        if lhs != rhs:
            with exactnum._no_int_str_limit():  # for a library call too, not only the CLI's
                return (
                    f"first difference at {where}: "
                    f"{exactnum.format_rational(lhs)} vs {exactnum.format_rational(rhs)}"
                )
    return None


def run_checks(exact: int, brute: int | None = None) -> Iterator[tuple[str, str | None]]:
    """(title, ``first_difference``) of each entry of ``CHECKS``, in order.

    An omitted ``brute`` is min(12, ``exact``); a larger one raises ValueError up front.
    """
    brute = min(12, exact) if brute is None else brute
    if brute > exact:
        raise ValueError(f"--brute ({brute}) must not exceed --exact ({exact})")
    caches = {kind: KernelCache(kind) for kind in dict.fromkeys(check.kind for check in CHECKS)}
    for kind, cache in caches.items():
        kernels.kernel_recursive(kind, exact, cache)
    for check in CHECKS:
        depth = exact if check.depth == "exact" else brute
        yield check.title.format(n=depth), first_difference(check.pairs(caches[check.kind], depth))


def _three_way(cache: KernelCache, depth: int) -> Iterator[Pair]:
    rows = zip(cache.items(), kernels.determinant_rows(cache.kind))
    for (n, recursive), determinant in islice(rows, 1, depth + 1):
        yield f"n={n} (compositions)", recursive, kernels.kernel_compositions(cache.kind, n)
        yield f"n={n} (determinant)", recursive, determinant


def _recursion_vs_determinant(cache: KernelCache, depth: int) -> Iterator[Pair]:
    rows = zip(cache.items(), kernels.determinant_rows(cache.kind))
    for (n, recursive), determinant in islice(rows, 1, depth + 1):
        yield f"n={n}", recursive, determinant


def _coefficient_routes(cache: KernelCache, depth: int) -> Iterator[Pair]:
    for n, recursion in zip(range(1, depth + 1), sequences.a_recursive_rows()):
        yield f"n={n} (recursion)", sequences.a_from_kb(n, cache), recursion


def _bernoulli_oracle(cache: KernelCache, depth: int) -> Iterator[Pair]:
    for n, oracle in enumerate(islice(oracles.bernoulli_evens(), 1, depth + 1), 1):
        yield f"n={n}", sequences.bernoulli(n, cache), oracle
        scaled = Fraction(oracle.numerator * ((1 << (2 * n)) - 2),
                          (oracle.denominator * 2 * n) << (2 * n))
        yield f"n={n} (scaled Bernoulli)", sequences.a_from_kb(n, cache), scaled


def _euler_oracle(cache: KernelCache, depth: int) -> Iterator[Pair]:
    # Equality with the integer oracle also shows that E_2n is integral.
    for n, oracle in enumerate(islice(oracles.euler_evens(), 1, depth + 1), 1):
        yield f"n={n}", sequences.euler(n, cache), Fraction(oracle)


def _g_brute_force(cache: KernelCache, depth: int) -> Iterator[Pair]:
    for n in range(1, depth + 1):
        for m0 in range(1, 6):
            closed = sequences.g_closed(n, m0, cache)
            yield f"n={n}, m0={m0}", closed, sequences.g_bruteforce(n, m0)


def _g_m0_independence(cache: KernelCache, depth: int) -> Iterator[Pair]:
    for n in range(1, depth + 1):
        for m0 in range(1, 6):
            scaled = -sequences.beta_even(n, m0) * sequences.g_closed(n, m0, cache)
            yield f"n={n}, m0={m0}", scaled, sequences.a_from_kb(n, cache)


_B, _E = KernelKind.BERNOULLI, KernelKind.EULER

CHECKS: tuple[Check, ...] = (
    Check("three-way kernel agreement (kind=b, n=1..{n})", _B, "brute", _three_way),
    Check("recursion vs determinant (kind=b, n=1..{n})", _B, "exact", _recursion_vs_determinant),
    Check("three-way kernel agreement (kind=e, n=1..{n})", _E, "brute", _three_way),
    Check("recursion vs determinant (kind=e, n=1..{n})", _E, "exact", _recursion_vs_determinant),
    Check("coefficient route agreement (n=1..{n})", _B, "exact", _coefficient_routes),
    Check("Bernoulli numbers vs tangent-number oracle (n=1..{n})", _B, "exact", _bernoulli_oracle),
    Check("Euler numbers vs Seidel oracle (n=1..{n})", _E, "exact", _euler_oracle),
    Check("g closed form vs brute force (n=1..{n}, m0=1..5)", _B, "brute", _g_brute_force),
    Check("beta-scaled g independent of m0 (n=1..{n})", _B, "brute", _g_m0_independence),
)
