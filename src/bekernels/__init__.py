"""Exact kernel arithmetic for Bernoulli and Euler numbers.

Two rational kernel sequences, computable by recursion, by a signed sum
over integer compositions, and by a Hessenberg determinant, scale directly
to the Bernoulli and Euler numbers and to the coefficients of asymptotic
expansions of Gamma, digamma, polygamma, and Hurwitz zeta.  The exact
layer (``exactnum``, ``compositions``, ``kernels``, ``sequences``,
``oracles``) works entirely in rationals; ``specfun`` converts to
high-precision floats only at evaluation time; ``cli`` exposes both.

Importing the package loads the exact layer only.  ``specfun``, and with
it mpmath, is imported on first use of one of its names here (for
instance ``bekernels.eval_gamma``) or by importing ``bekernels.specfun``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .compositions import Composition, compositions
from .exactnum import (
    ExactRational,
    beta_even,
    factorial,
    format_rational,
    parse_rational,
)
from .kernels import (
    BRUTE_FORCE_SOFT_LIMIT,
    KernelCache,
    KernelKind,
    kernel_compositions,
    kernel_determinant,
    kernel_recursive,
)
from .sequences import (
    a_from_bernoulli,
    a_from_kb,
    a_recursive,
    bernoulli,
    euler,
    f_of,
    faulhaber_check,
    g_bruteforce,
    g_closed,
    j_of,
)
# The evaluators need mpmath, which costs more to import than the whole
# exact layer; they load on first access (PEP 562), so a process that never
# evaluates never imports them.
_SPECFUN_NAMES = {
    "EvalReport",
    "TruncationParams",
    "check_ln_pi_over_e",
    "eval_digamma",
    "eval_gamma",
    "eval_hurwitz_expansion",
    "eval_polygamma",
    "p_term",
    "zeta_direct",
}


def __getattr__(name: str):
    """Resolve the ``specfun`` names, importing ``specfun`` on first use."""
    if name in _SPECFUN_NAMES:
        from . import specfun

        return getattr(specfun, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BRUTE_FORCE_SOFT_LIMIT",
    "Composition",
    "EvalReport",
    "ExactRational",
    "KernelCache",
    "KernelKind",
    "TruncationParams",
    "__version__",
    "a_from_bernoulli",
    "a_from_kb",
    "a_recursive",
    "bernoulli",
    "beta_even",
    "check_ln_pi_over_e",
    "compositions",
    "euler",
    "eval_digamma",
    "eval_gamma",
    "eval_hurwitz_expansion",
    "eval_polygamma",
    "f_of",
    "factorial",
    "faulhaber_check",
    "format_rational",
    "g_bruteforce",
    "g_closed",
    "j_of",
    "kernel_compositions",
    "kernel_determinant",
    "kernel_recursive",
    "p_term",
    "parse_rational",
    "zeta_direct",
]
