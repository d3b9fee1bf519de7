"""Exact kernel arithmetic for Bernoulli and Euler numbers.

Two rational kernel sequences, computable by recursion, by a signed sum
over integer compositions, and by a Hessenberg determinant, scale directly
to the Bernoulli and Euler numbers and to the coefficients of asymptotic
expansions of Gamma, digamma, polygamma, and Hurwitz zeta.  The exact
layer (``exactnum``, ``compositions``, ``kernels``, ``sequences``,
``oracles``) works entirely in rationals; ``specfun`` converts to
high-precision floats only at evaluation time; ``cli`` exposes both.

A module loads when something from it is first used.  ``_EXPORTS`` maps
each public name to the module that defines it; the first access to a
name here (for instance ``bekernels.eval_gamma``, which brings in
``specfun`` and mpmath) imports that module and keeps the name in this
namespace, so later accesses cost a dict lookup.  Importing the package
itself loads ``compositions`` alone; the note at the end says why.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "compositions": ("compositions",),
        "exactnum": ("factorial", "format_rational", "parse_rational"),
        "kernels": (
            "KernelCache", "KernelKind", "determinant_rows", "kernel_compositions",
            "kernel_determinant", "kernel_recursive",
        ),
        "sequences": (
            "a_from_kb", "a_recursive", "a_recursive_rows", "bernoulli", "beta_even", "euler",
            "f_of", "faulhaber_check", "g_bruteforce", "g_closed", "j_of",
        ),
        "specfun": (
            "EvalReport", "TruncationParams", "check_ln_pi_over_e", "eval_digamma",
            "eval_gamma", "eval_hurwitz_expansion", "eval_polygamma", "zeta_direct",
        ),
    }.items()
    for name in names
}

__all__ = sorted(["__version__", *_EXPORTS])


def __getattr__(name: str):
    """Resolve a public name from its module on first use (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


# ``compositions`` is also the name of its module, and importing a submodule
# binds the module's name in the package, where ``__getattr__`` never sees it.
# Resolved now, the name keeps naming the function whoever imports the module.
compositions = __getattr__("compositions")
