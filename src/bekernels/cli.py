"""Command-line front end.

Subcommands: table, kernel, verify, bernoulli, euler, a-coeff, eval,
compositions.  Exit codes: 0 success, 1 verification mismatch,
2 invalid flags or values, including a size past a command's limit.

``table`` and ``kernel`` compute by the defining recursion, the one fast
route; the compositions and determinant routes stay in ``kernels`` as the
references ``verify`` checks it against.

If KERNEL_CACHE_DIR is set, a command loads the persisted kernel table
of the kind it reads, "<dir>/kernel_b.txt" or "<dir>/kernel_e.txt", at
startup, and saves that table there when it ends if the command extended
it.  ``table`` and ``kernel`` read their --kind; ``bernoulli``,
``a-coeff`` and ``eval`` read b; ``euler`` reads e; ``verify`` and
``compositions`` read neither.  A file is read, validated and written only
by a command of its kind, so a damaged file is reported by the first
command that reads it.

Only ``eval`` imports ``specfun`` and mpmath; the other commands run on
the exact layer alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__, verify
from .compositions import compositions
from .exactnum import format_rational
from .kernels import (
    BRUTE_FORCE_SOFT_LIMIT,
    KernelKind,
    kernel_recursive,
    read_cache_file,
    shared_cache,
    write_cache_file,
)
from .sequences import a_from_kb, bernoulli, euler

_CACHE_FILES = {KernelKind.BERNOULLI: "kernel_b.txt", KernelKind.EULER: "kernel_e.txt"}
# The persisted table each command without --kind reads: the evaluators
# take their coefficients from the shared K_b cache (a_from_kb, g_closed).
_KIND_READ = {"bernoulli": "b", "a-coeff": "b", "eval": "b", "euler": "e"}
_EVAL_DIGITS = 30  # significant digits printed for high-precision floats


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def precision_arg(text: str) -> int:
    value = int(text)
    if value < 15:
        raise argparse.ArgumentTypeError(f"working precision must be >= 15, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bekernels",
        description="Exact kernel tables for Bernoulli/Euler numbers and "
        "truncated Gamma-family evaluations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print K(n) for n = 1..upto")
    p.add_argument("--kind", choices=["b", "e"], required=True)
    p.add_argument("--upto", type=positive_int, required=True)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("kernel", help="print one kernel value K(n)")
    p.add_argument("--kind", choices=["b", "e"], required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("verify", help="run the cross-method and oracle checks")
    p.add_argument("--exact", type=positive_int, default=40, help="depth for O(n^2) routes")
    p.add_argument("--brute", type=positive_int, default=12, help="depth for brute-force routes")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bernoulli", help="print B_2..B_(2*upto)")
    p.add_argument("--upto", type=positive_int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=cmd_bernoulli)

    p = sub.add_parser("euler", help="print E_2..E_(2*upto)")
    p.add_argument("--upto", type=positive_int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=cmd_euler)

    p = sub.add_parser("a-coeff", help="print the expansion coefficients a_1..a_upto")
    p.add_argument("--upto", type=positive_int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=cmd_a_coeff)

    p = sub.add_parser("eval", help="evaluate a truncated expansion")
    p.add_argument("target", choices=["gamma", "digamma", "polygamma", "hurwitz"])
    p.add_argument("--x", required=True, help="argument offset (decimal)")
    p.add_argument("--y", type=positive_int, help="polygamma order (polygamma only)")
    p.add_argument("--m0", type=positive_int, help="leading index (hurwitz only, default 1)")
    p.add_argument("--terms", type=nonnegative_int, required=True)
    p.add_argument("--precision", type=precision_arg, default=34)
    p.add_argument("--format", choices=["json", "plain"], default="json")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("compositions", help="list the compositions of n")
    p.add_argument("--n", type=positive_int, required=True)
    p.set_defaults(handler=cmd_compositions)

    return parser


def cmd_table(args: argparse.Namespace) -> int:
    kind = KernelKind(args.kind)
    rows = [(n, kernel_recursive(kind, n)) for n in range(1, args.upto + 1)]
    if args.format == "json":
        payload = [
            {"n": n, "value": format_rational(value), "method": "recursion", "kind": kind.value}
            for n, value in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        separator = "," if args.format == "csv" else "\t"
        for n, value in rows:
            print(f"{n}{separator}{format_rational(value)}")
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    print(format_rational(kernel_recursive(KernelKind(args.kind), args.n)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.brute > args.exact:
        raise ValueError(f"--brute ({args.brute}) must not exceed --exact ({args.exact})")
    if args.brute > verify.BRUTE_DEPTH_LIMIT:
        raise ValueError(
            f"--brute ({args.brute}) must not exceed the g brute-force limit "
            f"({verify.BRUTE_DEPTH_LIMIT})"
        )
    failed = False
    for check in verify.CHECKS:
        depth = args.exact if check.depth == "exact" else args.brute
        name = check.title.format(n=depth)
        problem = verify.first_difference(check.pairs(depth))
        if problem is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {problem}")
            failed = True
    return 1 if failed else 0


def _print_indexed(rows: List[Tuple[int, Fraction]], fmt: str) -> None:
    if fmt == "json":
        payload = [{"index": i, "value": format_rational(v)} for i, v in rows]
        print(json.dumps(payload, indent=2))
    else:
        for i, v in rows:
            print(f"{i},{format_rational(v)}")


def cmd_bernoulli(args: argparse.Namespace) -> int:
    _print_indexed([(2 * n, bernoulli(n)) for n in range(1, args.upto + 1)], args.format)
    return 0


def cmd_euler(args: argparse.Namespace) -> int:
    _print_indexed([(2 * n, euler(n)) for n in range(1, args.upto + 1)], args.format)
    return 0


def cmd_a_coeff(args: argparse.Namespace) -> int:
    _print_indexed([(n, a_from_kb(n)) for n in range(1, args.upto + 1)], args.format)
    return 0


def _render_float(value) -> Optional[str]:
    if value is None:
        return None
    from mpmath import mp

    return mp.nstr(value, _EVAL_DIGITS)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.y is not None and args.target != "polygamma":
        raise ValueError("--y only applies to the polygamma target")
    if args.m0 is not None and args.target != "hurwitz":
        raise ValueError("--m0 only applies to the hurwitz target")
    if args.target == "polygamma" and args.y is None:
        raise ValueError("the polygamma target requires --y")
    from .specfun import (
        TruncationParams,
        eval_digamma,
        eval_gamma,
        eval_hurwitz_expansion,
        eval_polygamma,
    )

    params = TruncationParams(args.terms, args.precision)
    if args.target == "gamma":
        report = eval_gamma(args.x, params)
    elif args.target == "digamma":
        report = eval_digamma(args.x, params)
    elif args.target == "polygamma":
        report = eval_polygamma(args.y, args.x, params)
    else:
        report = eval_hurwitz_expansion(args.m0 or 1, args.x, params)
    payload = {
        "value": _render_float(report.value),
        "terms": report.terms_used,
        "bound": _render_float(report.first_omitted_term_bound),
        "reference": _render_float(report.reference),
        "abs_error": _render_float(report.abs_error),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, rendered in payload.items():
            print(f"{key} = {rendered}")
    return 0


def cmd_compositions(args: argparse.Namespace) -> int:
    if args.n > BRUTE_FORCE_SOFT_LIMIT:
        raise ValueError(
            f"--n ({args.n}) must not exceed the compositions listing limit "
            f"({BRUTE_FORCE_SOFT_LIMIT}); the listing has 2**(n-1) lines"
        )
    for parts in compositions(args.n):
        print(",".join(map(str, parts)))
    return 0


def _cache_dir() -> Optional[Path]:
    raw = os.environ.get("KERNEL_CACHE_DIR")
    return Path(raw) if raw else None


def _kinds_read(args: argparse.Namespace) -> Tuple[KernelKind, ...]:
    code = getattr(args, "kind", None) or _KIND_READ.get(args.command)
    return (KernelKind(code),) if code else ()


def _load_persisted(kinds: Tuple[KernelKind, ...]) -> Dict[KernelKind, int]:
    """Load the persisted tables of ``kinds``; return each table's length after."""
    directory = _cache_dir()
    for kind in kinds:
        if directory is not None and (directory / _CACHE_FILES[kind]).exists():
            read_cache_file(directory / _CACHE_FILES[kind], shared_cache(kind))
    return {kind: len(shared_cache(kind)) for kind in kinds}


def _store_persisted(loaded: Dict[KernelKind, int]) -> None:
    """Save each loaded table the command grew; a kind it did not load is never written."""
    directory = _cache_dir()
    if directory is None:
        return
    for kind, length in loaded.items():
        cache = shared_cache(kind)
        if len(cache) > length:
            directory.mkdir(parents=True, exist_ok=True)
            write_cache_file(cache, directory / _CACHE_FILES[kind])


def main(argv: Optional[List[str]] = None) -> int:
    # Kernel values pass 4300 digits, Python's default int<->str limit, near n = 780.
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        loaded = _load_persisted(_kinds_read(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _store_persisted(loaded)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    sys.exit(main())
