"""Command-line front end.

Subcommands: table, kernel, verify, bernoulli, euler, a-coeff, eval,
compositions.  Exit codes: 0 success, 1 verification mismatch, 2 invalid
flags or values, or a persisted table or output that cannot be read or
written.  The parser declares every range (``int_in``), so a value out of
range exits 2, naming the flag and its limit, before any persisted table
is read.  README's table of ceilings gives each limit and the timing that
set it.

``verify --brute`` may not exceed ``--exact`` (exit 2); when omitted it is
12, or ``--exact`` if that is smaller (``verify.run_checks``).

``--upto`` is the flag of ``table``, ``bernoulli``, ``euler`` and ``a-coeff``.

``eval`` has no ceiling yet: it prints floats with ``mp.nstr``, whose cost
grows with the decimal exponent, and that exponent can itself run to
thousands of digits, so no flag alone bounds its time.

``table`` and ``kernel`` compute by the defining recursion, the one fast
route; the compositions and determinant routes stay in ``kernels`` as the
references ``verify`` checks it against.

If KERNEL_CACHE_DIR is set, a command loads the persisted kernel table of
the kind its parser declares (``set_defaults(kind=...)``),
"<dir>/kernel_b.txt" or "<dir>/kernel_e.txt", at startup, and saves that
table there when it ends if the command extended it.  ``table`` and
``kernel`` read their --kind; ``bernoulli`` and ``a-coeff`` read b;
``euler`` reads e; ``verify``, ``eval`` and ``compositions`` read neither.
``eval`` uses at most terms + 1 kernel values, which fill faster than a
persisted file parses.  A file is read, validated and written only by a
command of its kind, so a damaged file is reported by the first command
that reads it.  A file holds one ``n V`` line per cached index, V the
fill's integer P (2n)! K(n) in hex.  A line of another form, such as the
older ``n p/q``, exits 2 naming the file and line when the file is read,
before the command prints anything; a V that is an integer but wrong still
loads.  A directory that cannot be made or is not a directory also exits 2
with empty stdout.

A module loads when a command first uses it.  Every command loads
``cli``, ``compositions``, ``exactnum`` and ``kernels``; ``bernoulli``,
``euler`` and ``a-coeff`` add ``sequences``; ``verify`` adds ``sequences``,
``oracles`` and ``verify``; ``eval`` adds ``sequences`` and ``specfun`` with
mpmath, and fills its few kernel values in the process, reading no
``kernels`` file.  ``json`` loads only for JSON output.

The command-line entry point (``run``: the ``bekernels`` script and
``python -m bekernels``) calls ``gc.freeze()`` after ``main()`` returns and
just before it exits.  CPython's exit-time collection then skips every
object the command made, which saved about 10 ms per process on 2 shared
x86_64 vCPUs.  Nothing in the package needs that collection: files close
in ``with`` blocks, and the cache file is replaced before ``main()``
returns.  ``main()`` itself freezes nothing, so library callers and tests
keep their collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import __version__
from .compositions import compositions
from .exactnum import _no_int_str_limit, format_rational
from .kernels import KernelKind, kernel_recursive, read_cache_file, shared_cache, write_cache_file

_EVAL_DIGITS = 30  # significant digits printed for floats, at most --precision
# Each ceiling sits near where a cold run takes 6-15 s; README's table of
# ceilings gives the timing that set it.
UPTO_LIMIT = 1800  # --upto and kernel --n: a kind-b table to 1800
COMPOSITIONS_LIMIT = 22  # compositions --n: a listing of 2**21 lines
EXACT_DEPTH_LIMIT = 1000  # verify --exact: a multiple of 50 inside the band
BRUTE_DEPTH_LIMIT = 21  # verify --brute: the g walk's time doubles with each n
# Commands that print a scaling of one kernel table: name -> (kind read, index
# step, scaling called through ``sequences`` as ``verify`` calls routes, help).
_SCALED = {
    "bernoulli": ("b", 2, "bernoulli", "print B_2..B_(2*upto)"),
    "euler": ("e", 2, "euler", "print E_2..E_(2*upto)"),
    "a-coeff": ("b", 1, "a_from_kb", "print the expansion coefficients a_1..a_upto"),
}
# eval targets: name -> (evaluator called through ``specfun``, the flag that
# gives its leading argument).  --m0 defaults to 1; --y is required.
_EVAL = {
    "gamma": ("eval_gamma", None),
    "digamma": ("eval_digamma", None),
    "polygamma": ("eval_polygamma", "y"),
    "hurwitz": ("eval_hurwitz_expansion", "m0"),
}


def int_in(low: int, high: int | None = None, why: str = "") -> Callable[[str], int]:
    """An argparse type: an int in low..high (None: no ceiling), kept as its ``low``, ``high``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            reason = f"; {why}" if why else ""
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}{reason}")
        return value

    integer.low, integer.high = low, high
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bekernels",
        description="Exact kernel tables for Bernoulli/Euler numbers and "
        "truncated Gamma-family evaluations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    larger = "larger values come from the library call kernel_recursive"
    upto = int_in(1, UPTO_LIMIT, larger)

    p = sub.add_parser("table", help="print K(n) for n = 1..upto")
    p.add_argument("--kind", choices=["b", "e"], required=True)
    p.add_argument("--upto", type=upto, required=True)
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("kernel", help="print one kernel value K(n)")
    p.add_argument("--kind", choices=["b", "e"], required=True)
    p.add_argument("--n", type=int_in(0, UPTO_LIMIT, larger), required=True)
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("verify", help="run the cross-method and oracle checks")
    p.add_argument("--exact", type=int_in(1, EXACT_DEPTH_LIMIT), default=40,
                   help="depth for O(n^2) routes")
    p.add_argument("--brute", type=int_in(1, BRUTE_DEPTH_LIMIT),
                   help="depth for brute-force routes, at most --exact (default: 12, "
                   "or --exact if that is smaller)")
    p.set_defaults(handler=cmd_verify, kind=None)

    for name, (kind, step, scaling, help_text) in _SCALED.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--upto", type=upto, required=True)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.set_defaults(handler=cmd_scaled, kind=kind, step=step, scaling=scaling)

    p = sub.add_parser("eval", help="evaluate a truncated expansion")
    p.add_argument("target", choices=_EVAL)
    p.add_argument("--x", required=True, help="argument offset (decimal)")
    p.add_argument("--y", type=int_in(1), help="polygamma order (polygamma only)")
    p.add_argument("--m0", type=int_in(1), help="leading index (hurwitz only, default 1)")
    p.add_argument("--terms", type=int_in(0), required=True)
    p.add_argument("--precision", type=int_in(15), default=34)
    p.add_argument("--format", choices=["json", "plain"], default="json")
    p.set_defaults(handler=cmd_eval, kind=None)

    p = sub.add_parser("compositions", help="list the compositions of n")
    listing = int_in(1, COMPOSITIONS_LIMIT, "the listing has 2**(n-1) lines")
    p.add_argument("--n", type=listing, required=True)
    p.set_defaults(handler=cmd_compositions, kind=None)

    return parser


def _print_rows(
    rows: Iterable[tuple[int, Fraction]], format: str, as_json: Callable[[int, str], dict]
) -> None:
    """Print (index, value) rows: a JSON list of ``as_json(index, text)``, csv or tab-separated.

    The JSON list is printed one item at a time, as the bytes of
    ``json.dumps(items, indent=2)`` for a non-empty list, so no row's text
    is held twice.
    """
    if format == "json":
        import json

        lead = "[\n  "
        for i, v in rows:
            item = json.dumps(as_json(i, format_rational(v)), indent=2)
            print(lead + item.replace("\n", "\n  "), end="")
            lead = ",\n  "
        print("\n]")
    else:
        separator = "," if format == "csv" else "\t"
        for i, v in rows:
            print(f"{i}{separator}{format_rational(v)}")


def cmd_table(args: argparse.Namespace) -> int:
    kind = KernelKind(args.kind)
    kernel_recursive(kind, args.upto)  # one fill, then one pass with (2n)! stepped along the rows
    rows = islice(shared_cache(kind).items(), 1, args.upto + 1)
    _print_rows(rows, args.format, lambda n, text: {
        "n": n, "value": text, "method": "recursion", "kind": kind.value})
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    print(format_rational(kernel_recursive(KernelKind(args.kind), args.n)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    failed = False
    for name, problem in verify.run_checks(args.exact, args.brute):
        print(f"PASS {name}" if problem is None else f"FAIL {name}: {problem}")
        failed = failed or problem is not None
    return int(failed)


def cmd_scaled(args: argparse.Namespace) -> int:
    from . import sequences

    scale = getattr(sequences, args.scaling)
    kernel_recursive(KernelKind(args.kind), args.upto)  # one fill; the rows read its integers
    rows = ((args.step * n, scale(n)) for n in range(1, args.upto + 1))
    _print_rows(rows, args.format, lambda i, text: {"index": i, "value": text})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    evaluator, flag = _EVAL[args.target]
    if args.y is not None and flag != "y":
        raise ValueError("--y only applies to the polygamma target")
    if args.m0 is not None and flag != "m0":
        raise ValueError("--m0 only applies to the hurwitz target")
    if flag == "y" and args.y is None:
        raise ValueError("the polygamma target requires --y")
    from . import specfun

    leading = () if flag is None else (getattr(args, flag) or 1,)
    params = specfun.TruncationParams(args.terms, args.precision)
    report = getattr(specfun, evaluator)(*leading, args.x, params)
    digits = min(_EVAL_DIGITS, args.precision)  # no digit past the precision asked for
    nstr = specfun.mp.nstr
    payload = {
        "value": nstr(report.value, digits),
        "terms": report.terms_used,
        "bound": nstr(report.first_omitted_term_bound, digits),
        "reference": nstr(report.reference, digits),
        "abs_error": nstr(report.abs_error, digits),
    }
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for key, rendered in payload.items():
            print(f"{key} = {rendered}")
    return 0


def cmd_compositions(args: argparse.Namespace) -> int:
    for parts in compositions(args.n):
        print(",".join(map(str, parts)))
    return 0


def main(argv: list[str] | None = None) -> int:
    # The int <-> str limit is lifted for this call only, so later code in
    # the process keeps its own.
    with _no_int_str_limit():
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        # The persisted table of the kind the parser declared: its directory
        # made and the file loaded before the command runs, so a bad one
        # fails before anything is printed; saved after it only if the
        # command extended it.
        cache_dir = os.environ.get("KERNEL_CACHE_DIR")
        path = Path(cache_dir, f"kernel_{args.kind}.txt") if cache_dir and args.kind else None
        try:
            if path is not None:
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise ValueError(
                        f"KERNEL_CACHE_DIR={cache_dir} is not a usable directory: {exc}"
                    ) from exc
                table = shared_cache(KernelKind(args.kind))
                if path.exists():
                    read_cache_file(path, table)
                loaded = len(table)
            code = args.handler(args)
            if path is not None and len(table) > loaded:
                write_cache_file(table, path)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return code


def run() -> None:
    """The ``bekernels`` script and ``python -m bekernels``: ``main()``, freeze, exit with its code.

    ``gc.disable()`` would not stop CPython's exit-time collection; objects
    in the permanent generation, where ``gc.freeze()`` moves them, are left
    out of it.  atexit handlers and the flush of stdio still run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)
