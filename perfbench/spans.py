"""Tracing from outside the package: wrappers around public functions.

``install`` replaces each function listed in ``WRAPPED`` by a wrapper and
rebinds the name in every ``bekernels`` module that holds the original, so
calls between modules go through the wrapper too.  A wrapper records a
span (id, name, start, end, parent span, op id) and the counters that
belong to its layer.  Functions called tens of thousands of times per op
(``factorial``) and generators (``compositions``) are counted, not spanned,
so their time stays in the caller's self time.

Spans live in memory until the run writes them out.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time
import types
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

# (defining module, function name, wrapper style)
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("exactnum", "factorial", "count"),
    ("exactnum", "format_rational", "span"),
    ("exactnum", "parse_rational", "span"),
    ("compositions", "compositions", "tuples"),
    ("kernels", "kernel_recursive", "fill"),
    ("kernels", "kernel_compositions", "span"),
    ("kernels", "kernel_determinant", "span"),
    ("kernels", "read_cache_file", "span"),
    ("kernels", "write_cache_file", "write"),
    ("oracles", "bernoulli_numbers", "span"),
    ("oracles", "bernoulli_even", "span"),
    ("oracles", "zigzag_numbers", "span"),
    ("oracles", "euler_even", "span"),
    ("sequences", "bernoulli", "span"),
    ("sequences", "euler", "span"),
    ("sequences", "a_from_kb", "span"),
    ("sequences", "g_closed", "span"),
    ("sequences", "a_recursive", "span"),
    ("sequences", "g_bruteforce", "span"),
    ("specfun", "eval_gamma", "span"),
    ("specfun", "eval_digamma", "span"),
    ("specfun", "eval_hurwitz_expansion", "span"),
    ("specfun", "eval_polygamma", "span"),
    ("specfun", "zeta_direct", "span"),
    ("cli", "main", "span"),
)

# ``specfun`` calls its Gamma reference as ``mpmath.gamma``; the name it
# holds is the module, so the module is rebound to a proxy there.
GAMMA_REF_SPAN = "specfun.mpmath.gamma"

# Per-layer self-time metrics and the spans whose self time they sum.
SELF_TIME_LAYERS: Dict[str, Tuple[str, ...]] = {
    "kernels.fill_s": ("kernels.kernel_recursive",),
    "kernels.cache_read_s": ("kernels.read_cache_file",),
    "kernels.cache_write_s": ("kernels.write_cache_file",),
    "exactnum.parse_s": ("exactnum.parse_rational",),
    "kernels.determinant_s": ("kernels.kernel_determinant",),
    "kernels.compositions_s": ("kernels.kernel_compositions",),
    "oracles.bernoulli_s": ("oracles.bernoulli_even", "oracles.bernoulli_numbers"),
    "oracles.zigzag_s": ("oracles.euler_even", "oracles.zigzag_numbers"),
    "sequences.a_recursive_s": ("sequences.a_recursive",),
    "sequences.g_bruteforce_s": ("sequences.g_bruteforce",),
    "sequences.scale_s": (
        "sequences.bernoulli",
        "sequences.euler",
        "sequences.a_from_kb",
        "sequences.g_closed",
    ),
    "exactnum.format_s": ("exactnum.format_rational",),
    "specfun.eval_self_s": (
        "specfun.eval_gamma",
        "specfun.eval_digamma",
        "specfun.eval_hurwitz_expansion",
        "specfun.eval_polygamma",
    ),
    "specfun.zeta_direct_s": ("specfun.zeta_direct",),
    "specfun.gamma_ref_s": (GAMMA_REF_SPAN,),
}


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: Optional[int]
    op: Optional[int]


class Tracer:
    """Collects spans and counters for one traced run, single-threaded."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: collections.Counter = collections.Counter()
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = Span(sid, name, start, end, parent, self.op)

        return wrapper

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def dump(self, path) -> None:
        """Write spans as JSON lines, then one line of counters."""
        with open(path, "w", encoding="ascii") as out:
            for s in self.finished():
                out.write(json.dumps(list(s)) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _package_modules(package) -> List[types.ModuleType]:
    names = ("exactnum", "compositions", "kernels", "oracles", "sequences", "specfun", "cli")
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


def install(tracer: Tracer, package) -> None:
    """Wrap every function in WRAPPED and rebind it wherever the package holds it."""
    modules = _package_modules(package)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    kernels = by_name["kernels"]
    for module_name, fn_name, style in WRAPPED:
        original = getattr(by_name[module_name], fn_name)
        span_name = f"{module_name}.{fn_name}"
        if style == "count":
            wrapper = _counting(tracer, "exactnum.factorial_calls", original)
        elif style == "tuples":
            wrapper = _tuple_counting(tracer, original)
        elif style == "fill":
            wrapper = tracer.span(span_name, _fill_counting(tracer, kernels, original))
        elif style == "write":
            wrapper = tracer.span(span_name, _write_counting(tracer, original))
        else:
            wrapper = tracer.span(span_name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    specfun = by_name["specfun"]
    specfun.mpmath = _GammaProxy(specfun.mpmath, tracer.span(GAMMA_REF_SPAN, specfun.mpmath.gamma))


class _GammaProxy:
    """Stands in for the ``mpmath`` module inside ``specfun``; only ``gamma`` differs."""

    def __init__(self, module, gamma) -> None:
        self._module = module
        self.gamma = gamma

    def __getattr__(self, name):
        return getattr(self._module, name)


def _counting(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _tuple_counting(tracer: Tracer, fn):
    def counted(parts_iter):
        for parts in parts_iter:
            tracer.counts["compositions.tuples"] += 1
            yield parts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return counted(fn(*args, **kwargs))  # fn validates its argument before iterating

    return wrapper


def _fill_counting(tracer: Tracer, kernels, fn):
    @functools.wraps(fn)
    def wrapper(kind, n, cache=None):
        target = cache if cache is not None else kernels.shared_cache(kind)
        before = len(target)
        try:
            return fn(kind, n, cache)
        finally:
            added = len(target) - before
            tracer.counts["kernels.calls"] += 1
            tracer.counts["kernels.fill_values"] += added
            if added == 0:
                tracer.counts["kernels.lookups"] += 1
            if cache is None:  # the process-wide cache, the one the CLI persists
                tracer.counts["kernels.shared_calls"] += 1
                tracer.counts["kernels.shared_fill_values"] += added

    return wrapper


def _write_counting(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(cache, path):
        fn(cache, path)
        tracer.counts["kernels.cache_bytes_written"] += os.path.getsize(path)

    return wrapper


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        result[s.id] = (s.end - s.start) - covered
    return result


def layer_self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Sum of self time per SELF_TIME_LAYERS metric, in seconds."""
    spans = list(spans)
    own = self_times(spans)
    by_name: Dict[str, int] = collections.Counter()
    for s in spans:
        by_name[s.name] += own[s.id]
    return {
        metric: sum(by_name.get(name, 0) for name in names) / 1e9
        for metric, names in SELF_TIME_LAYERS.items()
    }
