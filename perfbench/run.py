"""Benchmark for bekernels: exact tables, truncated evaluations, CLI sessions.

    python3 perfbench/run.py --workload tables_cold|evals|cli_session \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the same figures for
a reader, with sample counts, the tail percentile and known-defect probes.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
(median of several fresh interpreters importing the package and warming
up), throughput, median and tail op latency, and peak RSS.  A run is a
sequence of cycles of the same make-up; how many follows from
``--seconds`` and the workload's nominal cycle time, not from the speed
measured, so every run of a workload at one ``--seconds`` does the same
number of ops.  With
``--trace 1`` it runs the same ops twice, first untraced and then with the
wrappers of ``spans.py`` installed, and reports per-layer self times and
counters per op, plus the tracing overhead between the two passes.
Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import metrics
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# A run stops starting cycles once its op time passes this many times
# --seconds, so a much slower program still ends in time.
CAP_FACTOR = 2.5


class OpResult(NamedTuple):
    op: Dict
    seconds: float
    error: Optional[str]
    rss_kib: Optional[int]


def run_op(wl, op: Dict) -> OpResult:
    start = time.perf_counter()
    try:
        seconds, output, rss = wl.execute(op)
    except workloads.DeadlineExceeded:
        return OpResult(op, time.perf_counter() - start, f"missed the {wl.deadline_s:g} s deadline", None)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return OpResult(op, time.perf_counter() - start, f"raised {exc!r}"[:200], None)
    return OpResult(op, seconds, wl.check(op, output), rss)


def cycle_count(wl, seconds: float) -> int:
    """Cycles in a run of ``seconds``: from the nominal cycle time, never from a measurement."""
    return max(1, round(seconds / wl.cycle_seconds))


def run_stream(wl, seed: int, cycles_wanted: int, cap_seconds: float, after_op=None):
    """``cycles_wanted`` whole cycles, fewer only past ``cap_seconds`` of op time; one result list per cycle."""
    rng = random.Random(f"{wl.name}:{seed}")
    cycles: List[List[OpResult]] = []
    busy, index = 0.0, 0
    while len(cycles) < cycles_wanted and busy < cap_seconds:
        results = []
        for op in wl.cycle(rng, len(cycles)):
            if after_op is not None:
                after_op.before(index)
            results.append(run_op(wl, op))
            if after_op is not None:
                after_op.after(index)
            busy += results[-1].seconds
            index += 1
        cycles.append(results)
    return cycles


def run_child(mode: str, name: str):
    """Run ``child.py MODE WORKLOAD``; (seconds, peak RSS in KiB of that process)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode, name], cwd=ROOT)
    # A blocking wait: ``wait(timeout)`` polls in steps of up to 50 ms.
    code, rss_kib = workloads.wait_child(proc, 120)
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"child.py {mode} {name} exited {code}")
    return seconds, rss_kib


def measure_setup(name: str) -> float:
    return metrics.median([run_child("setup", name)[0] for _ in range(SETUP_REPEATS)])


class InProcessTrace:
    """Labels spans with the op index; the tracer is installed in this process."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.hits: List[bool] = []  # the persisted cache is the CLI's; in-process ops never load it

    def before(self, index: int) -> None:
        self.tracer.op = index

    def after(self, index: int) -> None:
        self.tracer.op = None

    def spans(self):
        return self.tracer.finished()

    def counts(self):
        return self.tracer.counts


class ChildTrace:
    """Collects the spans each traced CLI child wrote, renumbered into one list.

    ``hits`` has one entry per op that used the process-wide kernel cache,
    the one the CLI loads from and writes to KERNEL_CACHE_DIR: True when
    the op computed no new kernel value, so everything it needed had been
    loaded.  Ops that use only caches of their own (verify) or no kernels
    (polygamma) have no entry.
    """

    def __init__(self, spans_file: Path) -> None:
        self.file = spans_file
        self.all: List = []
        self._counts: collections.Counter = collections.Counter()
        self.hits: List[bool] = []

    def before(self, index: int) -> None:
        self.file.unlink(missing_ok=True)

    def after(self, index: int) -> None:
        if not self.file.exists():
            return
        offset = len(self.all)
        with open(self.file, encoding="ascii") as lines:
            for line in lines:
                record = json.loads(line)
                if isinstance(record, dict):
                    counts = record["counts"]
                    self._counts.update(counts)
                    if counts.get("kernels.shared_calls"):
                        self.hits.append(counts.get("kernels.shared_fill_values", 0) == 0)
                    continue
                sid, name, start, end, parent = record[:5]
                self.all.append(
                    spans.Span(sid + offset, name, start, end, None if parent is None else parent + offset, index)
                )

    def spans(self):
        return self.all

    def counts(self):
        return self._counts


def end_to_end(cycles: List[List[OpResult]], setup_s: float, rss_mb: float):
    """Throughput, median and tail latency over every op of the run.

    ops_per_s is passed ops per second of op time.  The tail's rank (ten
    ops beyond) falls in the same class of op on every run because the
    number of cycles is fixed by --seconds; with one cycle more or fewer
    it would move to another size tier.
    """
    seconds = [r.seconds for c in cycles for r in c]
    passed = sum(r.error is None for c in cycles for r in c)
    tail = metrics.tail(seconds)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": passed / sum(seconds), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * metrics.median(seconds), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail.value, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }, tail


def per_layer(trace, results: List[OpResult], overhead: float) -> Dict[str, Dict]:
    ops = len(results)
    recorded = trace.spans()
    counts = trace.counts()
    layers = spans.layer_self_seconds(recorded)
    out = {name: {"value": seconds / ops, "unit": "s/op"} for name, seconds in layers.items()}
    calls = counts.get("kernels.calls", 0)
    main_ns = sum(s.end - s.start for s in recorded if s.name == "cli.main")
    zeta_calls = sum(1 for s in recorded if s.name == "specfun.zeta_direct")
    hits = trace.hits
    out.update(
        {
            "kernels.fill_values": {"value": counts.get("kernels.fill_values", 0) / ops, "unit": "count/op"},
            "kernels.lookup_ratio": {"value": counts.get("kernels.lookups", 0) / calls if calls else 0.0, "unit": "ratio"},
            "kernels.cache_bytes_written": {"value": counts.get("kernels.cache_bytes_written", 0) / ops, "unit": "B/op"},
            "compositions.tuples": {"value": counts.get("compositions.tuples", 0) / ops, "unit": "count/op"},
            "exactnum.factorial_calls": {"value": counts.get("exactnum.factorial_calls", 0) / ops, "unit": "count/op"},
            "specfun.zeta_direct_calls": {"value": zeta_calls / ops, "unit": "count/op"},
            "cli.main_s": {"value": main_ns / 1e9 / ops, "unit": "s/op"},
            "cli.startup_s": {"value": counts.get("cli.startup_ns", 0) / 1e9 / ops, "unit": "s/op"},
            "cli.cache_hit_share": {"value": sum(hits) / len(hits) if hits else 0.0, "unit": "ratio"},
            "trace.overhead_ratio": {"value": overhead, "unit": "ratio"},
        }
    )
    return out


def write_spans(recorded, path: Path) -> None:
    with open(path, "w", encoding="ascii") as out:
        for s in recorded:
            out.write(json.dumps(list(s)) + "\n")


def describe(op: Dict) -> str:
    return " ".join(f"{k}={v}" for k, v in op.items())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bekernels" / "__init__.py").is_file():
        print(f"error: no package at {src / 'bekernels'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bekernels

    if Path(bekernels.__file__).resolve().parent != (src / "bekernels").resolve():
        print(f"error: imported bekernels from {bekernels.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, work_root: Path) -> int:
    wl = workloads.WORKLOADS[args.workload](ROOT)
    setup_s = None if args.trace else measure_setup(wl.name)
    wl.warm_up()
    wl.prepare_checks()
    start_session = getattr(wl, "start_session", None)  # only the CLI workload has one

    if start_session:
        start_session(work, "a")
    cap = CAP_FACTOR * args.seconds
    wanted = cycle_count(wl, args.seconds / 2 if args.trace else args.seconds)
    untraced_cycles = run_stream(wl, args.seed, wanted, cap)
    untraced = [r for c in untraced_cycles for r in c]
    results = list(untraced)

    if args.trace:
        import bekernels

        if start_session:
            start_session(work, "b")
            wl.trace_child = HERE / "child.py"
            wl.spans_file = work / "spans.jsonl"
            trace = ChildTrace(wl.spans_file)
        else:
            tracer = spans.Tracer()
            spans.install(tracer, bekernels)
            trace = InProcessTrace(tracer)
        traced = [r for c in run_stream(wl, args.seed, len(untraced_cycles), cap, trace) for r in c]
        results += traced
        common = len(traced)
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced[:common]) - 1
        write_spans(trace.spans(), work_root / f"trace-{wl.name}.jsonl")
        report = per_layer(trace, traced, overhead)
        wl.trace_child = None
        header = (
            f"{len(untraced)} ops untraced, then the first {len(traced)} of them traced; "
            f"per-layer values are per traced op, trace.overhead_ratio compares the two passes op for op"
        )
    else:
        if start_session:
            rss_kib, rss_from = max(r.rss_kib for r in untraced if r.rss_kib), "the largest CLI process"
        else:
            rss_kib, rss_from = run_child("rss", wl.name)[1], "a child running the workload's rss_ops"
        report, tail = end_to_end(untraced_cycles, setup_s, rss_kib / 1024)
        header = (
            f"{len(untraced)} ops in {len(untraced_cycles)} cycles (of {wanted} wanted); op_tail_ms is "
            f"p{tail.percentile:.1f} of {tail.samples} ops, {tail.beyond} above it; setup_s is the median of "
            f"{SETUP_REPEATS} set-ups; peak_rss_mb is {rss_from}"
        )

    probe_results = [run_op(wl, op) for op in wl.probes(random.Random(f"{wl.name}:{args.seed}:probes"))]

    failed = sum(1 for r in results if r.error is not None)
    probe_failed = sum(1 for r in probe_results if r.error is not None)
    everything = len(results) + len(probe_results)
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}: {header}")
    for name, metric in report.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"# failed_frac {(failed + probe_failed) / everything:.4f}: stream {failed}/{len(results)} failed, "
        f"known-defect probes {probe_failed}/{len(probe_results)} failed"
    )
    for kind, group in (("stream", results), ("probe", probe_results)):
        for r in group:
            if r.error is not None:
                print(f"# {kind} failure ({r.seconds:.3f} s) {describe(r.op)}: {r.error}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
