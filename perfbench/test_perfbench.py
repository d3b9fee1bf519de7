"""Self-tests for the benchmark harness: ``python3 -m pytest perfbench -q``.

They cover the tail rule, the fixed cycle count, span self-time
arithmetic, the tracer's rebinding, the cache-hit count read from traced
CLI processes, and that every output check rejects a value that is wrong
on purpose.  None of them times anything.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# --- tail rule -------------------------------------------------------------


def test_tail_is_highest_rank_with_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    tail = metrics.tail(samples)
    assert tail.value == 90
    assert sum(1 for s in samples if s > tail.value) == 10
    assert (tail.percentile, tail.samples, tail.beyond) == (90.0, 100, 10)


def test_tail_with_eleven_samples_is_the_minimum():
    tail = metrics.tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert tail.value == 1.0
    assert tail.beyond == 10
    assert tail.percentile == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_reports_the_shortfall():
    tail = metrics.tail([3.0, 1.0, 2.0])
    assert (tail.value, tail.beyond, tail.percentile) == (3.0, 0, 100.0)


def test_tail_rejects_empty_sample():
    with pytest.raises(ValueError):
        metrics.tail([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    # statistics.quantiles (exclusive method): Q1 = 10.5, Q2 = 12, Q3 = 13.5.
    assert metrics.quartile_spread(values) == pytest.approx(3.0 / 12.0)


class ModelledTables(workloads.TablesCold):
    """tables_cold with op times from a cost model instead of a clock."""

    speed = 1.0

    def execute(self, op):
        return 0.6 * (op["n"] / 200) ** 4 / self.speed, None, None

    def check(self, op, output):
        return None


@pytest.mark.parametrize("seconds", [25, 40])
@pytest.mark.parametrize("seed", range(1, 6))
def test_cycle_count_and_tail_tier_do_not_depend_on_speed(seed, seconds):
    wl = ModelledTables(HERE.parent)
    wanted = run.cycle_count(wl, seconds)
    tiers = set()
    for speed in (0.8, 0.95, 1.0, 1.05, 1.25):
        wl.speed = speed
        cycles = run.run_stream(wl, seed, wanted, run.CAP_FACTOR * seconds)
        assert len(cycles) == wanted
        results = [r for c in cycles for r in c]
        tail = metrics.tail([r.seconds for r in results])
        tail_op = next(r.op for r in results if r.seconds == tail.value)
        tiers.add(min(wl.tiers, key=lambda t: abs(t - tail_op["n"])))
    assert tiers == {250}  # 6 or 9 cycles: ten ops beyond is the 2nd or 8th of the 250 tier


def test_stream_stops_at_the_cap_when_the_program_is_far_slower():
    wl = ModelledTables(HERE.parent)
    wl.speed = 0.1
    cycles = run.run_stream(wl, 1, run.cycle_count(wl, 25), run.CAP_FACTOR * 25)
    assert 1 <= len(cycles) < run.cycle_count(wl, 25)


# --- span self time --------------------------------------------------------


def test_self_time_subtracts_children_but_not_grandchildren():
    recorded = [
        Span(0, "root", 0, 100, None, 0),
        Span(1, "a", 10, 40, 0, 0),
        Span(2, "a.inner", 15, 25, 1, 0),
        Span(3, "b", 50, 70, 0, 0),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 100 - 30 - 20, 1: 30 - 10, 2: 10, 3: 20}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    recorded = [
        Span(0, "root", 0, 100, None, 0),
        Span(1, "x", 10, 50, 0, 0),
        Span(2, "y", 30, 60, 0, 0),  # overlaps x: union 10..60
        Span(3, "z", 90, 120, 0, 0),  # runs past the parent: only 90..100 counts
    ]
    assert spans.self_times(recorded)[0] == 100 - 50 - 10


def test_layer_self_seconds_sums_the_named_spans():
    recorded = [
        Span(0, "sequences.bernoulli", 0, 3_000_000_000, None, 0),
        Span(1, "kernels.kernel_recursive", 0, 2_000_000_000, 0, 0),
        Span(2, "sequences.euler", 5_000_000_000, 6_000_000_000, None, 1),
    ]
    layers = spans.layer_self_seconds(recorded)
    assert layers["sequences.scale_s"] == pytest.approx(2.0)
    assert layers["kernels.fill_s"] == pytest.approx(2.0)
    assert layers["specfun.zeta_direct_s"] == 0.0


def test_install_rebinds_calls_between_modules():
    # In a child interpreter: installing rewrites the package's globals.
    script = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import bekernels, spans
tracer = spans.Tracer()
spans.install(tracer, bekernels)
cache = bekernels.KernelCache(bekernels.KernelKind.BERNOULLI)
value = bekernels.bernoulli(3, cache)
bekernels.eval_gamma(5, bekernels.TruncationParams(3))
print(json.dumps({"value": str(value), "spans": [list(s) for s in tracer.finished()],
                  "counts": dict(tracer.counts)}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(HERE.parent / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["value"] == "1/42"
    by_id = {s[0]: s for s in out["spans"]}
    names = [s[1] for s in out["spans"]]
    fill = next(s for s in out["spans"] if s[1] == "kernels.kernel_recursive")
    assert by_id[fill[4]][1] == "sequences.bernoulli"
    assert names.count("specfun.eval_gamma") == 1
    assert spans.GAMMA_REF_SPAN in names
    assert out["counts"]["kernels.fill_values"] >= 3
    assert out["counts"]["exactnum.factorial_calls"] > 0


def test_child_trace_counts_a_hit_only_for_ops_that_used_the_shared_cache(tmp_path):
    trace = run.ChildTrace(tmp_path / "spans.jsonl")
    per_op = [
        {"kernels.calls": 5, "kernels.shared_calls": 5, "kernels.shared_fill_values": 0},  # hit
        {"kernels.calls": 5, "kernels.shared_calls": 5, "kernels.shared_fill_values": 2},  # miss
        {"kernels.calls": 3, "kernels.fill_values": 40},  # own caches only, as verify
        {},  # no kernels, as polygamma
    ]
    for index, counts in enumerate(per_op):
        trace.before(index)
        trace.file.write_text(json.dumps([0, "cli.main", 0, 1, None, None]) + "\n" + json.dumps({"counts": counts}) + "\n")
        trace.after(index)
    assert trace.hits == [True, False]
    assert trace.counts()["kernels.calls"] == 13
    assert [s.op for s in trace.spans()] == [0, 1, 2, 3]


def test_traced_cli_sees_what_it_loaded_from_the_cache_dir(tmp_path):
    trace = run.ChildTrace(tmp_path / "spans.jsonl")
    env = dict(os.environ, KERNEL_CACHE_DIR=str(tmp_path / "cache"))
    for index, upto in enumerate(("6", "4", "6", "7")):
        trace.before(index)
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(trace.file), "0", "bernoulli", "--upto", upto]
        subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        trace.after(index)
    assert trace.hits == [False, True, True, False]


# --- output checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def ref():
    return checks.ExactReference(6)


@pytest.mark.parametrize(
    "sequence, texts",
    [
        ("bernoulli", ["1/6", "-1/30", "1/42"]),
        ("euler", ["-1", "5", "-61"]),
        ("a", ["1/24", "-7/960", "31/8064"]),
        ("kb", ["-1/6", "7/360", "-31/15120"]),
        ("ke", ["-1/2", "5/24", "-61/720"]),
    ],
)
def test_exact_check_accepts_right_and_rejects_wrong_values(ref, sequence, texts):
    assert checks.check_exact_strings(ref, sequence, texts) is None
    wrong = texts[:-1] + [texts[-1].replace("1", "2", 1)]
    assert checks.check_exact_strings(ref, sequence, wrong) is not None


@pytest.mark.parametrize(
    "target, order",
    [("gamma", 0), ("digamma", 0), ("hurwitz", 1), ("polygamma", 2)],
)
def test_eval_check_rejects_an_error_beyond_twice_the_bound(target, order):
    wp = 34
    reference = checks.reference_value(target, "12.5", wp, order)
    bound = mp.mpf("1e-20")
    with mp.workdps(wp + 20):
        assert checks.check_eval(target, wp, reference, bound, reference) is None
        scale = abs(reference) if target == "gamma" else 1  # gamma's bound is relative
        near = reference + scale * bound
        far = reference + scale * bound * 3
    assert checks.check_eval(target, wp, near, bound, reference) is None
    assert checks.check_eval(target, wp, far, bound, reference) is not None


def test_gamma_check_is_relative():
    wp = 34
    reference = checks.reference_value("gamma", "150", wp)  # about 1e260
    with mp.workdps(wp + 20):
        shifted = reference + mp.mpf("1e200")  # relative 1e-60: fine
        assert checks.check_eval("gamma", wp, shifted, mp.mpf("1e-40"), reference) is None
        assert checks.check_eval("gamma", wp, reference * (1 + mp.mpf("1e-30")), mp.mpf("1e-40"), reference)


def test_cli_exact_check_rejects_wrong_values_labels_and_lengths(ref):
    table = "1\t-1/6\n2\t7/360\n3\t-31/15120\n"
    assert checks.check_cli_exact(ref, "table", "b", 3, table) is None
    assert checks.check_cli_exact(ref, "table", "b", 3, table.replace("7/360", "7/36")) is not None
    assert checks.check_cli_exact(ref, "table", "b", 3, table.replace("2\t", "4\t")) is not None
    assert checks.check_cli_exact(ref, "table", "b", 4, table) is not None
    rows = [{"index": 2, "value": "-1"}, {"index": 4, "value": "5"}]
    assert checks.check_cli_exact(ref, "euler", "e", 2, json.dumps(rows)) is None
    rows[1]["value"] = "-5"
    assert checks.check_cli_exact(ref, "euler", "e", 2, json.dumps(rows)) is not None
    assert checks.check_cli_exact(ref, "a-coeff", "b", 1, "not json") is not None


def test_cli_eval_check_rejects_a_wrong_printed_value():
    reference = checks.reference_value("digamma", "10", 34)
    good = {"value": mp.nstr(reference, 30), "bound": "1e-25"}
    assert checks.check_cli_eval("digamma", "10", 34, 0, json.dumps(good)) is None
    with mp.workdps(54):
        bad = dict(good, value=mp.nstr(reference + mp.mpf("1e-20"), 30))
    assert checks.check_cli_eval("digamma", "10", 34, 0, json.dumps(bad)) is not None
    assert checks.check_cli_eval("digamma", "10", 34, 0, "{}") is not None


def test_verify_check_needs_every_line_to_pass():
    assert checks.check_verify("PASS one\nPASS two\n") is None
    assert checks.check_verify("PASS one\nFAIL two: first difference at n=3\n") is not None
    assert checks.check_verify("") is not None


# --- workload generation ---------------------------------------------------


def test_terms_stay_below_the_smallest_term():
    for target in ("gamma", "digamma"):
        for x, wp in ((5.0, 200), (20.0, 34), (20.0, 200), (75.0, 200)):
            terms = workloads.choose_terms(target, x, wp, 150)
            logs = [workloads.log_term(target, x, n) for n in range(1, 400)]
            smallest = 1 + logs.index(min(logs))
            assert terms + 1 <= smallest
            assert terms == 150 or terms + 1 == smallest or logs[terms] < -wp * 2.302585


@pytest.mark.parametrize("cls", [workloads.TablesCold, workloads.Evals, workloads.CliSession])
def test_cycles_depend_only_on_seed_and_index(cls):
    wl = cls(HERE.parent)

    def draw(seed):
        rng = random.Random(seed)
        return [wl.cycle(rng, c) for c in range(3)]

    first, again, other = draw("s:1"), draw("s:1"), draw("s:2")
    assert first == again
    assert first != other
    assert [len(c) for c in first] == [len(c) for c in other]
