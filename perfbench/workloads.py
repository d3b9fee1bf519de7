"""The three workloads: how their operations are drawn, run and checked.

Every workload is a closed loop with one client in one process.  Its
operations come in cycles of a fixed make-up; the seed draws each
operation's parameters and the order inside a cycle, and the cycle index
fixes the parameters that set an operation's cost class (sizes, polygamma
order, verify depth).  A run measures whole cycles, so two seeds run the
same mix and differ only in the drawn values.  How many cycles a run has
follows from ``--seconds`` and the workload's ``cycle_seconds`` alone,
never from how fast the ops go, so a run of a slower program does the same
ops as a run of a faster one.

Each ``execute`` returns (seconds, output, peak RSS in KiB or None); the
caller checks the output afterwards, outside the timed window.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline.

    A BaseException, so that no ``except Exception`` inside the package or
    mpmath can swallow it.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def wait_child(proc: subprocess.Popen, limit: float) -> Tuple[int, int]:
    """Wait for ``proc`` at most ``limit`` seconds; (exit code, its own peak RSS in KiB).

    ``os.wait4`` reports the one child's usage, where RUSAGE_CHILDREN
    would keep the maximum over every child so far.  A child past the
    limit is killed and reaped before DeadlineExceeded propagates.
    """
    try:
        with deadline(limit):
            _, status, usage = os.wait4(proc.pid, 0)
    except DeadlineExceeded:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def decimal(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.2f}"


def spread_draws(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    """One uniform draw from each of ``count`` equal slices of [low, high], shuffled.

    Every cycle then covers the whole range, so the cost mix, and with it
    the median op, moves little from one seed to the next.
    """
    width = (high - low) / count
    values = [rng.uniform(low + i * width, low + (i + 1) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def log_abs_a(n: int) -> float:
    """ln|a_n| from |B_2n| ~ 2 (2n)! / (2 pi)^(2n); used only to choose N."""
    return (
        math.log(2)
        + math.lgamma(2 * n + 1)
        - 2 * n * math.log(2 * math.pi)
        + math.log1p(-(2.0 ** (1 - 2 * n)))
        - math.log(2 * n)
    )


def log_term(target: str, x: float, n: int) -> float:
    """ln of the n-th series term of eval_gamma or eval_digamma at x."""
    if target == "gamma":
        return log_abs_a(n) - math.log(2 * n - 1) - (2 * n - 1) * math.log(x)
    return log_abs_a(n) - 2 * n * math.log(x + 0.5)


def choose_terms(target: str, x: float, wp: int, cap: int) -> int:
    """Fewest terms whose first omitted term is below 10^-wp, kept below the smallest term.

    Stops early when term N+1 is the smallest term of the asymptotic
    series, and never exceeds ``cap``.
    """
    goal = -wp * math.log(10)
    n = 1
    while n < cap and log_term(target, x, n + 1) >= goal and log_term(target, x, n + 2) < log_term(target, x, n + 1):
        n += 1
    return n


class TablesCold:
    """Cold exact tables: a fresh KernelCache, the fill, one scaling, formatting.

    Closed loop, one client, in-process.  A cycle is one op at each size
    tier 100..300 (each size +-2, kind b or e from the seed).  Kernel fill
    dominates and specfun does nothing, so the integer-recurrence work
    shows here with no cache or evaluator in the way.  Peak RSS is read
    from a child interpreter that runs the top tier once for each kind.
    """

    name = "tables_cold"
    deadline_s = 60.0
    cycle_seconds = 4.5  # one cycle at the seed, x86_64 with 2 vCPUs
    tiers = (100, 150, 200, 250, 300)
    jitter = 2  # fill time grows like n^4: +-2 at n = 200 is +-4 %
    scalings = {"b": ("bernoulli", "a"), "e": ("euler",)}

    def __init__(self, root: Path) -> None:
        import bekernels

        self.bk = bekernels
        self.ref: Optional[checks.ExactReference] = None

    def warm_up(self) -> None:
        pass

    def prepare_checks(self) -> None:
        self.ref = checks.ExactReference(max(self.tiers))

    def cycle(self, rng: random.Random, c: int) -> List[Dict]:
        ops = []
        for tier in self.tiers:
            n = min(max(self.tiers), max(min(self.tiers), tier + rng.randint(-self.jitter, self.jitter)))
            kind = rng.choice("be")
            ops.append({"kind": kind, "n": n, "scale": rng.choice(self.scalings[kind])})
        rng.shuffle(ops)
        return ops

    def execute(self, op: Dict):
        bk = self.bk
        scale = {"bernoulli": bk.bernoulli, "euler": bk.euler, "a": bk.a_from_kb}[op["scale"]]
        kind = bk.KernelKind(op["kind"])
        with deadline(self.deadline_s):
            start = time.perf_counter()
            cache = bk.KernelCache(kind)
            bk.kernel_recursive(kind, op["n"], cache)
            texts = [bk.format_rational(scale(k, cache)) for k in range(1, op["n"] + 1)]
            elapsed = time.perf_counter() - start
        return elapsed, texts, None

    def check(self, op: Dict, texts: List[str]) -> Optional[str]:
        if len(texts) != op["n"]:
            return f"{len(texts)} values, expected {op['n']}"
        return checks.check_exact_strings(self.ref, op["scale"], texts)

    def rss_ops(self) -> List[Dict]:
        top = max(self.tiers)
        return [{"kind": "b", "n": top, "scale": "bernoulli"}, {"kind": "e", "n": top, "scale": "euler"}]

    def probes(self, rng: random.Random) -> List[Dict]:
        return []


class Evals:
    """Truncated evaluations with warmed kernel caches.

    Closed loop, one client, in-process.  Series summation, Fraction->mpf
    conversion and the references (zeta_direct, mpmath.gamma, the harmonic
    sum) do the work; kernel fill does none.  Peak RSS is read from a child
    interpreter that runs one cycle drawn from a fixed seed.

    Ops that fail for a known reason in the package as it stands are not
    part of the timed stream; they run after it as probes, each under the deadline,
    and are checked and reported the same way.  They are gamma at working
    precision 60 or more (the package pins pi to 40 digits, so its relative
    error cannot go below about 1e-41), hurwitz and polygamma at precision
    100 (zeta_direct needs billions of terms there), and polygamma at
    precision 34 with 8 terms and x >= 30 for y = 2, 3 (the truncation
    bound falls below the absolute 1e-36 tolerance of its inner zeta sums,
    so the error exceeds twice the bound).
    """

    name = "evals"
    # The slowest stream ops (hurwitz m0=1 and polygamma y=3 at precision
    # 60) take 0.6-1.1 s; the deadline sits far above them.
    deadline_s = 4.0
    cycle_seconds = 3.2  # one cycle at the seed, x86_64 with 2 vCPUs
    terms_cap = 150  # gamma/digamma N; the warm-up fills K_b past N + 1
    digamma_precisions = (34, 60, 100, 200)
    gamma_probe_precisions = (60, 100, 200)

    def __init__(self, root: Path) -> None:
        import bekernels

        self.bk = bekernels

    def warm_up(self) -> None:
        self.bk.kernel_recursive(self.bk.KernelKind.BERNOULLI, self.terms_cap + 2)

    def prepare_checks(self) -> None:
        pass

    def _gamma_like(self, target: str, x: str, wp: int) -> Dict:
        terms = choose_terms(target, float(x), wp, self.terms_cap)
        return {"target": target, "x": x, "wp": wp, "terms": terms, "order": 0}

    @staticmethod
    def _zeta_like(rng: random.Random, target: str, wp: int, order: int, max_terms: int = 8, low_x: int = 10) -> Dict:
        x, terms = decimal(rng, low_x, 40), rng.randint(4, max_terms)
        return {"target": target, "x": x, "wp": wp, "terms": terms, "order": order}

    def cycle(self, rng: random.Random, c: int) -> List[Dict]:
        ops = [self._gamma_like("gamma", f"{x:.2f}", 34) for x in spread_draws(rng, 5, 200, 8)]
        for wp in self.digamma_precisions:
            ops += [self._gamma_like("digamma", f"{x:.2f}", wp) for x in spread_draws(rng, 5, 200, 2)]
            ops += [self._gamma_like("digamma", str(round(x)), wp) for x in spread_draws(rng, 5, 2000, 2)]
        for m0 in (rng.randint(1, 3), rng.randint(1, 3)):
            ops.append(self._zeta_like(rng, "hurwitz", 34, m0))
        # The costly orders are fixed, so every cycle costs about the same.
        for m0 in (1, 2):
            ops.append(self._zeta_like(rng, "hurwitz", 50, m0))
        ops.append(self._zeta_like(rng, "hurwitz", 60, 1))
        for _ in range(2):
            ops.append(self._zeta_like(rng, "polygamma", 34, rng.randint(1, 3), max_terms=7))
        ops.append(self._zeta_like(rng, "polygamma", 50, 2))
        ops.append(self._zeta_like(rng, "polygamma", 60, 3))
        rng.shuffle(ops)
        return ops

    def rss_ops(self) -> List[Dict]:
        return self.cycle(random.Random("rss"), 0)

    def probes(self, rng: random.Random) -> List[Dict]:
        xs = spread_draws(rng, 5, 200, 2 * len(self.gamma_probe_precisions))
        ops = [self._gamma_like("gamma", f"{x:.2f}", wp) for x, wp in zip(xs, 2 * self.gamma_probe_precisions)]
        ops.append(self._zeta_like(rng, "hurwitz", 100, 1))
        ops.append(self._zeta_like(rng, "polygamma", 100, rng.randint(1, 3)))
        probe = self._zeta_like(rng, "polygamma", 34, rng.randint(2, 3), low_x=30)
        ops.append(dict(probe, terms=8))
        return ops

    def execute(self, op: Dict):
        bk = self.bk
        params = bk.TruncationParams(op["terms"], op["wp"])
        target, x = op["target"], op["x"]
        with deadline(self.deadline_s):
            start = time.perf_counter()
            if target == "gamma":
                report = bk.eval_gamma(x, params)
            elif target == "digamma":
                report = bk.eval_digamma(x, params)
            elif target == "hurwitz":
                report = bk.eval_hurwitz_expansion(op["order"], x, params)
            else:
                report = bk.eval_polygamma(op["order"], x, params)
            elapsed = time.perf_counter() - start
        return elapsed, report, None

    def check(self, op: Dict, report) -> Optional[str]:
        if report.terms_used != op["terms"]:
            return f"terms_used {report.terms_used}, expected {op['terms']}"
        reference = checks.reference_value(op["target"], op["x"], op["wp"], op["order"])
        return checks.check_eval(op["target"], op["wp"], report.value, report.first_omitted_term_bound, reference)


class CliSession:
    """One ``bekernels`` process per op against a persisted kernel cache.

    Closed loop, one client, one process per op.  Each cycle starts from an
    empty KERNEL_CACHE_DIR, so every cycle does the same work.  Two growth
    ops fill and persist one kind to about 250 and the other to about 125
    (the kinds swap each cycle); the other ops repeat sizes already
    persisted (two per command), evaluate (four) or verify (three).  The
    repeats make the cheap ops, a process start and a cache load each, the
    larger part of a cycle, so the median op lands inside that group and
    not on its edge next to the costlier ops.  It is the only workload
    that loads and writes the persisted cache; it also covers process
    start and, through verify, the oracles, determinant, compositions and
    g_bruteforce layers.  The traced run measures cli.cache_hit_share
    inside each CLI process.

    The CLI prints 30 significant digits, so the eval checks here cannot
    see an error below about 1e-29 relative: the gamma ops at precision 60
    pass although the pinned-pi defect puts their error near 1e-41.  That
    defect shows only in the evals workload's probes.
    """

    name = "cli_session"
    deadline_s = 60.0
    cycle_seconds = 7.0  # one cycle at the seed, x86_64 with 2 vCPUs
    big_upto = 250
    small_upto = 125
    commands = {"b": ("table", "bernoulli", "a-coeff"), "e": ("table", "euler")}
    # Eval ops of cycle c: (target, precision); the costly zeta-backed pair
    # is the same in every cycle.
    eval_plan = (
        (("gamma", 34), ("digamma", 60), ("hurwitz", 60), ("polygamma", 34)),
        (("gamma", 60), ("digamma", 34), ("hurwitz", 60), ("polygamma", 34)),
    )
    # Three verify ops per cycle, --exact spread over 30..42: with more
    # verify ops in a run than ten plus the number of cycles, the tail
    # (ten ops beyond) lands among them whatever the cycle count.
    verify_exact = (30, 42)

    def __init__(self, root: Path) -> None:
        self.root = root
        self.python = sys.executable
        self.ref: Optional[checks.ExactReference] = None
        self.work: Optional[Path] = None
        self.label = ""
        self.sessions = 0
        self.cache_dir: Optional[Path] = None
        self.trace_child: Optional[Path] = None  # set for traced runs
        self.spans_file: Optional[Path] = None

    def warm_up(self) -> None:
        import bekernels.cli  # noqa: F401  (the import a CLI process pays)

    def prepare_checks(self) -> None:
        self.ref = checks.ExactReference(self.big_upto + 4)

    def start_session(self, work: Path, label: str) -> None:
        """Keep this pass's cache directories and outputs under ``work``."""
        self.work, self.label, self.sessions = work, label, 0

    def _fresh_cache_dir(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
        self.sessions += 1
        self.cache_dir = self.work / f"cache-{self.label}-{self.sessions}"
        self.cache_dir.mkdir()

    def _exact(self, command: str, kind: str, upto: int) -> Dict:
        args = [command]
        if command == "table":
            args += ["--kind", kind]
        args += ["--upto", str(upto)]
        return {"args": args, "command": command, "kind": kind, "upto": upto}

    def _eval(self, rng: random.Random, target: str, wp: int) -> Dict:
        args = ["eval", target, "--precision", str(wp)]
        order = 0
        if target in ("gamma", "digamma"):
            integer = target == "digamma" and rng.random() < 0.5
            x = str(rng.randint(5, 2000)) if integer else decimal(rng, 5, 100)
            terms = choose_terms(target, float(x), wp, 60)
        else:
            # At precision 60, m0 = 1 costs seconds per process through
            # zeta_direct; m0 = 2 keeps eval ops near the cost of the rest.
            x, terms = decimal(rng, 10, 40), rng.randint(4, 8)
            if target == "hurwitz":
                order = 2 if wp > 34 else rng.randint(1, 3)
                args += ["--m0", str(order)]
            else:
                order = rng.randint(1, 3)
                args += ["--y", str(order)]
        args += ["--x", x, "--terms", str(terms)]
        return {"args": args, "command": "eval", "target": target, "x": x, "wp": wp, "order": order}

    def cycle(self, rng: random.Random, c: int) -> List[Dict]:
        big = "be"[c % 2]
        frontier = {
            kind: self.big_upto + rng.randint(-4, 4) if kind == big else self.small_upto + rng.randint(-4, 4)
            for kind in "be"
        }
        growth = []
        for kind, commands in self.commands.items():
            growth.append(self._exact(commands[(c // 2) % len(commands)], kind, frontier[kind]))
        growth[0]["fresh"] = True
        others = []
        for kind, commands in self.commands.items():
            uptos = spread_draws(rng, 1, frontier[kind], 2 * len(commands))
            others += [self._exact(command, kind, round(upto)) for command, upto in zip(2 * commands, uptos)]
        others += [self._eval(rng, target, wp) for target, wp in self.eval_plan[c % len(self.eval_plan)]]
        for exact in spread_draws(rng, *self.verify_exact, 3):
            exact = round(exact)
            args = ["verify", "--exact", str(exact), "--brute", str(8 + (exact - 30) // 6)]
            others.append({"args": args, "command": "verify"})
        rng.shuffle(others)
        return growth + others

    def probes(self, rng: random.Random) -> List[Dict]:
        return []

    def execute(self, op: Dict):
        if op.get("fresh"):
            self._fresh_cache_dir()
        env = dict(os.environ, KERNEL_CACHE_DIR=str(self.cache_dir))
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if self.trace_child is None:
            argv = [self.python, "-m", "bekernels", *op["args"]]
        else:
            argv = [self.python, str(self.trace_child), "cli", str(self.spans_file), str(time.monotonic_ns()), *op["args"]]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.root)
            code, rss_kib = wait_child(proc, self.deadline_s)
            elapsed = time.perf_counter() - start
        return elapsed, (code, out_path.read_text(), err_path.read_text()), rss_kib

    def check(self, op: Dict, output: Tuple[int, str, str]) -> Optional[str]:
        code, stdout, stderr = output
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        if op["command"] == "verify":
            return checks.check_verify(stdout)
        if op["command"] == "eval":
            return checks.check_cli_eval(op["target"], op["x"], op["wp"], op["order"], stdout)
        return checks.check_cli_exact(self.ref, op["command"], op["kind"], op["upto"], stdout)


WORKLOADS = {w.name: w for w in (TablesCold, Evals, CliSession)}
