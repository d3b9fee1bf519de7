"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40 \\
        [--workloads tables_cold,evals,cli_session] [--trace 0|1] [--out FILE]

For every workload and seed it runs ``run.py`` in a child process, keeps
the result line, and reports per metric the ten values, their median and
the quartile spread (Q3 - Q1) / median that the benchmark's bounds are
judged against.  Each workload's description is its class docstring in
``workloads.py``.  With ``--out`` the summary is written as JSON; the
committed ``BENCH_baseline.json`` is one such file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [line for line in lines[:-1] if line.startswith("#")], wall


def summarise(workload: str, seeds, seconds: int, trace: int) -> dict:
    runs, notes, walls = [], None, []
    for seed in seeds:
        result, comments, wall = run_once(workload, seed, seconds, trace)
        runs.append(result)
        walls.append(wall)
        notes = notes or comments
        print(f"{workload} seed {seed}: {wall:.1f} s wall, "
              + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if not trace),
              file=sys.stderr)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        entry = {"unit": first["unit"], "median": metrics.median(values), "values": values}
        if len(values) >= 2:
            entry["quartile_spread"] = metrics.quartile_spread(values) if entry["median"] else None
        summary[name] = entry
    return {
        "description": inspect.cleandoc(workloads.WORKLOADS[workload].__doc__).split("\n\n"),
        "seeds": list(seeds),
        "all_correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "wall_s": walls,
        "first_run_report": notes,
        "metrics": summary,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {w: summarise(w, args.seeds, args.seconds, args.trace) for w in args.workloads.split(",")},
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="ascii")
    for workload, data in result["workloads"].items():
        for name, entry in data["metrics"].items():
            spread = entry.get("quartile_spread")
            spread_text = "" if spread is None else f" spread {spread:.4f}"
            print(f"{workload:12s} {name:28s} median {entry['median']:.6g} {entry['unit']}{spread_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
