"""Child processes of the benchmark; ``run.py`` starts them, not a user.

    child.py setup WORKLOAD
        Import the package, warm up as the workload does, and exit; the
        parent times this as the workload's set-up.
    child.py rss WORKLOAD
        Warm up, then run the workload's ``rss_ops`` unchecked; the parent
        reads this process's peak RSS, which holds no reference data.
    child.py cli SPANS_FILE SPAWN_NS ARG...
        One traced CLI op: install the wrappers of ``spans.py``, call
        ``bekernels.cli.main(ARG...)``, write the spans to SPANS_FILE and
        exit with its return code.  SPAWN_NS is the parent's
        ``time.monotonic_ns()`` just before the spawn, so the child can
        report start-up time up to the end of the package import.
"""

import time
import sys
from pathlib import Path


def main(argv):
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    if argv[0] in ("setup", "rss"):
        import workloads

        wl = workloads.WORKLOADS[argv[1]](here.parent)
        wl.warm_up()
        if argv[0] == "rss":
            for op in wl.rss_ops():
                wl.execute(op)
        return 0
    spans_file, spawn_ns = argv[1], int(argv[2])
    import bekernels.cli

    imported_ns = time.monotonic_ns()
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, bekernels)
    tracer.counts["cli.startup_ns"] = imported_ns - spawn_ns
    try:
        return bekernels.cli.main(argv[3:])
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
