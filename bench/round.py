"""One round of one workload, in a fresh interpreter.

    python3 bench/round.py --workload main-term-census --seed 1 --trace 0

Run from the root of a checkout; run.py starts one of these per round.  It
times the import of hurwitzbias from the checkout's src/, runs the workload's
query stream (under the tracer with --trace 1), checks the outputs and prints
one JSON object with the round's numbers as its last line of output.  Times
are process CPU time, with wall-clock time beside them, and with the CPU time
of a fixed calibration that runs before and after the stream.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """CPU time of a fixed piece of work that runs no hurwitzbias code.

    It does what the library spends its time on, Fraction and dict arithmetic
    in Python and strided numpy adds, so that it slows down and speeds up
    with the machine as the query stream does.
    """
    import numpy

    t0 = time.process_time()
    total, table = Fraction(0), {}
    for i in range(1, 20_000):
        total += Fraction(i % 89, i % 7 + 1)
        table[i % 4096] = table.get(i % 4096, 0) + i
    counts = numpy.zeros(1 << 20, dtype=numpy.int64)
    for step in range(4, 2000, 4):
        counts[step::step] += 1
    return time.process_time() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced round's spans to this file")
    parser.add_argument("--import-only", action="store_true",
                        help="only import the library and report the time it took")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    t0, wall0 = time.process_time(), time.perf_counter()
    import hurwitzbias
    import hurwitzbias.cli  # noqa: F401  (the CLI is part of what the workloads call)
    import_s, import_wall_s = time.process_time() - t0, time.perf_counter() - wall0
    if not os.path.abspath(hurwitzbias.__file__).startswith(src + os.sep):
        print(f"error: hurwitzbias was imported from {hurwitzbias.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"import_s": import_s, "import_wall_s": import_wall_s}))
        return 0

    import numpy

    import workloads
    from tracer import NullTracer, Tracer

    calib_s = calibrate()
    plan = workloads.generate(args.workload, args.seed)
    workspace = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                             f"tmp-{os.getpid()}")
    os.makedirs(workspace, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        ctx = workloads.Context(workspace, tracer or NullTracer())
        if tracer:
            tracer.install()
        try:
            result = workloads.run_stream(plan, ctx, traced=tracer is not None)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = tracer.metrics() if tracer else None
        calib_s += calibrate()
        if tracer and args.spans:
            tracer.write_spans(args.spans)
        t0 = time.perf_counter()
        checked = workloads.check(plan, result)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workspace, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "import_s": import_s,
        "import_wall_s": import_wall_s,
        "cpu_s": result.cpu_s,
        "calib_s": calib_s,
        "wall_s": result.wall_s,
        "check_s": check_s,
        "queries": len(plan.queries),
        "operations": len(plan.queries) + checked.probes,
        "failed": len(checked.failed),
        "failures": [str(msg) for msg in list(checked.failed.values())[:20]],
        "digest": workloads.digest(plan, result),
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": result.latencies_ms,
        "layers": layers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
