"""One workload run in a fresh process; prints one JSON line of results.

    python3 greenbench/worker.py --workload NAME --seed N --seconds S
                                 --workdir DIR [--trace] [--setup-only]

Set-up runs from the top of this file (before greenlab or numpy is
imported) to the first timed op: imports, profile builds, input
generation and warm-up. The timed phase then runs the workload's fixed op
list. Outputs are checked after the timed phase, against the reference
computation. Only called by run.py.

Every time is reported twice: as measured, and speed-corrected, that is
multiplied by REF_CALIBRATION_S / (the calibration loop's time measured
next to it). The host's speed drifts by up to 40 % within half an hour,
and the calibration loop drifts with it, so the corrected times show
greenlab's cost at one fixed machine speed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# time of calibration_s() at the reference machine speed; a corrected time
# is the time the same work takes on a machine where the loop takes this long
REF_CALIBRATION_S = 0.020


def calibration_s() -> float:
    """Time of one fixed loop of Python arithmetic and small numpy calls, the
    two kinds of work greenlab does; about 20 ms. It never calls greenlab."""
    import numpy as np

    start = time.perf_counter()
    acc, a = 0.0, np.arange(2000.0)
    for i in range(150_000):
        acc += (i % 7) * 0.5
    for _ in range(200):
        acc += float(np.sum(np.sqrt(a)))
    return time.perf_counter() - start


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import greenlab

    if not os.path.abspath(greenlab.__file__).startswith(src + os.sep):
        raise ImportError(f"greenlab imported from {greenlab.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_program()
    from tracing import Tracer
    from workloads import WORKLOADS, run_cli

    tracer = Tracer().install() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - T0
    setup_cal_s = statistics.median(calibration_s() for _ in range(3))
    setup = {"setup_s": setup_s * REF_CALIBRATION_S / setup_cal_s,
             "raw_setup_s": setup_s, "calibration_s": setup_cal_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # the calibration loop runs before each op, outside the op's time
    latencies, cals, results = [], [], []
    for op in workload.ops:
        cals.append(calibration_s())
        t = time.perf_counter()
        results.append([run_cli(argv) for argv in op])
        latencies.append(time.perf_counter() - t)
    corrected = [lat * REF_CALIBRATION_S / cal for lat, cal in zip(latencies, cals)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed, problems = 0, []
    for op, res in zip(workload.ops, results):
        bad = [(argv, err) for argv, (code, _, err) in zip(op, res) if code != 0]
        found = [f"greenlab {' '.join(a)} exited non-zero:\n{e}" for a, e in bad]
        if not bad:
            try:
                found = workload.check(op, res)
            except Exception:  # unreadable output fails the op, not the run
                found = [f"output check raised:\n{traceback.format_exc()}"]
            problems += found
        failed += bool(found)
        for line in found:
            print(f"[{args.workload}] {line}", file=sys.stderr)

    out = {
        "correct": not problems,
        "attempted": len(workload.ops),
        "failed": failed,
        **setup,
        "ops_per_s": len(workload.ops) / sum(corrected),
        "op_p50_s": statistics.median(corrected),
        "peak_rss_mb": peak_rss_mb,
        "raw_timed_s": sum(latencies),
        "raw_ops_per_s": len(workload.ops) / sum(latencies),
        "raw_op_p50_s": statistics.median(latencies),
        "calibration_s": statistics.median(cals),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
