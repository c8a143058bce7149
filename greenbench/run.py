"""greenlab benchmark: one workload, end-to-end or traced metrics as one JSON line.

    python3 greenbench/run.py --workload {bound_panel,energy_certify,optimize_sweep}
                              --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. Each run starts the workload in fresh worker processes
(greenbench/worker.py). With --trace 0 it runs SETUP_REPEATS workers,
all but one of which stop after set-up, and reports:

    ops_per_s    panel ops per second over the timed phase      (1/s)
    op_p50_s     median op latency                              (s)
    peak_rss_mb  ru_maxrss of the worker, up to the end of the timed phase (MB)
    setup_s      worker start (before `import greenlab`) to the first timed op,
                 median of the SETUP_REPEATS workers           (s)

Times are speed-corrected: each is scaled by the ratio of a fixed
calibration loop's reference time to its time measured next to it (see
worker.py). The same figures as measured, and the calibration loop's
median time, go to stderr as one JSON line starting with 'uncorrected: '.

With --trace 1 one worker runs with greenlab's public functions wrapped in
spans and reports the PER_LAYER metrics.

--seconds sizes the fixed op list (ops = seconds / the workload's nominal
op time), so a run does the same work in the same order whatever the
machine's speed. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero,
with no result line, when a worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("bound_panel", "energy_certify", "optimize_sweep")
SETUP_REPEATS = 5
DEADLINE_S = 170.0

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _worker(args, workdir, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        if args.trace:
            res = _worker(args, workdir, ["--trace"], deadline)
            values = {**res["layers"], "trace.setup_s": res["raw_setup_s"],
                      "trace.timed_s": res["raw_timed_s"]}
            metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            setups = [_worker(args, workdir, ["--setup-only"], deadline)
                      for _ in range(SETUP_REPEATS - 1)]
            res = _worker(args, workdir, [], deadline)
            setups.append(res)
            values = {**res, "setup_s": statistics.median(w["setup_s"] for w in setups)}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            uncorrected = {"ops_per_s": res["raw_ops_per_s"], "op_p50_s": res["raw_op_p50_s"],
                           "setup_s": statistics.median(w["raw_setup_s"] for w in setups),
                           "timed_s": res["raw_timed_s"], "calibration_s": res["calibration_s"]}
            print("uncorrected: " + json.dumps(uncorrected), file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
