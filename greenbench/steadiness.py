"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 greenbench/steadiness.py [--traced]

Runs greenbench/run.py exactly as a user would, from the checkout root,
with run_seconds and the bounds taken from BENCHMARK.json. For each
workload it makes two sets of RUNS runs, interleaved in time (A1 B1 A2
B2 ...), every run with its own seed: 1-10 in set A, 11-20 in set B. Per
set and end-to-end metric it prints the median, the quartiles and the
spread (q3 - q1) / median, and whether

  * the spread of each set stays within the metric's bound,
  * the medians of the two sets differ by no more than the bound,
    in either direction,
  * both sets fail the same share of their ops.

It also prints, per set, the spread of the figures as measured (before the
speed correction; see worker.py) and of the calibration loop's time, which
is the machine's own noise over the same runs. --traced then alternates
two untraced and two traced runs per workload at one seed: the traced
counts must repeat exactly, and the traced timed phase against the
untraced one is the tracing overhead. The full report is written to
greenbench/out/steadiness-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("greenbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = time.monotonic() - start
    for line in proc.stderr.splitlines():
        if line.startswith("uncorrected: "):
            res["uncorrected"] = json.loads(line[len("uncorrected: "):])
    return res


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric: dict, base: float, other: float) -> float:
    """Relative change of other against base, positive when other is worse."""
    rel = (other - base) / base
    return rel if metric["better"] == "lower" else -rel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    report, ok = {"run_seconds": seconds, "workloads": {}}, True

    runs = {w: {"A": [], "B": []} for w in names}
    for i in range(RUNS):
        for w in names:
            for side, seed in (("A", 1 + i), ("B", 1 + RUNS + i)):
                res = run_bench(w, seed, seconds, 0)
                res["seed"] = seed
                runs[w][side].append(res)
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"{w} {side} seed={seed} wall={res['wall_s']:.1f}s {vals}", flush=True)

    print(f"\n{'workload':15} {'metric':12} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in names:
        entry = report["workloads"][w] = {"metrics": {}}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = {s: summarize([r["metrics"][name]["value"] for r in runs[w][s]]) for s in "AB"}
            shift = worse_by(m, sets["A"]["median"], sets["B"]["median"])
            spread_ok = all(sets[s]["spread"] <= bound for s in "AB")
            good = spread_ok and abs(shift) <= bound
            ok &= good
            entry["metrics"][name] = {**sets, "bound": bound, "b_worse_by": shift, "agree": good}
            for s in "AB":
                st = sets[s]
                verdict = "" if s == "A" else (f"B worse by {shift:+.3f}: "
                                               + ("agree" if good else "DISAGREE"))
                print(f"{w:15} {name:12} {s:3} {st['median']:10.4g} {st['q1']:10.4g} "
                      f"{st['q3']:10.4g} {st['spread']:7.3f} {bound:6.2f}  {verdict}")
        shares = {s: {(r["failed"], r["attempted"]) for r in runs[w][s]} for s in "AB"}
        same_share = len({f / a for s in "AB" for f, a in shares[s]}) == 1
        ok &= same_share
        entry["failed_share_equal"] = same_share
        entry["attempted"] = sorted({a for s in "AB" for _, a in shares[s]})
        entry["correct"] = all(r["correct"] for s in "AB" for r in runs[w][s])
        ok &= entry["correct"]
        entry["uncorrected"] = {
            k: {s: summarize([r["uncorrected"][k] for r in runs[w][s]]) for s in "AB"}
            for k in runs[w]["A"][0]["uncorrected"]}
        print(f"{w:15} as measured, spread A/B: " + "; ".join(
            f"{k} {v['A']['spread']:.3f}/{v['B']['spread']:.3f}"
            for k, v in entry["uncorrected"].items() if k != "timed_s"))
        entry["run_wall_s"] = summarize([r["wall_s"] for s in "AB" for r in runs[w][s]])
        print(f"{w:15} failed share equal: {same_share}; all correct: {entry['correct']}; "
              f"median run wall {entry['run_wall_s']['median']:.1f} s")

    if args.traced:
        for w in names:
            seed = 1
            # untraced and traced runs alternate, so machine drift hits both alike
            pairs = [(run_bench(w, seed, seconds, 0), run_bench(w, seed, seconds, 1))
                     for _ in range(2)]
            counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "s"}
                      for _, t in pairs]
            untraced = [u["uncorrected"]["timed_s"] for u, _ in pairs]
            traced = [t["metrics"]["trace.timed_s"]["value"] for _, t in pairs]
            overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
            ok &= counts[0] == counts[1]
            report["workloads"][w]["trace"] = {
                "seed": seed, "counts_repeat": counts[0] == counts[1],
                "untraced_timed_s": untraced, "traced_timed_s": traced,
                "overhead": overhead, "layers": pairs[0][1]["metrics"]}
            print(f"{w:15} traced: counts repeat {counts[0] == counts[1]}; timed phase "
                  f"{untraced[0]:.2f}/{untraced[1]:.2f} s untraced, "
                  f"{traced[0]:.2f}/{traced[1]:.2f} s traced ({overhead:+.1%})")

    report["runs"] = runs
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\n{'all sets agree' if ok else 'SETS DISAGREE'}; report in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
