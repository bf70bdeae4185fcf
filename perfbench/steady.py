#!/usr/bin/env python3
"""Steadiness mode: run the benchmark N times on one commit and print, for
each metric, the median, the quartiles, the interquartile spread as a share
of the median, and the max/min ratio. Use it to set and prove the bounds in
BENCHMARK.json: every end-to-end spread except setup_s's should stay below a
third of its bound.

    python3 perfbench/steady.py [--workload W ...] [--runs N] [--seconds S]
                                [--trace 0|1] [--first-seed K]

Run from the repository root. Each run gets its own seed (K, K+1, ...).
Without --workload every workload in BENCHMARK.json is run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result


def summarize(workload, results, bounds):
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'iqr/med':>8} {'bound/3':>8} {'max/min':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        lo, hi = min(values), max(values)
        ratio = hi / lo if lo > 0 else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:8.3f}" if bound is not None else f"{'-':>8}"
        flag = " !" if bound is not None and name != "setup_s" \
            and spread > bound / 3 else ""
        print(f"  {name:<30} {med:>14.4f} {q1:>14.4f} {q3:>14.4f}"
              f" {spread:>8.3f} {third} {ratio:>8.3f} {unit}{flag}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(spec["command"], workload, seed,
                                    args.seconds, args.trace))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n}={m['value']:.4g}"
                              for n, m in results[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        summarize(workload, results, bounds)


if __name__ == "__main__":
    main()
