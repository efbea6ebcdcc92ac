#!/usr/bin/env python3
"""Steadiness check for the serve benchmark.

Runs every workload of BENCHMARK.json untraced for its run_seconds,
several times with a fresh seed each time, interleaving the workloads so
drift between runs spreads over all of them. It prints per metric every
run's value, the median, the quartiles and the spread (interquartile range
over median) against the metric's bound: "ok" below a third of the bound,
"near" below the bound, "WIDE" at or above it. It also prints nproc, the
load average, and the steal ticks of /proc/stat before and after, so a
disturbed host can be told apart from a regression.

Usage, from the root of the repository (seeds seed0 .. seed0 + runs - 1):

    python3 perfbench/steady.py [--runs 10] [--seed0 1]
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


def host_state():
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    steal = int(cpu[8]) if len(cpu) > 8 else 0
    return os.getloadavg(), steal


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1]), elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    load0, steal0 = host_state()
    print("nproc=%d loadavg=%.2f/%.2f/%.2f steal_ticks=%d" %
          ((os.cpu_count() or 0,) + load0 + (steal0,)))
    values = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    for i in range(args.runs):
        # Rotate the order each round so no workload always runs first.
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            seed = args.seed0 + i
            result, elapsed = run_once(w, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit("%s seed %d: incorrect" % (w, seed))
            failed[w].append((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %2d %-9s seed %-4d %5.1fs failed %d/%d" %
                  (i, w, seed, elapsed, result["failed"], result["attempted"]),
                  flush=True)
    load1, steal1 = host_state()
    print("after: loadavg=%.2f/%.2f/%.2f steal_ticks=%d (+%d)" %
          (load1 + (steal1, steal1 - steal0)))

    for w in workloads:
        print("\n%s  (failed/attempted: %s)" %
              (w, " ".join("%d/%d" % fa for fa in failed[w])))
        print("  %-24s %14s %14s %14s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values[w].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else (
                "WIDE" if spread >= bound else "near")
            print("  %-24s %14.6g %14.6g %14.6g %8.4f %7.2f %s" %
                  (name, med, q1, q3, spread, bound, flag))
            print("      runs: " + " ".join("%.6g" % v for v in vals))


if __name__ == "__main__":
    main()
