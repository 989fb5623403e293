#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]

Runs the benchmark --runs times on one workload, each with another seed,
and prints per metric the median, the quartile spread (Q3 - Q1) / median
and its ratio to the metric's bound in BENCHMARK.json. A spread above a
third of the bound is flagged: the benchmark is not steady enough there.
Run from the repo root.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = subprocess.run(
            [sys.executable, runner, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            sys.exit("seed %d failed with exit code %d" % (seed, r.returncode))
        result = json.loads(r.stdout.strip().splitlines()[-1])
        row = []
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
            row.append("%s=%.6g" % (name, v["value"]))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)
    print("%-20s %14s %9s %7s" % ("metric", "median", "spread", "/bound"))
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = stats.quartile_spread(xs)
        share = spread / m["bound"]
        print("%-20s %14.6g %8.2f%% %7.2f%s"
              % (m["name"], stats.median(xs), 100 * spread, share,
                 "  NOISY" if share > 1 / 3 and m["name"] != "setup_s" else ""))


if __name__ == "__main__":
    main()
