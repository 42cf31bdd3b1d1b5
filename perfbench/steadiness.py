#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

Runs one workload N times in each of two sets, the second started --gap
seconds after the first ended, each run with another seed (1 to 2N). Prints,
for every end-to-end metric, each set's median and quartiles, the spread
(quartile distance over median) and how far the second median moved from
the first, as rows of the README's steadiness table. Run from the root of a
checkout:

    python3 perfbench/steadiness.py --workload sim_sweep --runs 10 --gap 60

Stops with an error as soon as a run reports a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} "
                 "operations failed")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0,
                    help="seconds between the two sets")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets = []
    for s in range(2):
        if s:
            time.sleep(args.gap)
        runs = []
        for i in range(args.runs):
            runs.append(run_once(args.workload, s * args.runs + i + 1, seconds))
            print(".", end="", file=sys.stderr, flush=True)
        print(file=sys.stderr)
        sets.append(runs)

    print(f"{args.workload}: 2 sets of {args.runs} runs, {seconds} s each, "
          f"{args.gap:g} s apart")
    print("| workload | metric | set 1 median | set 1 q1–q3 | spread 1 "
          "| set 2 median | set 2 q1–q3 | spread 2 | 2 vs 1 | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, bound in bounds.items():
        fmt = "{:.1f}" if name == "peak_rss_mb" else "{:.3f}"
        cells, medians = [], []
        for runs in sets:
            med, q1, q3, spread = summary(
                [r["metrics"][name]["value"] for r in runs])
            medians.append(med)
            cells += [fmt.format(med), fmt.format(q1) + "–" + fmt.format(q3),
                      f"{spread:.1%}"]
        moved = medians[1] / medians[0] - 1
        print(f"| `{args.workload}` | `{name}` | " + " | ".join(cells) +
              f" | {moved:+.1%} | {bound:.0%} |")
    attempted = sum(r["attempted"] for runs in sets for r in runs)
    print(f"operations attempted: {attempted}, failed: 0")


if __name__ == "__main__":
    main()
