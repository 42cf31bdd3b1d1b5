#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The output checks catch a corrupted checksum, busy-slot count, cycle
   count, replay count and demoted region (perfbench --self-test), so no
   check is vacuous.
2. A one-pass smoke run of every workload, rt_threads included, untraced
   and traced, ends with no failed operation and prints exactly the
   metrics BENCHMARK.json names.
3. Simulated results do not depend on the seed: two seeds print the same
   results digest.
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.

Exits non-zero on the first failure.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py"]
# rt_threads is not in BENCHMARK.json (see the README) but stays runnable.
WORKLOADS = ("table2_cold", "sim_sweep", "rt_threads")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def smoke(workload, seed, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--passes", "1"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"{workload} trace={trace}: exit {p.returncode}\n"
             f"{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = re.search(r"results digest ([0-9a-f]+)", p.stderr)
    return result, digest.group(1) if digest else None


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())

    p = subprocess.run(RUN + ["--self-test"], capture_output=True, text=True)
    print(p.stdout, end="")
    if p.returncode != 0:
        fail("the checks missed a corrupted output")

    for w in WORKLOADS:
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, digests[trace] = smoke(w, 1, trace)
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"])
            if got != want:
                fail(f"{w} trace={trace}: metrics {sorted(got ^ want)} "
                     "differ from BENCHMARK.json")
            ok = result["correct"] and result["attempted"]
            if not ok or result["failed"]:
                fail(f"{w} trace={trace}: {result['failed']} of "
                     f"{result['attempted']} operations failed")
            print(f"smoke {w} trace={trace}: ok, "
                  f"{result['attempted']} operations")
        first, other = digests[0], smoke(w, 2, 0)[1]
        if not first or first != other:
            fail(f"{w}: results digest differs between seeds 1 and 2")
        print(f"seed independence {w}: ok ({first})")

    bare = Path(".bench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "table2_cold",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                       timeout=170)
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail("the command ran without the program's sources")
    print("without sources: exits", p.returncode, "with no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
