#!/usr/bin/env python3
"""Build and run one workload of the SpecSync end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table2_cold --seed 1 \
        --seconds 30 --trace 0

The benchmark program (perfbench/src, linked against src/) is built with
CMake under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset. Every SPECSYNC_* variable is removed from the program's
environment, so the session defaults are what is measured. All other
arguments go to the program unchanged; its last stdout line is the JSON
result. Build output goes to stderr. Traced runs write their spans under
.bench_out/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path("perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(root) / "perfbench"


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (Path("src") / "CMakeLists.txt").is_file():
        fail("run from the root of a SpecSync checkout (src/ not found)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SPECSYNC_")}


def main(argv):
    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    Path(".bench_out").mkdir(exist_ok=True)
    try:
        proc = subprocess.run([str(exe)] + argv, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
