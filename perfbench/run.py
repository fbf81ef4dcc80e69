#!/usr/bin/env python3
"""Build and run the DeepStore benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <scan_mlp|array_ingest|qc_zipf> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/CMakeLists.txt (the
simulator sources under src/ plus the driver) into the directory named
by $CARGO_TARGET_DIR, or .bench_build; later runs only rebuild what
changed. Build output goes to stderr. The driver's standard output is
passed through, so its last line is the JSON result. With --trace 1
the driver writes the Chrome trace-event file of the traced run into
the build directory as trace_<workload>_<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure (once) and build the driver. Returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        os.makedirs(build_dir(), exist_ok=True)
        exe = build(build_dir())
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
