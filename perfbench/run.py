#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 15 --trace 0

Builds the library (Release, no sanitizer) from the checkout into
.bench_build/, installs it there, builds perfbench against that install,
runs the benchmark's self-test, then runs one measurement.  Build output goes
to stderr; the last stdout line is the result JSON object.  Exits non-zero
without a result when the build, the self-test or a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-fleet", "plan-robust")
RUN_TIMEOUT_S = 170


def sh(cmd, **kw):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build(work):
    jobs = str(os.cpu_count() or 1)
    lib_build = os.path.join(work, "protondose")
    prefix = os.path.join(work, "prefix")
    bench_build = os.path.join(work, "perfbench")
    # Configure once; later builds re-run CMake themselves when a list file
    # changed.
    if not os.path.exists(os.path.join(lib_build, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", lib_build, "-DCMAKE_BUILD_TYPE=Release",
            "-DPROTONDOSE_SANITIZE=OFF", "-DPROTONDOSE_WERROR=OFF"])
    # The CLI target depends on every library; install needs all of them.
    sh(["cmake", "--build", lib_build, "--target", "protondose", "-j", jobs])
    sh(["cmake", "--install", lib_build, "--prefix", prefix])
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bench_build, "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PREFIX_PATH=" + prefix])
    sh(["cmake", "--build", bench_build, "-j", jobs])
    return bench_build


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = os.path.join(os.getcwd(), ".bench_build")
    try:
        bench_build = build(work)
        sh([os.path.join(bench_build, "perfbench_selftest"), "--gtest_brief=1"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build or self-test failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(bench_build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    # perfbench prints correct=false with no metrics when a check failed;
    # pass that through, with its non-zero exit code.
    sys.stdout.write(proc.stdout)
    if proc.returncode == 0:
        declared = declared_metrics(args.trace)
        printed = set(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        if printed != declared:
            print(f"run.py: metrics differ from BENCHMARK.json: "
                  f"{sorted(printed ^ declared)}", file=sys.stderr)
            return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
