#!/usr/bin/env python3
"""HOME's end-to-end benchmark: build the driver from source, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pm-wide --seed 1 --seconds 20 --trace 0

The driver (perfbench/driver.cpp) is built with CMake into .bench_build (or
$CARGO_TARGET_DIR when set) on first use.  Build output goes to stderr; stdout
is perfbench_driver's report, whose last line is the JSON result.  The result's
metric names and units are checked against BENCHMARK.json before it is
printed, so a benchmark that drifted from its definition fails instead of
reporting.  Exits non-zero, printing no result, when the checkout has no HOME
sources, the build fails, the driver fails, or the result is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("pm-wide", "pm-narrow")
# The driver must answer well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quietly(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no HOME sources under ./src; run from the root of a checkout", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quietly(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench_driver", "-j", jobs], 840):
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work_dir = os.path.join(BUILD_DIR, "work")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    # Own process group: on a timeout perfbench_driver's child processes go too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    started = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"driver exited with status {proc.returncode} after "
             f"{time.monotonic() - started:.1f} s")
    lines = out.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
