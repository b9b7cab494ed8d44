#!/usr/bin/env python3
"""Builds the Thrifty benchmark from source and runs one workload.

    python3 perfbench/run.py --workload onboard_cold --seed 1 --seconds 25 --trace 0

Run from the repository root. The library (src/) and the benchmark program
(perfbench/thrifty_bench.cc) are compiled into .bench_build/perfbench on the
first call; later calls only rebuild what changed. The program's report is
passed through, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero when
the build fails, the program fails or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("onboard_cold", "serve_replay", "stream_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configures (once) and builds thrifty_bench; returns its path or None."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "thrifty_bench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: build step failed: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = BUILD_DIR / "thrifty_bench"
    return binary if binary.exists() else None


def valid_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out",
                    str(BUILD_DIR / f"spans-{args.workload}-{args.seed}.json")]
    # thrifty_bench runs in its own process group so a timeout stops all of it.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, 9)
        process.wait()
        print("run.py: thrifty_bench timed out", file=sys.stderr)
        return 1
    lines = output.rstrip("\n").split("\n")
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write(output)
        print("run.py: thrifty_bench printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
