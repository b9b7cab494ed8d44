#!/usr/bin/env python3
"""Steadiness report for the Thrifty benchmark.

    python3 perfbench/steady.py --seeds 10

Run from the repository root. For every workload it makes one untraced run
per seed (seeds 1..N, each measuring BENCHMARK.json's run_seconds) and one
traced run of seed 1, then prints per end-to-end metric the median, the
quartiles and the spread (distance between the quartiles as a share of the
median, as statistics.quantiles(n=4) gives them), flags every spread beyond
the metric's bound in BENCHMARK.json, and prints the traced run's per-layer
metrics and tracing overhead. Host facts (nproc, SIMD dispatch target,
THRIFTY_FORCE_SCALAR, thread counts, build type) are printed beside the
numbers. The exit code is non-zero when a run fails, a spread is beyond its
bound, or the traced run's fingerprints differ from the untraced run's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
# Report lines that are a pure function of the seed: every one the traced
# run prints must appear in the untraced run of the same seed.
DETERMINISTIC = "fingerprint"


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def spread(values):
    """Median, quartiles and (q3 - q1) / median of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    beyond = []
    unrepeated = []
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        first_lines = []
        for seed in range(1, args.seeds + 1):
            code, lines, result = run_once(workload, seed, seconds, 0)
            if code != 0 or result is None:
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                print("\n".join(lines[-5:]))
                return 1
            runs.append(result)
            if seed == 1:
                first_lines = [l for l in lines if l.startswith(DETERMINISTIC)]
            host = next((l for l in lines if l.startswith("host:")), "")
            fingerprints = [l for l in lines if l.startswith("fingerprint")]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + "; " + "; ".join(fingerprints), flush=True)
        print(f"\n{workload} ({len(runs)} seeds)   {host}")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            flag = ""
            if share > bound:
                flag = "  BEYOND BOUND"
                beyond.append(f"{workload}/{name}")
            elif share > bound / 3:
                flag = "  above bound/3"
            print(f"  {name:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{share:>9.4f}{bound:>8.3g}{flag}")
        code, lines, traced = run_once(workload, 1, seconds, 1)
        if code != 0 or traced is None:
            print(f"{workload} traced run FAILED (exit {code})")
            return 1
        print("  traced run (seed 1):")
        for line in lines[:-1]:
            if not line.startswith(("host:", "workload ")):
                print("    " + line)
        if not set(l for l in lines if l.startswith(DETERMINISTIC)) <= set(first_lines):
            unrepeated.append(workload)
            print("  deterministic outputs DIFFER between the untraced and "
                  "traced runs of the same seed")
        else:
            print("  deterministic outputs repeat exactly in the traced run")
        print(flush=True)
    print("spreads beyond bound: " + (", ".join(beyond) if beyond else "none"))
    print("deterministic outputs not repeated: "
          + (", ".join(unrepeated) if unrepeated else "none"))
    return 1 if beyond or unrepeated else 0


if __name__ == "__main__":
    sys.exit(main())
