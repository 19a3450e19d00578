#!/usr/bin/env python3
"""Run bench/run.py once per seed and summarize the spread of each metric.

    python3 bench/repeat.py --workload analyze_audit --seeds 1-10 [--out FILE]

For each metric prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median that BENCHMARK.json's bounds are
judged against, and the same for the operation metrics as measured, before
the reference-speed scaling (`raw.*`). --out saves every run's result line
as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds is None:
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        args.seconds = str(spec["run_seconds"])

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("  raw "):
                _, name, value, unit = line.split()
                result["metrics"][f"raw.{name}"] = {"value": float(value), "unit": unit}
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"{values}", flush=True)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
