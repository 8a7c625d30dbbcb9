#!/usr/bin/env python3
"""Runs one workload once per seed and prints, for every end-to-end metric,
the median and the interquartile range as a share of the median — the
steadiness figure each metric's `bound` in BENCHMARK.json is judged against.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds S]

Run it from the repository root; it calls `perfbench/run.py` for each seed.
`--seconds` defaults to BENCHMARK.json's `run_seconds`.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in range(first, last + 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or not result or not result["correct"]:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for line in proc.stderr.splitlines():
            if line.startswith("wall time:"):
                print(f"  {line}", flush=True)

    print(f"\n{'metric':<24} {'median':>12} {'IQR/median':>11} {'bound':>7}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<24} {med:>12.4f} {spread:>11.4f} {bound:>7}{flag}")


if __name__ == "__main__":
    main()
