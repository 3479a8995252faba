#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs one workload once per seed through BENCHMARK.json's command and
run_seconds, then prints, for every end-to-end metric, the median and the
spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, over the median) next to the
metric's bound. A spread above a third of its bound is flagged (setup_s
has no spread limit, only its median is gated).

usage (from the repository root):
    python3 perfbench/steady.py WORKLOAD [RUNS [FIRST_SEED]]
"""

import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(first, first + runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} runs failed")
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    print(f"{'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  above a third of the bound"
        print(f"{name:<26} {med:>12.6g} {spread:>8.4f} {bounds[name]:>6}{flag}")


if __name__ == "__main__":
    main()
