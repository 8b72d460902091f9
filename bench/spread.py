#!/usr/bin/env python3
"""Checks the benchmark's steadiness the way the driver does.

Runs every workload of BENCHMARK.json once per seed (untraced) and prints,
for each end-to-end metric, the median over the seeds and the distance
between the first and third quartile as a share of that median, next to the
metric's bound. A spread above a third of its bound is marked; above the
bound the driver refuses the benchmark.

    python3 bench/spread.py [first_seed [seeds [workload ...]]]
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
count = int(sys.argv[2]) if len(sys.argv) > 2 else 10
names = sys.argv[3:] or [w["name"] for w in spec["workloads"]]

for name in names:
    runs = []
    for seed in range(first, first + count):
        out = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        last = json.loads(out.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0, (name, seed, last)
        runs.append(last["metrics"])
    print(f"{name}: seeds {first}..{first + count - 1}")
    for m in spec["end_to_end"]:
        values = [r[m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        mark = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
        print(f"  {m['name']:<14} median {median:>14.6g} {m['unit']:<8} min {min(values):>12.6g} max {max(values):>12.6g}"
              f"  spread {spread:6.3f}  bound {m['bound']:.2f}{mark}")
