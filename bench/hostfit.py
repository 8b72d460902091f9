#!/usr/bin/env python3
"""Fits the host-reference exponents of ref.go / main.go from a pass log.

A pass log is what `--passlog FILE` appends: one line per pass with the raw
times and the host's pace just before and after the pass. Log every workload
in turn for long enough that the host goes through its regimes, e.g.

    for i in $(seq 60); do for w in offline-fig3 online-sebf-k4 online-sebf-k8 \
        online-lp-k4 admit-shard admit-cluster; do
      bash bench/run.sh --workload $w --seed $((i % 5 + 1)) --seconds 6 --passlog passes.jsonl
    done; done
    python3 bench/hostfit.py passes.jsonl

For every workload and time it prints the least-squares slope of log(time) on
log(pace), both taken as deviations from their mean over the passes of one
seed (so that what differs between inputs is not mistaken for the host), with
its standard error, and how much of the passes' variance the slope removes.
"""
import collections
import json
import math
import sys

rows = [json.loads(line) for line in open(sys.argv[1])]
rows = [r for r in rows if r["round"] > 0 and not r["traced"]]  # a run's first pass is cold


def centred(keys, values):
    groups = collections.defaultdict(list)
    for k, v in zip(keys, values):
        groups[k].append(v)
    mean = {k: sum(v) / len(v) for k, v in groups.items()}
    return [v - mean[k] for k, v in zip(keys, values)]


for workload in sorted({r["workload"] for r in rows}):
    mine = [r for r in rows if r["workload"] == workload]
    seeds = [r["seed"] for r in mine]
    x = centred(seeds, [0.5 * (math.log(r["pace"][0]) + math.log(r["pace"][1])) for r in mine])
    sxx = sum(a * a for a in x)
    print(f"{workload}: {len(mine)} passes")
    for name in ("wall_s", "op_p50_ms", "op_p90_ms", "setup_s"):
        y = centred(seeds, [math.log(r[name]) for r in mine])
        slope = sum(a * b for a, b in zip(x, y)) / sxx
        rest = [b - slope * a for a, b in zip(x, y)]
        err = math.sqrt(sum(e * e for e in rest) / (len(rest) - 2) / sxx)
        removed = 1 - sum(e * e for e in rest) / sum(b * b for b in y)
        print(f"  {name:<10} exponent {slope:5.2f} +- {err:.2f}   variance removed {removed:5.1%}")
