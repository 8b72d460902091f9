#!/usr/bin/env bash
# Records the simulator benchmark trajectory into BENCH_sim.json (JSON Lines).
#
# Usage: scripts/bench_sim.sh [label]
#
# Each invocation appends:
#   - one object per `go test -bench` result of the simulator / online-engine
#     hot-path benchmarks (ns/op, B/op, allocs/op), and
#   - the coflowbench `-experiment sim -json` result: incremental vs naive
#     reference wall times on identical instances, with the objective
#     equivalence check built in.
#
# The label tags the snapshot (defaults to the current commit); BENCHTIME
# overrides the go-bench iteration count (default 5x); CPUS sets GOMAXPROCS
# for the bench run (default: the machine's). Every gobench line records the
# GOMAXPROCS it ran under: the simulator and engine are single-goroutine, but
# the runtime's concurrent collector is not, and earlier BENCH_sim.json
# records carry the field — compare ns/op only between snapshots taken at the
# same width.
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
benchtime="${BENCHTIME:-5x}"
cpus="${CPUS:-${GOMAXPROCS:-$(nproc)}}"
out="BENCH_sim.json"

# Benchmark lines are parsed by unit, not field position: custom metrics
# (the engine-tick pair reports a same-window "pair-overhead-%") print
# between ns/op and B/op, so positional parsing would shift on them.
go test -run=NONE -bench='BenchmarkRun|BenchmarkEngineTick' -benchmem \
  -benchtime="$benchtime" -cpu="$cpus" ./internal/sim/ ./internal/online/ |
  awk -v label="$label" -v cpus="$cpus" '
    /^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name)
      ns=""; bytes=""; allocs=""; overhead=""
      for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") ns = $i
        else if ($(i+1) == "B/op") bytes = $i
        else if ($(i+1) == "allocs/op") allocs = $i
        else if ($(i+1) == "pair-overhead-%") overhead = $i
      }
      line = sprintf("{\"experiment\":\"gobench\",\"label\":\"%s\",\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s,\"gomaxprocs\":%s",
                     label, name, ns, bytes, allocs, cpus)
      if (overhead != "") line = line sprintf(",\"pair_overhead_pct\":%s", overhead)
      print line "}"
    }' >>"$out"

go run ./cmd/coflowbench -experiment sim -json |
  sed "s/^{/{\"label\":\"$label\",/" >>"$out"

echo "bench_sim: appended snapshot \"$label\" to $out" >&2
