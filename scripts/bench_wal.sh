#!/usr/bin/env bash
# Measures the WAL admit-path overhead and prints a one-line JSON summary; it
# records nothing (recorded numbers come from bench/, see BENCHMARK.json).
#
# Usage: scripts/bench_wal.sh [label]
#
# Two series:
#
#   BenchmarkAdmit (serial)       — one admission at a time. Every wal=on
#     iteration necessarily pays a private fsync, so this ratio measures raw
#     fsync latency, a hardware property. Printed as a diagnostic, NOT held
#     against the budget.
#   BenchmarkAdmitParallel        — concurrent admissions, the workload the
#     admission path is built for: each handler waits in the log's group
#     commit after the scheduler appended its record, and concurrent waiters
#     share one fsync, so the fsync cost is amortized across everything in
#     flight. This is the budget series.
#
# The budget compares mean ns/op of wal=on vs wal=off for the parallel
# series. The pair runs back-to-back COUNT times and the budget takes the
# MEDIAN of the per-run ratios: a saturated concurrent benchmark is noisy and
# the box drifts over minutes, so pairing each ratio in time and discarding
# outlier runs is what makes the number reproducible. Run at GOMAXPROCS=CPUS
# so a handler's fsync overlaps the scheduler's admission work instead of
# stalling the only processor.
#
# The label tags the summary (defaults to the current commit). BENCHTIME
# overrides the parallel iteration count (default 5000x), COUNT the runs per
# variant (default 3), CPUS the GOMAXPROCS for the parallel series (default
# 4). STRICT=1 makes a budget violation exit nonzero (the CI trend job runs
# this; group commit makes the ratio a code property, not a disk property).
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
benchtime="${BENCHTIME:-5000x}"
count="${COUNT:-3}"
cpus="${CPUS:-4}"
budget="${BUDGET:-1.05}" # ≤5% admit regression budget

serial=$(go test -run=NONE -bench='^BenchmarkAdmit$/' -benchtime=500x ./internal/server/)
parallel=""
for _ in $(seq "$count"); do
  run=$(go test -run=NONE -bench='^BenchmarkAdmitParallel$/' -benchtime="$benchtime" \
    -cpu="$cpus" ./internal/server/)
  parallel="$parallel$run"$'\n'
done

# Budget: median of per-run (wal=on / wal=off) ratios, each ratio taken from
# one paired run. Serial ratio rides along as the fsync-latency diagnostic.
summary=$(printf '%s\n%s\n' "$serial" "$parallel" | awk \
  -v label="$label" -v budget="$budget" -v cpus="$cpus" '
  function median(a, n,    i, j, t) {
    for (i = 1; i < n; i++) for (j = i + 1; j <= n; j++)
      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
    return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
  }
  /^BenchmarkAdmit/ {
    ns = ""
    for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") ns = $i
    if ($1 ~ /^BenchmarkAdmitParallel\/wal=off/) off = ns + 0
    else if ($1 ~ /^BenchmarkAdmitParallel\/wal=on/ && off > 0) {
      ratios[++nratios] = (ns + 0) / off
      off = 0
    }
    else if ($1 ~ /^BenchmarkAdmit\/wal=off/) soff = ns
    else if ($1 ~ /^BenchmarkAdmit\/wal=on/) son = ns
  }
  END {
    mratio = median(ratios, nratios)
    sratio = (soff != "") ? son / soff : 0
    within = (mratio <= budget) ? "true" : "false"
    printf("{\"experiment\":\"wal-overhead\",\"label\":\"%s\",\"series\":\"parallel\",\"gomaxprocs\":%s,\"runs\":%d,", label, cpus, nratios)
    printf("\"mean_ratio\":%.4f,\"serial_mean_ratio\":%.4f,\"budget\":%s,\"within_budget\":%s}", mratio, sratio, budget, within)
  }')
echo "$summary"
if [ "${STRICT:-0}" = "1" ] && echo "$summary" | grep -q '"within_budget":false'; then
  echo "bench_wal: WAL admit overhead exceeds the ${budget}x budget" >&2
  exit 1
fi
