package main

import (
	"time"

	"coflowsched/internal/monitor"
	"coflowsched/internal/server"
)

// stageLatency is one admit-pipeline stage's latency summary over the run:
// how many admissions passed through the stage and the interpolated p50/p99,
// from the shards' coflowd_admit_stage_seconds histograms. The report
// includes it so a soak violation names the guilty stage instead of just a
// fat end-to-end percentile.
type stageLatency struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// stageBreakdown reads every stage's summary over [start, now] from the
// run's monitor store, summed across the scraped instances (a dead shard's
// missing scrapes add nothing). The store keeps at most
// monitor.DefaultMaxPoints per series, so a long run's window is its last
// 1 024 scrapes. Stages are reported in server.AdmitStages order; one that
// no admission passed through is left out.
func stageBreakdown(st *monitor.Store, start time.Time) []stageLatency {
	now := time.Now()
	window := now.Sub(start)
	var out []stageLatency
	for _, stage := range server.AdmitStages {
		labels := map[string]string{"stage": stage}
		n, _ := st.Increase(monitor.Selector{Name: "coflowd_admit_stage_seconds_count", Labels: labels}, now, window)
		if n == 0 {
			continue
		}
		hist := monitor.Selector{Name: "coflowd_admit_stage_seconds", Labels: labels}
		p50, _ := st.HistogramQuantile(hist, 0.5, now, window)
		p99, _ := st.HistogramQuantile(hist, 0.99, now, window)
		out = append(out, stageLatency{Stage: stage, Count: uint64(n), P50: p50, P99: p99})
	}
	return out
}

// worstStage names the stage with the highest p99 — the guilty party a soak
// violation points at.
func worstStage(stages []stageLatency) string {
	worst := ""
	var worstP99 float64
	for _, st := range stages {
		if st.P99 >= worstP99 {
			worst, worstP99 = st.Stage, st.P99
		}
	}
	return worst
}
