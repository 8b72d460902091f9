package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// stageLatency is one admit-pipeline stage's latency summary, computed from
// the daemon's cumulative coflowd_admit_stage_seconds histogram: how many
// admissions passed through the stage and the interpolated p50/p99 over the
// whole run. The report includes it so a soak violation names the guilty
// stage instead of just a fat end-to-end percentile.
type stageLatency struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// stageHist accumulates one stage's cumulative histogram, summed across
// shards when the target is a gateway (cumulative bucket counts add).
type stageHist struct {
	count float64
	cum   map[float64]float64 // le bound -> cumulative count
}

// fetchStageBreakdown scrapes the per-stage admit-latency histograms from
// the target. A coflowd target carries them directly; a coflowgate target
// does not, so its /v1/backends roster is scraped and merged instead (dead
// shards are skipped — the breakdown is evidence, not a health check). Stages
// are reported in server.AdmitStages order.
func fetchStageBreakdown(base string) ([]stageLatency, error) {
	m, err := scrapeMetricsPage(base)
	if err != nil {
		return nil, err
	}
	agg := map[string]*stageHist{}
	aggregateStages(agg, m)
	if len(agg) == 0 {
		backends, err := fetchBackends(base)
		if err != nil {
			return nil, fmt.Errorf("target has no stage histograms and no backend roster: %v", err)
		}
		for _, b := range backends {
			if bm, err := scrapeMetricsPage(b.URL); err == nil {
				aggregateStages(agg, bm)
			}
		}
	}
	var out []stageLatency
	for _, stage := range server.AdmitStages {
		h, ok := agg[stage]
		if !ok || h.count == 0 {
			continue
		}
		p50, _ := telemetry.HistogramQuantile(h.cum, 0.5)
		p99, _ := telemetry.HistogramQuantile(h.cum, 0.99)
		out = append(out, stageLatency{Stage: stage, Count: uint64(h.count), P50: p50, P99: p99})
	}
	return out, nil
}

// aggregateStages folds one /metrics page's coflowd_admit_stage_seconds
// samples into the per-stage accumulators.
func aggregateStages(agg map[string]*stageHist, m *telemetry.Metrics) {
	for _, s := range m.Samples {
		stage := s.Labels["stage"]
		if stage == "" {
			continue
		}
		h := agg[stage]
		if h == nil {
			h = &stageHist{cum: map[float64]float64{}}
			agg[stage] = h
		}
		switch s.Name {
		case "coflowd_admit_stage_seconds_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err == nil {
				h.cum[le] += s.Value
			}
		case "coflowd_admit_stage_seconds_count":
			h.count += s.Value
		}
	}
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

// scrapeMetricsPage fetches and strictly parses one /metrics endpoint.
func scrapeMetricsPage(base string) (*telemetry.Metrics, error) {
	resp, err := probeClient.Get(strings.TrimSuffix(base, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseMetrics(string(body))
}

// fetchBackends reads a coflowgate /v1/backends roster.
func fetchBackends(base string) ([]struct{ Name, URL string }, error) {
	resp, err := probeClient.Get(strings.TrimSuffix(base, "/") + "/v1/backends")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var roster []struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		return nil, err
	}
	out := make([]struct{ Name, URL string }, 0, len(roster))
	for _, b := range roster {
		if b.URL != "" {
			out = append(out, struct{ Name, URL string }{b.Name, b.URL})
		}
	}
	return out, nil
}
