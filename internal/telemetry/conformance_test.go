// Package telemetry_test holds the scrape-contract conformance tests: every
// series coflowd and coflowgate expose must parse under the strict text-format
// parser, and the family names — dashboards and scrape configs key on them —
// must stay exactly this set. telemetry is a stdlib-only leaf, so importing
// server and cluster here creates no cycle.
package telemetry_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"coflowsched/internal/cluster"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// coflowdFamilies is the stable /metrics name set of a coflowd daemon.
var coflowdFamilies = []string{
	"coflowd_up",
	"coflowd_sim_now",
	"coflowd_epochs_total",
	"coflowd_decisions_total",
	"coflowd_policy_fallback_total",
	"coflowd_coflows_admitted_total",
	"coflowd_coflows_completed_total",
	"coflowd_coflows_active",
	"coflowd_flows_active",
	"coflowd_weighted_cct",
	"coflowd_weighted_response",
	"coflowd_http_requests_total",
	"coflowd_http_request_errors_total",
	"coflowd_tick_duration_seconds",
	"coflowd_trace_spans_total",
	"coflowd_wal_records_total",
	"coflowd_wal_fsyncs_total",
	"coflowd_wal_recovered_coflows",
	"coflowd_snapshots_total",
	"coflowd_admit_stage_seconds",
}

// runtimeFamilies is the process-health set RegisterRuntimeCollector adds to
// every daemon registry.
var runtimeFamilies = []string{
	"go_goroutines",
	"go_heap_bytes",
	"go_gc_pause_seconds_total",
	"go_gc_cycles_total",
	"go_gomaxprocs",
	"go_sched_latency_seconds",
}

// coflowgateFamilies is the stable /metrics name set of a gateway (the
// per-backend vec appears once a backend exists). Each family has a named
// consumer; coflowgate_client_retries_total, the one other family, appears
// once a backend request is retried.
var coflowgateFamilies = []string{
	"coflowgate_up",
	"coflowgate_coflows_total",
	"coflowgate_backends_healthy",
	"coflowgate_http_requests_total",
	"coflowgate_backend_up",
	"coflowgate_admit_seconds",
}

// scrape fetches and strictly parses one /metrics endpoint.
func scrape(t *testing.T, url string) *telemetry.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	m, err := telemetry.ParseMetrics(string(body))
	if err != nil {
		t.Fatalf("metrics from %s do not parse: %v\n%s", url, err, body)
	}
	return m
}

// baseName strips the histogram sample suffixes so parsed sample names map
// back to registered family names.
func baseName(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
			return name[:len(name)-len(suffix)]
		}
	}
	return name
}

// assertFamilies checks the scraped families are exactly the expected set.
func assertFamilies(t *testing.T, m *telemetry.Metrics, want []string, who string) {
	t.Helper()
	got := map[string]bool{}
	for _, s := range m.Samples {
		got[baseName(s.Name)] = true
	}
	wantSet := map[string]bool{}
	for _, n := range want {
		wantSet[n] = true
		if !got[n] {
			t.Errorf("%s /metrics lacks family %s", who, n)
		}
	}
	var extra []string
	for n := range got {
		if !wantSet[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		t.Errorf("%s /metrics grew an unpinned family %s — if intentional, add it here", who, n)
	}
}

// TestCoflowdMetricsConformance pins the standalone daemon's scrape contract.
func TestCoflowdMetricsConformance(t *testing.T) {
	s, err := server.New(server.Config{
		Network: graph.Star(4, 1),
		Policy:  online.SEBFOnline{},
		Logger:  telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	m := scrape(t, ts.URL)
	assertFamilies(t, m, append(append([]string{}, coflowdFamilies...), runtimeFamilies...), "coflowd")
	// The pipeline-stage vec and the fallback counter's reason are the only
	// intentional label dimensions besides histogram buckets; anything else is
	// contract drift.
	for _, s := range m.Samples {
		for key := range s.Labels {
			fallbackReason := key == "reason" && s.Name == "coflowd_policy_fallback_total"
			if key != "le" && key != "stage" && !fallbackReason {
				t.Errorf("unlabelled daemon grew label %q on %s: %v", key, s.Name, s.Labels)
			}
		}
	}
	// The solver fallback child reads 0 from boot, so that a rate rule on it
	// has a series before the first fallback.
	if _, ok := m.Get("coflowd_policy_fallback_total", "reason", "solver"); !ok {
		t.Error(`coflowd_policy_fallback_total lacks its boot-time child {reason="solver"}`)
	}
	// Every pipeline stage child must be scrapeable from boot — dashboards
	// select on {stage=...} before the first admission arrives.
	for _, stage := range []string{"coalesce-wait", "engine-admit", "wal-append", "group-commit"} {
		if _, ok := m.Get("coflowd_admit_stage_seconds_count", "stage", stage); !ok {
			t.Errorf("coflowd_admit_stage_seconds lacks boot-time child for stage %q", stage)
		}
	}
	if typ := m.Types["coflowd_admit_stage_seconds"]; typ != "histogram" {
		t.Errorf("coflowd_admit_stage_seconds type = %q, want histogram", typ)
	}
}

// TestCoflowgateMetricsConformance pins the gateway's scrape contract,
// including the per-backend labelled series.
func TestCoflowgateMetricsConformance(t *testing.T) {
	l, err := cluster.NewLocal(cluster.LocalConfig{
		Shards: 2,
		Policy: online.SEBFOnline{},
		Logger: telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	t.Cleanup(l.Close)
	m := scrape(t, l.URL())
	assertFamilies(t, m, append(append([]string{}, coflowgateFamilies...), runtimeFamilies...), "coflowgate")
	for _, shard := range []string{"shard0", "shard1"} {
		if s, ok := m.Get("coflowgate_backend_up", "shard", shard); !ok || s.Value != 1 {
			t.Errorf("coflowgate_backend_up{shard=%q} = %+v, %v", shard, s, ok)
		}
	}
	if typ := m.Types["coflowgate_admit_seconds"]; typ != "histogram" {
		t.Errorf("coflowgate_admit_seconds type = %q, want histogram", typ)
	}
}
