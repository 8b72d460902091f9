package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// fakeShard is a scrape target with a real telemetry registry and canned
// epoch/trace evidence, whose /metrics can be flipped to 503 to simulate an
// outage.
type fakeShard struct {
	ts   *httptest.Server
	down atomic.Bool
	reg  *telemetry.Registry
	reqs *telemetry.Counter
}

func newFakeShard(t *testing.T, shard string) *fakeShard {
	t.Helper()
	reg := telemetry.NewRegistry(telemetry.Label{Name: "shard", Value: shard})
	f := &fakeShard{reg: reg}
	reg.Gauge("coflowd_up", "").Set(1)
	f.reqs = reg.Counter("coflowd_http_requests_total", "")
	h := reg.Histogram("coflowd_tick_duration_seconds", "", nil)
	h.Observe(0.002)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, "dead", http.StatusServiceUnavailable)
			return
		}
		reg.Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/v1/epochs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"shard":%q,"records":[{"epoch":1,"traces":["t-1"]}]}`, shard)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"spans":[{"trace":"t-1","name":"admit","shard":%q}]}`, shard)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// testRules is a minimal SLO set whose windows comfortably cover a test's
// rapid manual Ticks.
func testRules() []Rule {
	return []Rule{
		{Name: "scrape-failure", Metric: "up", Kind: KindGauge, Objective: 1, Below: true,
			FastWindowSeconds: 60, SlowWindowSeconds: 120, ResolveAfterSeconds: 1},
	}
}

func TestMonitorScrapeFireBundle(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	dir := t.TempDir()
	m, err := New(Config{
		Targets:   []Target{{Name: "shard0", URL: shard.ts.URL}},
		Interval:  time.Hour, // tests step the monitor with Tick()
		Rules:     testRules(),
		BundleDir: dir,
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)

	shard.reqs.Add(5)
	m.Tick()
	shard.reqs.Add(5)
	m.Tick()

	// Healthy: target up, samples stored, rule healthy, no bundles.
	tgts := m.TargetStatuses()
	if len(tgts) != 1 || !tgts[0].Healthy || tgts[0].Samples == 0 {
		t.Fatalf("target status after healthy ticks: %+v", tgts)
	}
	rs := m.RuleStatuses()
	if len(rs) != 1 || rs[0].State != StateHealthy {
		t.Fatalf("rule state = %+v, want healthy", rs)
	}
	if v, ok := m.store.LastValue(Selector{Name: "up", Labels: map[string]string{"instance": "shard0"}}, time.Now(), time.Minute, "min"); !ok || v != 1 {
		t.Fatalf("synthetic up = %v, %v", v, ok)
	}
	if v, ok := m.store.LastValue(Selector{Name: "coflowd_http_requests_total", Labels: map[string]string{"shard": "shard0"}}, time.Now(), time.Minute, "max"); !ok || v != 10 {
		t.Fatalf("scraped counter = %v, %v; want 10", v, ok)
	}

	// Outage: the next tick records up=0, the Below rule fires immediately
	// (both windows see the dip), and the recorder writes a bundle.
	shard.down.Store(true)
	m.Tick()
	rs = m.RuleStatuses()
	if rs[0].State != StateFiring || rs[0].Firings != 1 {
		t.Fatalf("rule after outage = %+v, want firing once", rs[0])
	}
	bundles := m.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %+v, want exactly one", bundles)
	}

	// The bundle on disk is a readable post-mortem: rule status, targets,
	// series (with the pre-outage samples), and the evidence joins — the
	// epoch record and trace spans reference the same shard and trace id.
	data, err := os.ReadFile(bundles[0].Path)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if b.Rule.Rule.Name != "scrape-failure" || b.Rule.State != StateFiring {
		t.Errorf("bundle rule = %+v", b.Rule)
	}
	if len(b.Targets) != 1 || b.Targets[0].Healthy {
		t.Errorf("bundle targets = %+v, want the dead shard", b.Targets)
	}
	foundUp := false
	for _, sd := range b.Series {
		if sd.Name == "up" && sd.Labels["instance"] == "shard0" && len(sd.Points) == 3 {
			foundUp = true
		}
	}
	if !foundUp {
		t.Error("bundle series lack the 3-point up{instance=shard0} history")
	}
	var epochs struct {
		Shard   string `json:"shard"`
		Records []struct {
			Traces []string `json:"traces"`
		} `json:"records"`
	}
	if err := json.Unmarshal(b.Epochs["shard0"], &epochs); err != nil || epochs.Shard != "shard0" {
		t.Fatalf("bundle epochs for shard0: %v %+v", err, epochs)
	}
	var traces struct {
		Spans []struct {
			Trace string `json:"trace"`
			Shard string `json:"shard"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b.Traces["shard0"], &traces); err != nil || len(traces.Spans) == 0 {
		t.Fatalf("bundle traces for shard0: %v %+v", err, traces)
	}
	if epochs.Records[0].Traces[0] != traces.Spans[0].Trace {
		t.Errorf("epoch trace id %q does not join span trace id %q",
			epochs.Records[0].Traces[0], traces.Spans[0].Trace)
	}
	if traces.Spans[0].Shard != epochs.Shard {
		t.Errorf("span shard %q does not join epoch shard %q", traces.Spans[0].Shard, epochs.Shard)
	}

	// Still down: no duplicate bundle while the rule stays firing.
	m.Tick()
	if got := m.Bundles(); len(got) != 1 {
		t.Errorf("bundles after second down tick = %d, want still 1", len(got))
	}
}

func TestMonitorDiscovery(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	gwReg := telemetry.NewRegistry()
	gwReg.Gauge("coflowgate_up", "").Set(1)
	mux := http.NewServeMux()
	mux.Handle("/metrics", gwReg.Handler())
	mux.HandleFunc("/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `[{"name":"shard0","url":%q,"healthy":true}]`, shard.ts.URL)
	})
	gw := httptest.NewServer(mux)
	t.Cleanup(gw.Close)

	m, err := New(Config{
		DiscoverURL: gw.URL,
		Interval:    time.Hour,
		Rules:       testRules(),
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	m.Tick()

	names := map[string]bool{}
	for _, ts := range m.TargetStatuses() {
		names[ts.Name] = ts.Healthy
	}
	if !names["gateway"] || !names["shard0"] {
		t.Fatalf("discovered targets = %+v, want healthy gateway and shard0", names)
	}
	if v, ok := m.store.LastValue(Selector{Name: "coflowgate_up"}, time.Now(), time.Minute, "max"); !ok || v != 1 {
		t.Errorf("gateway metric not stored: %v %v", v, ok)
	}
}

func TestMonitorHTTPAPI(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	m, err := New(Config{
		Targets:  []Target{{Name: "shard0", URL: shard.ts.URL}},
		Interval: time.Hour,
		Rules:    testRules(),
		Logger:   telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	m.Tick()
	m.Tick()
	api := httptest.NewServer(m.Handler())
	t.Cleanup(api.Close)

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return resp.StatusCode
	}

	var slo struct {
		Rules   []RuleStatus `json:"rules"`
		Bundles []BundleInfo `json:"bundles"`
	}
	if code := getJSON("/v1/slo", &slo); code != 200 || len(slo.Rules) != 1 {
		t.Fatalf("/v1/slo: code=%d %+v", code, slo)
	}
	var tgts struct {
		Targets []TargetStatus `json:"targets"`
	}
	if code := getJSON("/v1/targets", &tgts); code != 200 || len(tgts.Targets) != 1 {
		t.Fatalf("/v1/targets: code=%d %+v", code, tgts)
	}
	var q queryResponse
	if code := getJSON("/v1/query?metric=up&l.instance=shard0&view=last", &q); code != 200 || !q.OK || q.Value == nil || *q.Value != 1 {
		t.Fatalf("/v1/query last: code=%d %+v", code, q)
	}
	if code := getJSON("/v1/query?metric=coflowd_tick_duration_seconds&view=quantile&q=0.5", &q); code != 200 {
		t.Fatalf("/v1/query quantile: code=%d", code)
	}
	var raw queryResponse
	if code := getJSON("/v1/query?metric=up&view=raw&since=10m", &raw); code != 200 || len(raw.Series) != 1 || len(raw.Series[0].Points) != 2 {
		t.Fatalf("/v1/query raw: code=%d %+v", code, raw)
	}
	var health map[string]string
	if code := getJSON("/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("/healthz: code=%d %+v", code, health)
	}
	for _, bad := range []string{
		"/v1/query",
		"/v1/query?metric=up&view=bogus",
		"/v1/query?metric=up&since=nope",
		"/v1/query?metric=h&view=quantile&q=2",
	} {
		var e map[string]string
		if code := getJSON(bad, &e); code != http.StatusBadRequest {
			t.Errorf("GET %s: code=%d, want 400", bad, code)
		}
	}
}

// TestQueryQuantileSelectsStage drives the per-stage admit latency workflow
// over HTTP: /v1/query's quantile view with l.stage=<stage> answers from that
// child of coflowd_admit_stage_seconds alone, not from the pool of every
// stage.
func TestQueryQuantileSelectsStage(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	stages := shard.reg.HistogramVec("coflowd_admit_stage_seconds", "", nil, "stage")
	admitStage, commitStage := stages.With("engine-admit"), stages.With("group-commit")
	m, err := New(Config{
		Targets:  []Target{{Name: "shard0", URL: shard.ts.URL}},
		Interval: time.Hour,
		Rules:    testRules(),
		Logger:   telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	m.Tick() // the children exist from boot, as coflowd's do: a baseline scrape
	for i := 0; i < 100; i++ {
		admitStage.Observe(0.0002) // bucket (1e-4, 5e-4]
		commitStage.Observe(0.02)  // bucket (0.01, 0.05]
	}
	m.Tick()
	api := httptest.NewServer(m.Handler())
	t.Cleanup(api.Close)

	p50 := func(selector string) float64 {
		t.Helper()
		path := "/v1/query?metric=coflowd_admit_stage_seconds&view=quantile&q=0.5" + selector
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var q queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&q); err != nil || resp.StatusCode != 200 || !q.OK || q.Value == nil {
			t.Fatalf("GET %s: code=%d err=%v %+v", path, resp.StatusCode, err, q)
		}
		return *q.Value
	}
	pooled := p50("")
	commit := p50("&l.stage=group-commit")
	admit := p50("&l.stage=engine-admit")
	if commit <= 0.01 || commit > 0.05 {
		t.Errorf("group-commit p50 = %v, want inside its observations' bucket (0.01, 0.05]", commit)
	}
	if admit <= 1e-4 || admit > 5e-4 {
		t.Errorf("engine-admit p50 = %v, want inside its observations' bucket (1e-4, 5e-4]", admit)
	}
	if pooled == commit || pooled == admit {
		t.Errorf("pooled p50 %v equals a child's (group-commit %v, engine-admit %v): the stage selector did nothing", pooled, commit, admit)
	}
}

func TestParseTargetConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no targets and no discover URL succeeded")
	}
	if _, err := New(Config{Targets: []Target{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}}); err == nil {
		t.Error("New with duplicate target names succeeded")
	}
	if _, err := New(Config{Targets: []Target{{Name: "a", URL: "http://x"}}, Rules: []Rule{{Name: "bad"}}}); err == nil {
		t.Error("New with invalid rule succeeded")
	}
}

// TestMonitorDiscoveryPlainCoflowd: a coflowd answers /v1/backends with 404.
// As a discovery target it is scraped alone, under the instance name
// "coflowd", and no discovery failure is logged at each tick.
func TestMonitorDiscoveryPlainCoflowd(t *testing.T) {
	srv, err := server.New(server.Config{Network: graph.FatTree(4, 1), Policy: online.SEBFOnline{}})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var logs bytes.Buffer
	m, err := New(Config{
		DiscoverURL: ts.URL,
		Interval:    time.Hour,
		Rules:       testRules(),
		Logger:      slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	m.Tick()
	m.Tick()

	targets := m.TargetStatuses()
	if len(targets) != 1 || targets[0].Name != "coflowd" || !targets[0].Healthy {
		t.Fatalf("targets = %+v, want the coflowd alone, healthy", targets)
	}
	if strings.Contains(logs.String(), "discovery failed") {
		t.Errorf("a 404 roster was logged as a failure:\n%s", logs.String())
	}
	sel := Selector{Name: "coflowd_admit_stage_seconds_count", Labels: map[string]string{"instance": "coflowd"}}
	if _, ok := m.store.LastValue(sel, time.Now(), time.Minute, "max"); !ok {
		t.Error(`coflowd's stage counts not stored under instance="coflowd"`)
	}
}

// TestMonitorTicksInOrder: Ticks called at once run one at a time, so every
// series' points stay in time order and a counter never reads as reset.
func TestMonitorTicksInOrder(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	m, err := New(Config{
		Targets:  []Target{{Name: "shard0", URL: shard.ts.URL}},
		Interval: time.Hour,
		Rules:    testRules(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				m.Tick()
			}
		}()
	}
	wg.Wait()
	for _, sd := range m.Store().Dump() {
		for i := 1; i < len(sd.Points); i++ {
			if sd.Points[i].T.Before(sd.Points[i-1].T) {
				t.Fatalf("series %s: point %d at %v precedes point %d at %v",
					sd.Name, i, sd.Points[i].T, i-1, sd.Points[i-1].T)
			}
		}
	}
}
