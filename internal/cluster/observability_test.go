package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// getJSON fetches one URL and decodes its JSON body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("get %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// getMetrics fetches and strictly parses one /metrics endpoint.
func getMetrics(t *testing.T, url string) *telemetry.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("%s/metrics content type = %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	m, err := telemetry.ParseMetrics(string(body))
	if err != nil {
		t.Fatalf("%s/metrics does not parse: %v", url, err)
	}
	return m
}

// TestClusterObservability is the observability smoke run by the CI race job:
// one coflow admitted through the gateway must produce (1) strictly parseable
// /metrics on the gateway and a shard, (2) a lifecycle trace joined across
// the gateway's and the owning shard's /debug/traces by the trace id the
// admit response returned, and (3) every shard's /v1/epochs, read at the
// URLs the gateway's /v1/backends lists.
func TestClusterObservability(t *testing.T) {
	l := newLocalCluster(t, 2, 200)
	c := l.Client()

	hosts := graph.FatTree(4, 1).Hosts()
	cf := coflow.Coflow{Name: "obs", Weight: 1, Flows: []coflow.Flow{
		{Source: hosts[0], Dest: hosts[1], Size: 1},
		{Source: hosts[2], Dest: hosts[3], Size: 2},
	}}
	resp, err := c.Admit(cf)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if resp.Trace == "" {
		t.Fatal("admit response carries no trace id")
	}

	// Wait for completion so the shard has recorded the whole lifecycle.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := c.Coflow(resp.ID)
		if err == nil && st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coflow did not complete (last: %+v, err=%v)", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (1) Metrics: both tiers must serve a strictly parseable exposition with
	// their stable series names.
	gm := getMetrics(t, l.URL())
	for _, name := range []string{
		"coflowgate_up", "coflowgate_coflows_total", "coflowgate_backends_healthy",
		"coflowgate_http_requests_total", "coflowgate_admit_seconds_bucket",
	} {
		if _, ok := firstSample(gm, name); !ok {
			t.Errorf("gateway metrics missing %s", name)
		}
	}
	if s, ok := gm.Get("coflowgate_backend_up", "shard", "shard0"); !ok || s.Value != 1 {
		t.Errorf("coflowgate_backend_up{shard=shard0} = %+v, %v", s, ok)
	}
	sm := getMetrics(t, l.ShardURL(0))
	for _, name := range []string{
		"coflowd_up", "coflowd_coflows_admitted_total", "coflowd_tick_duration_seconds_bucket",
		"coflowd_trace_spans_total",
	} {
		if _, ok := firstSample(sm, name); !ok {
			t.Errorf("shard metrics missing %s", name)
		}
	}
	if s, ok := sm.Get("coflowd_up", "shard", "shard0"); !ok || s.Value != 1 {
		t.Errorf(`coflowd_up{shard="shard0"} = %+v, %v`, s, ok)
	}

	// (2) Traces: the gateway ring holds the front-door spans under the trace
	// id, and exactly one shard holds the joined shard-side spans.
	var gdump telemetry.TraceDump
	getJSON(t, fmt.Sprintf("%s/debug/traces?trace=%s", l.URL(), resp.Trace), &gdump)
	wantGateway := map[string]bool{"admit": false, "batch-flush": false, "placement": false}
	for _, sp := range gdump.Spans {
		if _, ok := wantGateway[sp.Name]; ok {
			wantGateway[sp.Name] = true
		}
		if sp.Component != "coflowgate" {
			t.Errorf("gateway span %s has component %q", sp.Name, sp.Component)
		}
	}
	for name, seen := range wantGateway {
		if !seen {
			t.Errorf("gateway trace %s lacks a %s span (got %d spans)", resp.Trace, name, len(gdump.Spans))
		}
	}
	joined := 0
	for i := 0; i < l.NumShards(); i++ {
		var sdump telemetry.TraceDump
		getJSON(t, fmt.Sprintf("%s/debug/traces?trace=%s", l.ShardURL(i), resp.Trace), &sdump)
		if len(sdump.Spans) == 0 {
			continue
		}
		joined++
		wantShard := map[string]bool{"shard-admit": false, "completion": false}
		for _, sp := range sdump.Spans {
			if _, ok := wantShard[sp.Name]; ok {
				wantShard[sp.Name] = true
			}
			if sp.Component != "coflowd" {
				t.Errorf("shard span %s has component %q", sp.Name, sp.Component)
			}
		}
		for name, seen := range wantShard {
			if !seen {
				t.Errorf("shard %d trace %s lacks a %s span", i, resp.Trace, name)
			}
		}
	}
	if joined != 1 {
		t.Errorf("trace %s joined on %d shards, want exactly 1", resp.Trace, joined)
	}

	// (3) Epochs: the gateway serves neither an epoch ring nor a schedule of
	// its own (neither carries gateway ids); every shard's ring is read at the
	// URL /v1/backends lists for it.
	for _, path := range []string{"/v1/epochs", "/v1/schedule"} {
		r, err := http.Get(l.URL() + path)
		if err != nil {
			t.Fatalf("get gateway %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("gateway %s = %d, want 404", path, r.StatusCode)
		}
	}
	var roster []BackendStatus
	getJSON(t, l.URL()+"/v1/backends", &roster)
	if len(roster) != l.NumShards() {
		t.Fatalf("/v1/backends lists %d shards, want %d", len(roster), l.NumShards())
	}
	for _, b := range roster {
		var epochs server.EpochsResponse
		getJSON(t, b.URL+"/v1/epochs?n=16", &epochs)
		if epochs.Shard != b.Name || epochs.Policy == "" || len(epochs.Records) == 0 {
			t.Errorf("%s /v1/epochs at %s: shard %q, policy %q, %d records", b.Name, b.URL,
				epochs.Shard, epochs.Policy, len(epochs.Records))
		}
	}
}

// TestClusterStageSpans drives one admission through the gateway of a
// durable cluster and asserts the hot-path pipeline is observable end to end:
// the admit's trace id must join the gateway spans with the shard's per-stage
// spans (coalesce-wait → engine-admit → wal-append → group-commit), and the
// owning shard's /metrics must expose the stage families those spans
// aggregate into.
func TestClusterStageSpans(t *testing.T) {
	l, err := NewLocal(LocalConfig{
		Shards:    2,
		Policy:    online.SEBFOnline{},
		TimeScale: 200,
		WALDir:    t.TempDir(),
		Gateway:   fastGatewayConfig(t),
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	t.Cleanup(l.Close)
	c := l.Client()

	hosts := graph.FatTree(4, 1).Hosts()
	cf := coflow.Coflow{Name: "stage-obs", Weight: 1, Flows: []coflow.Flow{
		{Source: hosts[0], Dest: hosts[1], Size: 1},
		{Source: hosts[2], Dest: hosts[3], Size: 2},
	}}
	resp, err := c.Admit(cf)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if resp.Trace == "" {
		t.Fatal("admit response carries no trace id")
	}

	// The gateway side of the join must be present under the same trace id.
	var gdump telemetry.TraceDump
	getJSON(t, fmt.Sprintf("%s/debug/traces?trace=%s", l.URL(), resp.Trace), &gdump)
	if len(gdump.Spans) == 0 {
		t.Fatalf("gateway trace %s holds no spans", resp.Trace)
	}

	// Exactly one shard owns the coflow; its ring must hold shard-admit plus
	// every pipeline stage span. The stage spans are recorded synchronously
	// before the admit response returns, so no waiting is needed.
	wantStages := []string{"coalesce-wait", "engine-admit", "wal-append", "group-commit"}
	joined := 0
	for i := 0; i < l.NumShards(); i++ {
		var sdump telemetry.TraceDump
		getJSON(t, fmt.Sprintf("%s/debug/traces?trace=%s", l.ShardURL(i), resp.Trace), &sdump)
		if len(sdump.Spans) == 0 {
			continue
		}
		joined++
		seen := map[string]bool{}
		for _, sp := range sdump.Spans {
			seen[sp.Name] = true
		}
		if !seen["shard-admit"] {
			t.Errorf("shard %d trace %s lacks a shard-admit span", i, resp.Trace)
		}
		for _, name := range wantStages {
			if !seen[name] {
				t.Errorf("shard %d trace %s lacks a %s stage span", i, resp.Trace, name)
			}
		}

		// The same shard's exposition must carry the aggregate families the
		// spans feed: the per-stage histogram with every pipeline stage
		// child and the two log counters whose ratio is records per fsync.
		sm := getMetrics(t, l.ShardURL(i))
		for _, stage := range wantStages {
			if _, ok := sm.Get("coflowd_admit_stage_seconds_count", "stage", stage); !ok {
				t.Errorf("shard %d metrics lack coflowd_admit_stage_seconds{stage=%q}", i, stage)
			}
		}
		for _, name := range []string{"coflowd_wal_records_total", "coflowd_wal_fsyncs_total"} {
			if v, ok := firstSample(sm, name); !ok || v.Value < 1 {
				t.Errorf("shard %d metrics: %s = %v (present %v), want >= 1", i, name, v.Value, ok)
			}
		}
	}
	if joined != 1 {
		t.Errorf("trace %s joined on %d shards, want exactly 1", resp.Trace, joined)
	}
}

// firstSample finds any sample of the named family regardless of labels.
func firstSample(m *telemetry.Metrics, name string) (telemetry.Sample, bool) {
	for _, s := range m.Samples {
		if s.Name == name {
			return s, true
		}
	}
	return telemetry.Sample{}, false
}

// fallbackStub always falls back: it decides SEBF's order and hands it over
// as a *online.Fallback, the way LPEpoch does when its LP fails to solve.
type fallbackStub struct{}

func (fallbackStub) Name() string { return "fallback-stub" }

func (fallbackStub) Decide(snap *online.Snapshot) ([]coflow.FlowRef, error) {
	order, err := online.SEBFOnline{}.Decide(snap)
	if err != nil {
		return nil, err
	}
	return nil, &online.Fallback{Order: order, Err: errors.New("stub solver failure")}
}

// TestGatewayStatsCountFallbacks: the gateway's /v1/stats reports the
// fallback decisions of every shard, the sum of what the shards export as
// coflowd_policy_fallback_total, so an LP that degrades to SEBF on a shard
// cannot vanish from the cluster's view.
func TestGatewayStatsCountFallbacks(t *testing.T) {
	l, err := NewLocal(LocalConfig{
		Shards:    2,
		Policy:    fallbackStub{},
		TimeScale: 200,
		Gateway:   fastGatewayConfig(t),
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	t.Cleanup(l.Close)
	c := l.Client()
	hosts := graph.FatTree(4, 1).Hosts()
	for i := 0; i < 6; i++ {
		cf := coflow.Coflow{Name: fmt.Sprintf("fb-%d", i), Weight: 1, Flows: []coflow.Flow{
			{Source: hosts[i%8], Dest: hosts[8+i%8], Size: 20},
			{Source: hosts[(i+3)%16], Dest: hosts[(i+9)%16], Size: 10},
		}}
		if _, err := c.Admit(cf); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	// Let the shards decide over a few epochs; the drain then finishes every
	// coflow, after which an idle shard decides nothing more.
	time.Sleep(50 * time.Millisecond)
	if _, err := l.DrainAll(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	sum := 0.0
	for i := 0; i < l.NumShards(); i++ {
		s, ok := getMetrics(t, l.ShardURL(i)).Get("coflowd_policy_fallback_total", "reason", "solver")
		if !ok {
			t.Fatalf("shard%d exports no coflowd_policy_fallback_total", i)
		}
		sum += s.Value
	}
	if sum == 0 {
		t.Fatal("no shard fell back: the stub policy never decided")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("gateway stats: %v", err)
	}
	if float64(st.Fallbacks) != sum {
		t.Errorf("gateway /v1/stats fallbacks = %d, want the shards' summed coflowd_policy_fallback_total %v", st.Fallbacks, sum)
	}
}
