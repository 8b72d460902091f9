package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coflowsched/internal/monitor"
	"coflowsched/internal/telemetry"
)

// watch starts a monitor over l's gateway and every shard it lists, scraping
// every 100 ms with the default rules, and serves the monitor's HTTP API.
// Both stop at cleanup: before the cluster, when l.Close was registered
// first.
func watch(t *testing.T, l *Local, bundleDir string) (*monitor.Monitor, string) {
	t.Helper()
	m, err := monitor.New(monitor.Config{
		DiscoverURL: l.URL(),
		Interval:    100 * time.Millisecond,
		BundleDir:   bundleDir,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new monitor: %v", err)
	}
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return m, ts.URL
}

// TestClusterMonitorSLO is the CI monitor smoke: a 2-shard cluster watched
// by a monitor replays a short scenario while every SLO stays healthy,
// then loses a shard — the shard-down rule must reach firing and the flight
// recorder must write a bundle.
func TestClusterMonitorSLO(t *testing.T) {
	bundleDir := t.TempDir()
	l, err := NewLocal(LocalConfig{
		Shards:    2,
		TimeScale: 200,
		Gateway: Config{
			// Fast health probing so the kill is detected within a few
			// monitor scrapes rather than the default 1s probe period.
			HealthInterval: 100 * time.Millisecond,
		},
		Logger: telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	t.Cleanup(l.Close)
	mon, monURL := watch(t, l, bundleDir)
	if mon == nil || monURL == "" {
		t.Fatal("monitor not running")
	}

	// Drive a short scenario replay through the gateway while the monitor
	// scrapes it.
	if _, err := replayUniform(l.Client(), true); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// /v1/slo over HTTP: every rule healthy after a clean replay.
	fetchRules := func() []monitor.RuleStatus {
		t.Helper()
		resp, err := http.Get(monURL + "/v1/slo")
		if err != nil {
			t.Fatalf("GET /v1/slo: %v", err)
		}
		defer resp.Body.Close()
		var body struct {
			Rules   []monitor.RuleStatus `json:"rules"`
			Bundles []monitor.BundleInfo `json:"bundles"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode /v1/slo: %v", err)
		}
		return body.Rules
	}
	// Give the monitor a couple of intervals to have scraped post-replay.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rules := fetchRules()
		evaluated := len(rules) > 0
		healthy := true
		for _, r := range rules {
			if r.Evaluations == 0 {
				evaluated = false
			}
			if r.State == monitor.StateFiring || r.Firings > 0 {
				t.Fatalf("rule %s fired during a healthy replay: %+v", r.Rule.Name, r)
			}
			if r.State != monitor.StateHealthy {
				healthy = false
			}
		}
		if evaluated && healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rules never settled healthy: %+v", rules)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Kill a shard: its scrape fails immediately (up=0 → scrape-failure) and
	// the gateway's probes eject it (coflowgate_backend_up{shard=shard1}=0 →
	// shard-down). Both must reach firing, and firing must write a bundle.
	l.Kill(1)
	deadline = time.Now().Add(20 * time.Second)
	for {
		states := map[string]monitor.RuleState{}
		for _, r := range fetchRules() {
			states[r.Rule.Name] = r.State
		}
		if states["shard-down"] == monitor.StateFiring && states["scrape-failure"] == monitor.StateFiring {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard-down/scrape-failure never fired: %+v", states)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The bundle lands after the firing state becomes visible — capture
	// samples an on-alert CPU profile before writing — so poll the index,
	// which lists a bundle once its file is whole. Polling the directory for
	// any file is not enough: another rule firing first would leave a bundle
	// that says nothing about the two rules under test.
	for {
		names := map[string]bool{}
		for _, b := range mon.Bundles() {
			names[b.Rule] = true
		}
		if names["shard-down"] || names["scrape-failure"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flight-recorder bundle for the fired rules: %+v", mon.Bundles())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
