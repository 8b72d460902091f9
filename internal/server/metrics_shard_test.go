package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// TestMetricsShardLabel: with a shard identity configured, every /metrics
// series carries the {shard="..."} label; without one, the classic unlabelled
// names are preserved (asserted by TestMetricsEndpoint elsewhere).
func TestMetricsShardLabel(t *testing.T) {
	s, err := New(Config{
		Network:     graph.Star(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 1,
		TimeScale:   100,
		Shard:       "shard-a",
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(body)
	if !strings.Contains(text, `coflowd_up{shard="shard-a"} 1`) {
		t.Errorf("metrics missing labelled up line:\n%s", text)
	}
	parsed, err := telemetry.ParseMetrics(text)
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	for _, sm := range parsed.Samples {
		if sm.Labels["shard"] != "shard-a" {
			t.Errorf("series %s%v lacks the shard label", sm.Name, sm.Labels)
		}
	}

	// The shard identity also rides the stats response.
	st, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Shard != "shard-a" {
		t.Errorf("stats shard = %q, want shard-a", st.Shard)
	}
}

// TestStatsSamples: the ?samples=1 view exposes the raw reservoirs; the plain
// view omits them (they are gateway plumbing, not human-facing).
func TestStatsSamples(t *testing.T) {
	s := mustStartStepped(t, steppedConfig(t, ""))
	c := s.client(t)
	if _, err := c.Admit(testCoflow(t, "s", 1)); err != nil {
		t.Fatalf("admit: %v", err)
	}
	s.tickUntilDone(t)
	st, err := c.StatsSamples()
	if err != nil {
		t.Fatalf("stats samples: %v", err)
	}
	if st.Completed != 1 || len(st.Slowdowns) != 1 {
		t.Fatalf("samples view: completed %d, %d slowdown samples, want 1 and 1", st.Completed, len(st.Slowdowns))
	}
	plain, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(plain.Slowdowns) != 0 || len(plain.SolveLatencies) != 0 {
		t.Errorf("plain stats leaked raw samples: %d/%d", len(plain.Slowdowns), len(plain.SolveLatencies))
	}
}
