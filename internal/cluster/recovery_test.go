package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/monitor"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// recoveryCoflow builds a two-flow coflow on the shards' fat-tree hosts.
func recoveryCoflow(name string, size float64) coflow.Coflow {
	hosts := graph.FatTree(4, 1).Hosts()
	return coflow.Coflow{
		Name: name, Weight: 1,
		Flows: []coflow.Flow{
			{Source: hosts[0], Dest: hosts[5], Size: size},
			{Source: hosts[3], Dest: hosts[9], Size: size},
		},
	}
}

// TestGatewayRestartRecovery: a durable gateway is crash-killed and restarted
// against live shards. The recovered translation and placement tables must
// keep every old gateway id routable (/v1/coflows/{id}), keep /v1/stats
// merging coherent, continue the id sequence for new work — and never
// re-admit a coflow the shards still hold.
func TestGatewayRestartRecovery(t *testing.T) {
	l, err := NewLocal(LocalConfig{
		Shards:    2,
		TimeScale: 1, // slow clock: coflows stay in flight across the restart
		Gateway:   fastGatewayConfig(t),
		WALDir:    t.TempDir(),
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new durable cluster: %v", err)
	}
	t.Cleanup(l.Close)
	c := l.Client()

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := c.Admit(recoveryCoflow(fmt.Sprintf("dur-%d", i), 40)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	before := make([]server.CoflowResponse, n)
	for gid := range before {
		st, err := c.Coflow(gid)
		if err != nil {
			t.Fatalf("coflow %d before restart: %v", gid, err)
		}
		before[gid] = st
	}

	if err := l.RestartGateway(); err != nil {
		t.Fatalf("restart gateway: %v", err)
	}

	cs := l.Gateway.CountersSnapshot()
	if cs.Coflows != n {
		t.Fatalf("restarted gateway knows %d coflows, want %d", cs.Coflows, n)
	}
	// Old ids must route to their original shards: same name, same shard-local
	// arrival — the binding was recovered, not re-created.
	for gid := 0; gid < n; gid++ {
		st, err := c.Coflow(gid)
		if err != nil {
			t.Fatalf("coflow %d after restart: %v", gid, err)
		}
		if st.Name != before[gid].Name {
			t.Errorf("coflow %d name = %q after restart, was %q", gid, st.Name, before[gid].Name)
		}
	}
	// Stats merging still resolves across the recovered placement table.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if st.Admitted != n {
		t.Errorf("merged admitted = %d after restart, want %d", st.Admitted, n)
	}

	// New admissions continue the id sequence, and the gateway echoes the new
	// id as the X-Coflow-Id retry-dedupe handle.
	body, _ := json.Marshal(recoveryCoflow("post-restart", 1))
	resp, err := http.Post(l.URL()+"/v1/coflows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("admit after restart: %v", err)
	}
	var ar server.AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatalf("decode admit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || ar.ID != n {
		t.Fatalf("admit after restart = %d id %d, want 201 id %d", resp.StatusCode, ar.ID, n)
	}
	if got := resp.Header.Get(server.IdemHeader); got != strconv.Itoa(n) {
		t.Errorf("%s echo = %q, want %q", server.IdemHeader, got, strconv.Itoa(n))
	}

	// Everything runs dry — the pre-restart coflows complete where they were
	// placed; nothing is ever re-admitted.
	if _, err := l.DrainAll(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for gid := 0; gid <= n; gid++ {
		waitFor(t, 10*time.Second, "completion", func() bool {
			st, err := c.Coflow(gid)
			return err == nil && st.Done
		})
	}
	if got := l.Gateway.CountersSnapshot().Readmits; got != 0 {
		t.Errorf("gateway re-admitted %d coflows across its restart, want 0", got)
	}
}

// fetchSLO reads the monitor's rule states by name.
func fetchSLO(t *testing.T, monitorURL string) map[string]monitor.RuleState {
	t.Helper()
	resp, err := http.Get(monitorURL + "/v1/slo")
	if err != nil {
		t.Fatalf("GET /v1/slo: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Rules []monitor.RuleStatus `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /v1/slo: %v", err)
	}
	states := map[string]monitor.RuleState{}
	for _, r := range body.Rules {
		states[r.Rule.Name] = r.State
	}
	return states
}

// TestClusterCrashRecovery is the recovery smoke: a durable shard is
// crash-killed with coflows in flight and restarted against the same WAL
// directory. The gateway (the shard reports itself durable) must hold the
// placement bindings instead of re-admitting, the monitor's shard-down rule
// must fire and then resolve, and the recovered coflows must reach completion
// on their original shard — recovery, not re-admission.
func TestClusterCrashRecovery(t *testing.T) {
	cfg := fastGatewayConfig(t)
	l, err := NewLocal(LocalConfig{
		Shards:    2,
		TimeScale: 1, // slow clock: the crash lands mid-flight
		Gateway:   cfg,
		WALDir:    t.TempDir(),
		Monitor:   &monitor.Config{Interval: 100 * time.Millisecond},
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new durable cluster: %v", err)
	}
	t.Cleanup(l.Close)
	c := l.Client()

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := c.Admit(recoveryCoflow(fmt.Sprintf("crash-%d", i), 40)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	victimStats, err := l.Shard(0).Stats()
	if err != nil {
		t.Fatalf("victim stats: %v", err)
	}
	if victimStats.Admitted == 0 {
		t.Fatal("victim shard received no coflows; test cannot exercise recovery")
	}

	l.CrashKill(0) // SIGKILL-shaped: no drain, no final fsync
	waitFor(t, 5*time.Second, "ejection", func() bool {
		return l.Gateway.CountersSnapshot().Healthy == 1
	})
	waitFor(t, 20*time.Second, "shard-down firing", func() bool {
		return fetchSLO(t, l.MonitorURL())["shard-down"] == monitor.StateFiring
	})
	// Durable shards: the ejection must NOT have detached the victim's
	// coflows for re-admission elsewhere.
	if got := l.Gateway.CountersSnapshot().Readmits; got != 0 {
		t.Fatalf("gateway re-admitted %d coflows from a durable shard, want 0", got)
	}

	if err := l.Restart(0); err != nil {
		t.Fatalf("restart shard: %v", err)
	}
	waitFor(t, 5*time.Second, "re-admission to rotation", func() bool {
		return l.Gateway.CountersSnapshot().Healthy == 2
	})
	// The restarted daemon recovered its own coflows from the WAL: same
	// admitted count as before the crash, nothing re-admitted through the
	// gateway.
	rs, err := l.Shard(0).Stats()
	if err != nil {
		t.Fatalf("recovered shard stats: %v", err)
	}
	if rs.Admitted != victimStats.Admitted {
		t.Fatalf("recovered shard admitted = %d, pre-crash %d", rs.Admitted, victimStats.Admitted)
	}
	waitFor(t, 30*time.Second, "shard-down resolution", func() bool {
		s := fetchSLO(t, l.MonitorURL())["shard-down"]
		return s == monitor.StateResolved || s == monitor.StateHealthy
	})

	// The recovered coflows run to completion on their original shard.
	if _, err := l.DrainAll(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for gid := 0; gid < n; gid++ {
		waitFor(t, 10*time.Second, "completion", func() bool {
			st, err := c.Coflow(gid)
			return err == nil && st.Done
		})
	}
	cs := l.Gateway.CountersSnapshot()
	if cs.Readmits != 0 {
		t.Errorf("readmits = %d after recovery, want 0 (completion, not re-admission)", cs.Readmits)
	}
	if cs.Completed != n {
		t.Errorf("gateway observed %d completions, want %d", cs.Completed, n)
	}
}

// TestExternalDurableBackendsRecoverInPlace is the coflowgate -backends
// deployment: a gateway built with New + AddBackend, told nothing about its
// shards, in front of two daemons that run with WALs at stable URLs. One
// shard is crash-killed with coflows in flight and restarted. The gateway
// must have learned from the shard that it is durable and keep its coflows
// bound to it, so every coflow completes exactly once, on the shard it was
// admitted to.
func TestExternalDurableBackendsRecoverInPlace(t *testing.T) {
	g, err := New(fastGatewayConfig(t))
	if err != nil {
		t.Fatalf("new gateway: %v", err)
	}
	t.Cleanup(g.Close)
	dir := t.TempDir()
	shards := make([]*localShard, 2)
	for i := range shards {
		name := fmt.Sprintf("shard%d", i)
		sh, err := newLocalShard(name, server.Config{
			Network:     graph.FatTree(4, 1),
			Policy:      online.SEBFOnline{},
			EpochLength: 2,
			TimeScale:   1, // slow clock: the crash lands mid-flight
			Shard:       name,
			WALDir:      filepath.Join(dir, name),
			Logger:      telemetry.LogfLogger(t.Logf),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.ts.Close(); sh.stop(false) })
		shards[i] = sh
		if err := g.AddBackend(name, sh.ts.URL); err != nil {
			t.Fatalf("add backend: %v", err)
		}
	}

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := g.Admit(recoveryCoflow(fmt.Sprintf("ext-%d", i), 40)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	owner := func(gid int) string {
		g.mu.Lock()
		defer g.mu.Unlock()
		if b := g.coflows[gid].backend; b != nil {
			return b.name
		}
		return ""
	}
	placed := make([]string, n)
	perShard := map[string]int{}
	for gid := range placed {
		placed[gid] = owner(gid)
		perShard[placed[gid]]++
	}
	victim := 0
	if placed[0] == "shard1" {
		victim = 1
	}

	shards[victim].stop(true) // SIGKILL-shaped: no drain, no final fsync
	waitFor(t, 5*time.Second, "ejection", func() bool {
		return g.CountersSnapshot().Healthy == 1
	})
	if got := g.CountersSnapshot().Readmits; got != 0 {
		t.Fatalf("gateway re-admitted %d coflows from a durable shard, want 0", got)
	}
	if err := shards[victim].start(); err != nil {
		t.Fatalf("restart shard: %v", err)
	}
	waitFor(t, 5*time.Second, "re-admission to rotation", func() bool {
		return g.CountersSnapshot().Healthy == 2
	})

	for _, sh := range shards {
		sh.mu.Lock()
		srv := sh.srv
		sh.mu.Unlock()
		if _, err := srv.Drain(); err != nil {
			t.Fatalf("drain %s: %v", sh.name, err)
		}
		st, err := srv.Stats()
		if err != nil {
			t.Fatalf("%s stats: %v", sh.name, err)
		}
		if st.Admitted != perShard[sh.name] || st.Completed != perShard[sh.name] {
			t.Errorf("%s admitted/completed %d/%d, want %d/%d (each of its coflows exactly once)",
				sh.name, st.Admitted, st.Completed, perShard[sh.name], perShard[sh.name])
		}
	}
	for gid := 0; gid < n; gid++ {
		waitFor(t, 10*time.Second, "completion", func() bool {
			st, _, err := g.Status(gid)
			return err == nil && st.Done
		})
		if got := owner(gid); got != placed[gid] {
			t.Errorf("coflow %d completed on %s, was admitted to %s", gid, got, placed[gid])
		}
	}
	cs := g.CountersSnapshot()
	if cs.Readmits != 0 || cs.Completed != n {
		t.Errorf("readmits/completed = %d/%d, want 0/%d", cs.Readmits, cs.Completed, n)
	}
}
