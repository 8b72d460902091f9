package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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

// TestGatewayRestartRecovery: the gateway is replaced by a fresh one, with no
// state of its own, in front of the same durable shards. It must rebuild its
// routing table from the keys the shards hold: every acknowledged in-flight
// id resolves to the same coflow (same name, same shard-local arrival),
// /v1/stats merging stays coherent, nothing is re-admitted, and the next
// admission continues the id sequence instead of reusing an id.
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

	// Old ids route to their original shards: same name, same shard-local
	// arrival — the binding was learned from the shards, not re-created.
	for gid := 0; gid < n; gid++ {
		st, err := c.Coflow(gid)
		if err != nil {
			t.Fatalf("coflow %d after restart: %v", gid, err)
		}
		if st.Name != before[gid].Name || st.Arrival != before[gid].Arrival {
			t.Errorf("coflow %d = %q arriving %v after restart, was %q arriving %v",
				gid, st.Name, st.Arrival, before[gid].Name, before[gid].Arrival)
		}
	}
	if cs := l.Gateway.CountersSnapshot(); cs.Coflows != n {
		t.Fatalf("restarted gateway knows %d coflow ids, want %d", cs.Coflows, n)
	}
	// Stats merging still resolves across the rebuilt table.
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

// statelessShards starts n in-process coflowd shards without WALs on a slow
// clock, so admitted coflows stay in flight.
func statelessShards(t *testing.T, n int) []*localShard {
	t.Helper()
	shards := make([]*localShard, n)
	for i := range shards {
		name := fmt.Sprintf("shard%d", i)
		sh, err := newLocalShard(name, server.Config{
			Network:     graph.FatTree(4, 1),
			Policy:      online.SEBFOnline{},
			EpochLength: 2,
			TimeScale:   1,
			Shard:       name,
			Logger:      telemetry.LogfLogger(t.Logf),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.ts.Close(); sh.stop(false) })
		shards[i] = sh
	}
	return shards
}

// gatewayOver starts a gateway in front of shards, the way coflowgate
// -backends does.
func gatewayOver(t *testing.T, cfg Config, shards []*localShard) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("new gateway: %v", err)
	}
	t.Cleanup(g.Close)
	for _, sh := range shards {
		if err := g.AddBackend(sh.name, sh.ts.URL); err != nil {
			t.Fatalf("add backend: %v", err)
		}
	}
	return g
}

// admitN admits n two-flow coflows through g and returns their answers and
// the shard each was placed on, by gateway id.
func admitN(t *testing.T, g *Gateway, n int) ([]server.AdmitResponse, []string) {
	t.Helper()
	resps, owners := make([]server.AdmitResponse, n), make([]string, n)
	for i := range resps {
		var err error
		if resps[i], err = g.Admit(recoveryCoflow(fmt.Sprintf("job-%d", i), 40)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		g.mu.Lock()
		owners[i] = g.coflows[resps[i].ID].backend.name
		g.mu.Unlock()
	}
	return resps, owners
}

// shardIndex finds the shard named name.
func shardIndex(shards []*localShard, name string) int {
	for i, sh := range shards {
		if sh.name == name {
			return i
		}
	}
	return -1
}

// TestGatewayRestartOverStatelessShards: a fresh gateway in front of two
// shards without WALs rebinds every in-flight id from the keys they list, and
// when one shard then dies it re-admits that shard's coflows on the survivor
// from the specs the listing carried, each completing exactly once there.
func TestGatewayRestartOverStatelessShards(t *testing.T) {
	shards := statelessShards(t, 2)
	g1 := gatewayOver(t, fastGatewayConfig(t), shards)
	const n = 6
	before, placed := admitN(t, g1, n)
	g1.Close()

	g := gatewayOver(t, fastGatewayConfig(t), shards)
	perShard := map[string]int{}
	for gid := 0; gid < n; gid++ {
		st, found, err := g.Status(gid)
		if err != nil || !found || st.Name != before[gid].Name || st.Arrival != before[gid].Arrival {
			t.Fatalf("coflow %d after restart = %+v (found %v, err %v), want %q arriving %v",
				gid, st, found, err, before[gid].Name, before[gid].Arrival)
		}
		perShard[placed[gid]]++
	}

	victim := shardIndex(shards, placed[0])
	survivor := shards[1-victim]
	shards[victim].stop(false)
	waitFor(t, 5*time.Second, "ejection and re-admission", func() bool {
		return g.CountersSnapshot().Readmits == perShard[placed[0]]
	})
	survivor.mu.Lock()
	srv := survivor.srv
	survivor.mu.Unlock()
	if _, err := srv.Drain(); err != nil {
		t.Fatalf("drain %s: %v", survivor.name, err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatalf("%s stats: %v", survivor.name, err)
	}
	if st.Admitted != n || st.Completed != n {
		t.Errorf("%s admitted/completed %d/%d, want %d/%d (its own and the re-admitted, each once)",
			survivor.name, st.Admitted, st.Completed, n, n)
	}
	for gid := 0; gid < n; gid++ {
		waitFor(t, 10*time.Second, "completion", func() bool {
			st, _, err := g.Status(gid)
			return err == nil && st.Done && st.Name == before[gid].Name
		})
	}
}

// lockedBuffer is an io.Writer the gateway's logger and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGatewayLearnSkipsUnparsableKeys: a backend's key listing is input from
// another process. Keys that do not parse as a gateway id (not gw-<id>, a
// padded id, a negative one) bind nothing and do not move the next id; the
// valid key next to them binds as usual.
func TestGatewayLearnSkipsUnparsableKeys(t *testing.T) {
	const high = 4
	listing := server.KeysResponse{Durable: true, High: high}
	for i, key := range []string{"bogus", "gw-007", "gw--5", "gw-3"} {
		listing.Keys = append(listing.Keys, server.KeyEntry{Key: key,
			Admit: server.AdmitResponse{ID: i, Name: key}})
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/keys" {
			server.RespondError(w, http.StatusNotFound, "not served by this fake")
			return
		}
		if err := json.NewEncoder(w).Encode(listing); err != nil {
			t.Errorf("encode listing: %v", err)
		}
	}))
	defer ts.Close()

	var logs lockedBuffer
	cfg := fastGatewayConfig(t)
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("new gateway: %v", err)
	}
	defer g.Close()
	if err := g.AddBackend("fake", ts.URL); err != nil {
		t.Fatalf("add backend: %v", err)
	}
	g.learnAll()

	g.mu.Lock()
	bound := make([]int, 0, len(g.coflows))
	for gid := range g.coflows {
		bound = append(bound, gid)
	}
	next := g.next
	three, ok := g.coflows[3]
	g.mu.Unlock()
	if len(bound) != 1 || !ok || three.spec.Name != "gw-3" {
		t.Errorf("bound gateway ids %v, want only 3 (from gw-3)", bound)
	}
	if next != high+1 {
		t.Errorf("next id = %d, want high+1 = %d", next, high+1)
	}
	if n := strings.Count(logs.String(), "not a gateway key"); n != 3 {
		t.Errorf("%d warnings for unparsable keys, want 3:\n%s", n, logs.String())
	}
}

// TestGatewayLearnsLateShard: a fresh gateway boots while one shard (the
// late one, holding the largest id) is unreachable but alive. An id below
// the next that no reachable shard holds answers 410; the next id, which the
// late shard holds for an older coflow, goes to a new one. When the late
// shard answers again it is learned: the collision is logged and left
// unbound, its other coflows resolve, and the next id moves past its high.
func TestGatewayLearnsLateShard(t *testing.T) {
	shards := statelessShards(t, 2)
	g1 := gatewayOver(t, fastGatewayConfig(t), shards)
	const n = 14
	before, placed := admitN(t, g1, n)
	g1.Close()

	late := shardIndex(shards, placed[n-1])
	highOther, gone := -1, -1
	for gid, name := range placed {
		if name != placed[n-1] {
			highOther = gid
		}
	}
	for gid := highOther - 1; gid >= 0; gid-- {
		if placed[gid] == placed[n-1] {
			gone = gid
		}
	}
	if gone < 0 || highOther+2 >= n {
		t.Fatalf("placement %v leaves %s no id below %d, or none above %d", placed, placed[n-1], highOther, highOther+1)
	}
	sh := shards[late]
	sh.mu.Lock()
	hidden := sh.handler
	sh.handler = nil // alive, but its listener answers 503
	sh.mu.Unlock()

	var logs lockedBuffer
	cfg := fastGatewayConfig(t)
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	g := gatewayOver(t, cfg, shards)
	code := func(gid int) int {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/coflows/"+strconv.Itoa(gid), nil))
		return rec.Code
	}
	if got := code(gone); got != http.StatusGone {
		t.Errorf("id %d, held only by the unreachable shard: status %d, want 410", gone, got)
	}
	if got := code(highOther + 1); got != http.StatusNotFound {
		t.Errorf("id %d, never handed out by this gateway: status %d, want 404", highOther+1, got)
	}
	fresh, err := g.Admit(recoveryCoflow("after-restart", 1))
	if err != nil || fresh.ID != highOther+1 {
		t.Fatalf("first admission = id %d (%v), want %d", fresh.ID, err, highOther+1)
	}

	sh.mu.Lock()
	sh.handler = hidden
	sh.mu.Unlock()
	waitFor(t, 5*time.Second, "the late shard learned", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.backends[late].learned
	})
	if got := g.CountersSnapshot().Coflows; got != n {
		t.Errorf("next id after learning = %d, want %d (past the late shard's high)", got, n)
	}
	if key := server.GatewayKey(highOther + 1); !strings.Contains(logs.String(), "key="+key) {
		t.Errorf("collision on %s not logged:\n%s", key, logs.String())
	}
	for gid, want := range map[int]string{gone: before[gone].Name, highOther + 1: "after-restart"} {
		if st, _, err := g.Status(gid); err != nil || st.Name != want {
			t.Errorf("coflow %d = %q (%v), want %q", gid, st.Name, err, want)
		}
	}
	if next, err := g.Admit(recoveryCoflow("past-high", 1)); err != nil || next.ID != n {
		t.Errorf("admission after learning = id %d (%v), want %d", next.ID, err, n)
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
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new durable cluster: %v", err)
	}
	t.Cleanup(l.Close)
	_, monURL := watch(t, l, "")
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
		return fetchSLO(t, monURL)["shard-down"] == monitor.StateFiring
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
		s := fetchSLO(t, monURL)["shard-down"]
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
