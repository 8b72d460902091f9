package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

// fastGatewayConfig is tuned for tests: quick probes (an ejection takes two
// failed 20 ms rounds, the re-probe backoff tops out at 600 ms). Admissions
// batch at the production constants.
func fastGatewayConfig(t *testing.T) Config {
	return Config{
		HealthInterval: 20 * time.Millisecond,
		Logger:         telemetry.LogfLogger(t.Logf),
	}
}

func newLocalCluster(t *testing.T, shards int, timeScale float64) *Local {
	t.Helper()
	l, err := NewLocal(LocalConfig{
		Shards:    shards,
		Policy:    online.SEBFOnline{},
		TimeScale: timeScale,
		Gateway:   fastGatewayConfig(t),
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

// replayUniform admits the uniform scenario through c from four goroutines
// and returns its coflow count. The scenario runs on FatTree(4, 1), the
// shards' own fabric, so its endpoints go out as they are; every flow is
// released on admission. With wait it then polls until every admitted coflow
// is done. The error is the first failed admission, or the poll's timeout.
func replayUniform(c *server.Client, wait bool) (int, error) {
	sc, ok := workload.LookupScenario("uniform")
	if !ok {
		return 0, errors.New("uniform scenario not registered")
	}
	inst, _, err := sc.Build()
	if err != nil {
		return 0, err
	}
	jobs := make(chan coflow.Coflow)
	var (
		mu       sync.Mutex
		ids      []int
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cf := range jobs {
				resp, err := c.Admit(cf)
				mu.Lock()
				if err == nil {
					ids = append(ids, resp.ID)
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, cf := range inst.Coflows {
		flows := make([]coflow.Flow, len(cf.Flows))
		for j, f := range cf.Flows {
			flows[j] = coflow.Flow{Source: f.Source, Dest: f.Dest, Size: f.Size}
		}
		jobs <- coflow.Coflow{Name: cf.Name, Weight: cf.Weight, Flows: flows}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil || !wait {
		return len(inst.Coflows), firstErr
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			st, err := c.Coflow(id)
			if err == nil && st.Done {
				break
			}
			if time.Now().After(deadline) {
				return len(inst.Coflows), fmt.Errorf("coflow %d not done after 60s (last poll error: %v)", id, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return len(inst.Coflows), nil
}

// TestClusterScenarioReplay is the CI cluster smoke: a 3-shard in-process
// cluster replays the uniform scenario through the gateway; every coflow
// must complete and the merged statistics must be coherent.
func TestClusterScenarioReplay(t *testing.T) {
	l := newLocalCluster(t, 3, 200)
	c := l.Client()

	want, err := replayUniform(c, true)
	if err != nil {
		t.Fatalf("replay through gateway: %v", err)
	}

	// Merged stats must agree with the gateway's own accounting and be sane.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("gateway stats: %v", err)
	}
	if st.Admitted != want || st.Completed != want {
		t.Errorf("merged admitted/completed = %d/%d, want %d/%d", st.Admitted, st.Completed, want, want)
	}
	if st.Active != 0 {
		t.Errorf("merged active = %d, want 0", st.Active)
	}
	if st.Policy != "SEBFOnline" || st.EpochLength != 2 {
		t.Errorf("merged policy/epoch_length = %q/%v, want the shards' SEBFOnline/2", st.Policy, st.EpochLength)
	}
	if st.WeightedResponse <= 0 || st.WeightedCCT <= 0 {
		t.Errorf("merged objectives not positive: cct=%v response=%v", st.WeightedCCT, st.WeightedResponse)
	}
	if st.SlowdownP50 < 1-1e-9 {
		t.Errorf("merged slowdown p50 = %v, want >= 1 (response cannot beat the isolated bottleneck)", st.SlowdownP50)
	}
	if st.SlowdownP95 < st.SlowdownP50 {
		t.Errorf("slowdown p95 %v < p50 %v", st.SlowdownP95, st.SlowdownP50)
	}

	// The coflows really are spread: with 10 coflows hash-placed on 3 shards,
	// at least two shards must have seen work.
	used := 0
	for i := 0; i < l.NumShards(); i++ {
		ss, err := l.Shard(i).Stats()
		if err != nil {
			t.Fatalf("shard %d stats: %v", i, err)
		}
		if ss.Admitted > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d shard(s) received coflows; placement did not spread", used)
	}

	// Per-coflow status is served under gateway ids.
	cf, err := c.Coflow(0)
	if err != nil {
		t.Fatalf("coflow 0: %v", err)
	}
	if cf.ID != 0 || !cf.Done || cf.Response <= 0 {
		t.Errorf("coflow 0 status %+v, want done with CCT", cf)
	}
	if _, err := c.Coflow(want + 7); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown gateway id error = %v, want 404", err)
	}
}

// TestClusterFailover: a backend dies mid-run; its in-flight coflows are
// re-admitted on the survivors, the backend is ejected, and after a restart
// it rejoins the rotation and receives new work. Every coflow completes.
func TestClusterFailover(t *testing.T) {
	l := newLocalCluster(t, 3, 1) // slow clock: coflows stay in flight
	c := l.Client()

	hosts := graph.FatTree(4, 1).Hosts()
	mkCoflow := func(name string, size float64) coflow.Coflow {
		return coflow.Coflow{
			Name: name, Weight: 1,
			Flows: []coflow.Flow{
				{Source: hosts[0], Dest: hosts[5], Size: size},
				{Source: hosts[3], Dest: hosts[9], Size: size},
			},
		}
	}
	const n = 9
	for i := 0; i < n; i++ {
		if _, err := c.Admit(mkCoflow("job", 50)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	// Hash placement puts gateway ids 0-2 and 6-7 on shard1.
	victimStats, err := l.Shard(1).Stats()
	if err != nil {
		t.Fatalf("victim stats: %v", err)
	}
	if victimStats.Admitted == 0 {
		t.Fatal("victim shard received no coflows; test cannot exercise failover")
	}

	l.Kill(1)
	// The health loop must eject the victim and re-admit its coflows on the
	// survivors: the gateway-level coflow count stays n, and the surviving
	// shards' admitted totals grow to n.
	waitFor(t, 5*time.Second, "ejection and re-admission", func() bool {
		cs := l.Gateway.CountersSnapshot()
		if cs.Healthy != 2 || cs.Readmits < victimStats.Admitted {
			return false
		}
		total := 0
		for i := 0; i < l.NumShards(); i++ {
			if srv := l.Shard(i); srv != nil {
				st, err := srv.Stats()
				if err != nil {
					return false
				}
				total += st.Admitted
			}
		}
		return total >= n
	})

	// While down, the ejected shard is reported unhealthy.
	var down *BackendStatus
	for _, bs := range l.Gateway.Backends() {
		if bs.Name == "shard1" {
			down = &bs
		}
	}
	if down == nil || down.Healthy {
		t.Fatalf("shard1 not reported ejected: %+v", down)
	}
	if down.Ejections == 0 {
		t.Errorf("shard1 ejection not counted: %+v", down)
	}

	// Restart: the exponential-backoff probe must re-admit it.
	if err := l.Restart(1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, 5*time.Second, "re-admission to rotation", func() bool {
		return l.Gateway.CountersSnapshot().Healthy == 3
	})

	// New work flows to the revived shard: gateway id 9 hashes to shard1.
	if _, err := c.Admit(mkCoflow("after-revive", 1)); err != nil {
		t.Fatalf("admit after revive: %v", err)
	}
	revived := l.Shard(1)
	if revived == nil {
		t.Fatal("revived shard has no server")
	}
	rs, err := revived.Stats()
	if err != nil {
		t.Fatalf("revived stats: %v", err)
	}
	if rs.Admitted == 0 {
		t.Errorf("revived shard received no new work")
	}

	// Run everything dry: every gateway coflow must report done, including
	// the re-admitted ones.
	if _, err := l.DrainAll(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for gid := 0; gid <= n; gid++ {
		waitFor(t, 10*time.Second, "completion", func() bool {
			st, err := c.Coflow(gid)
			return err == nil && st.Done
		})
	}
	cs := l.Gateway.CountersSnapshot()
	if cs.Completed != n+1 {
		t.Errorf("gateway observed %d completions, want %d", cs.Completed, n+1)
	}
}

// TestClusterBatching: admissions flush by interval and by count; both paths
// land coflows on shards. Each admission's batch-flush span records the size
// of the batch it left in and how long the queue held it.
func TestClusterBatching(t *testing.T) {
	l := newLocalCluster(t, 2, 100)
	g := l.Gateway
	hosts := graph.FatTree(4, 1).Hosts()
	cf := coflow.Coflow{Name: "b", Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 1}}}
	flush := func(trace string) (size string, hold float64) {
		for _, sp := range g.Tracer().Dump(trace, 0).Spans {
			if sp.Name == "batch-flush" {
				return sp.Attrs["batch_size"], sp.Duration
			}
		}
		return "", 0
	}
	interval := batchInterval.Seconds()

	// A single admission cannot fill the batch; only the interval flushes it.
	resp, err := g.Admit(cf)
	if err != nil {
		t.Fatalf("interval-flushed admit: %v", err)
	}
	if size, hold := flush(resp.Trace); size != "1" || hold < interval {
		t.Errorf("lone admission flushed in a batch of %q after %gs, want 1 after >= %gs", size, hold, interval)
	}

	// A burst of batchSize concurrent admissions fills the batch and flushes
	// by count, before the interval runs out. A burst the host spreads past
	// batchInterval flushes by interval instead, so a few bursts are allowed
	// before that fails.
	full := fmt.Sprint(batchSize)
	admitted := 1
	byCount := false
	for attempt := 0; attempt < 5 && !byCount; attempt++ {
		start := make(chan struct{})
		traces := make([]string, batchSize)
		errs := make([]error, batchSize)
		var wg sync.WaitGroup
		for i := range traces {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				var resp server.AdmitResponse
				resp, errs[i] = g.Admit(cf)
				traces[i] = resp.Trace
			}(i)
		}
		close(start)
		wg.Wait()
		admitted += batchSize
		byCount = true
		for i, trace := range traces {
			if errs[i] != nil {
				t.Fatalf("burst admit: %v", errs[i])
			}
			size, hold := flush(trace)
			byCount = byCount && size == full && hold < interval
		}
	}
	if !byCount {
		t.Errorf("no burst of %d admissions flushed by count", batchSize)
	}

	total := 0
	for i := 0; i < l.NumShards(); i++ {
		st, err := l.Shard(i).Stats()
		if err != nil {
			t.Fatalf("shard %d stats: %v", i, err)
		}
		total += st.Admitted
	}
	if got := g.CountersSnapshot().Coflows; got != admitted || total != admitted {
		t.Errorf("gateway tracked %d coflows and the shards admitted %d, want %d", got, total, admitted)
	}
}

// TestGatewayNoBackends: with every backend gone, admissions fail with 503
// and healthz reports degraded.
func TestGatewayNoBackends(t *testing.T) {
	l := newLocalCluster(t, 1, 100)
	c := l.Client()
	l.Kill(0)
	waitFor(t, 5*time.Second, "ejection", func() bool {
		return l.Gateway.CountersSnapshot().Healthy == 0
	})
	hosts := graph.FatTree(4, 1).Hosts()
	_, err := c.Admit(coflow.Coflow{Name: "x", Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 1}}})
	if err == nil {
		t.Fatal("admit with no backends succeeded")
	}
	// Every no-backend answer is the same 503.
	wantUnavailable := func(what string, err error) {
		t.Helper()
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s with no backends = %v, want 503", what, err)
		}
	}
	wantUnavailable("admit", err)
	_, err = c.Network()
	wantUnavailable("network", err)
	_, err = c.Health()
	wantUnavailable("healthz", err)
}

// TestGatewayValidationPassThrough: a coflow the shard rejects as malformed
// comes back 400 and is not retried across shards.
func TestGatewayValidationPassThrough(t *testing.T) {
	l := newLocalCluster(t, 2, 100)
	c := l.Client()
	// Endpoints outside every shard's network.
	_, err := c.Admit(coflow.Coflow{Name: "bad", Weight: 1, Flows: []coflow.Flow{{Source: 9000, Dest: 9001, Size: 1}}})
	if err == nil {
		t.Fatal("invalid coflow admitted")
	}
	if !strings.Contains(err.Error(), "400") {
		t.Errorf("validation error = %v, want a 400", err)
	}
	if got := l.Gateway.CountersSnapshot().Healthy; got != 2 {
		t.Errorf("validation failure cost a backend: healthy=%d", got)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompletionSweep: the gateway converges on completions by itself — no
// client ever polls /v1/coflows/{id}, yet the completed counter rises, the
// outstanding counts drop back to zero, and the retained failover specs are
// released.
func TestCompletionSweep(t *testing.T) {
	l := newLocalCluster(t, 2, 500)
	c := l.Client()
	hosts := graph.FatTree(4, 1).Hosts()
	const n = 6
	for i := 0; i < n; i++ {
		cf := coflow.Coflow{Name: "fire-and-forget", Weight: 1,
			Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[7], Size: 1}}}
		if _, err := c.Admit(cf); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "sweep-observed completions", func() bool {
		return l.Gateway.CountersSnapshot().Completed == n
	})
	for _, bs := range l.Gateway.Backends() {
		if bs.Outstanding != 0 {
			t.Errorf("backend %s still reports %d outstanding", bs.Name, bs.Outstanding)
		}
	}
}

// TestTransientStatusRule: one set of transient codes. The client retries
// exactly those; the gateway re-routes them and every 5xx, and takes any
// other 4xx as the coflow's own fault.
func TestTransientStatusRule(t *testing.T) {
	for _, tc := range []struct {
		code                int
		transient, terminal bool
	}{
		{400, false, true}, {404, false, true}, {408, true, false}, {409, false, true},
		{413, false, true}, {429, true, false}, {500, false, false}, {502, true, false},
		{503, true, false}, {504, true, false},
	} {
		t.Run(strconv.Itoa(tc.code), func(t *testing.T) {
			var hits atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				server.RespondError(w, tc.code, "status under test")
			}))
			defer ts.Close()
			_, err := server.NewClient(ts.URL, server.WithRetries(2, time.Millisecond)).Stats()
			var apiErr *server.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != tc.code {
				t.Fatalf("error = %v, want a %d APIError", err, tc.code)
			}
			want := int32(1)
			if tc.transient {
				want = 3
			}
			if got := hits.Load(); got != want {
				t.Errorf("client made %d attempts, want %d", got, want)
			}
			if got := server.TransientStatus(tc.code); got != tc.transient {
				t.Errorf("TransientStatus = %v, want %v", got, tc.transient)
			}
			if got := terminalStatus(tc.code); got != tc.terminal {
				t.Errorf("terminalStatus = %v, want %v", got, tc.terminal)
			}
		})
	}
}
