package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// testServer starts a daemon on a 16-server fat-tree with an accelerated
// clock and returns a client against it. Cleanup stops everything.
func testServer(t *testing.T, policy online.Policy, timeScale float64) (*Server, *Client) {
	t.Helper()
	s, err := New(Config{
		Network:     graph.FatTree(4, 1),
		Policy:      policy,
		EpochLength: 2,
		TimeScale:   timeScale,
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
	return s, NewClient(ts.URL)
}

// testCoflow builds a small valid coflow between two hosts.
func testCoflow(t *testing.T, name string, size float64) coflow.Coflow {
	t.Helper()
	hosts := graph.FatTree(4, 1).Hosts()
	return coflow.Coflow{
		Name:   name,
		Weight: 1,
		Flows: []coflow.Flow{
			{Source: hosts[0], Dest: hosts[5], Size: size},
			{Source: hosts[2], Dest: hosts[9], Size: size},
		},
	}
}

func TestAdmitAndStatus(t *testing.T) {
	_, c := testServer(t, online.SEBFOnline{}, 100)

	resp, err := c.Admit(testCoflow(t, "job-0", 3))
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if resp.ID != 0 || resp.Name != "job-0" {
		t.Fatalf("admit response %+v", resp)
	}
	st, err := c.Coflow(resp.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.NumFlows != 2 || st.TotalBytes != 6 || st.Weight != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.Arrival != resp.Arrival {
		t.Errorf("arrival mismatch: status %v, admit %v", st.Arrival, resp.Arrival)
	}

	// Unknown and malformed ids.
	if _, err := c.Coflow(99); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id error = %v, want 404", err)
	}
	httpResp, err := http.Get(c.BaseURL + "/v1/coflows/abc")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id status = %d, want 400", httpResp.StatusCode)
	}

	// Invalid coflows are rejected with 400.
	for name, bad := range map[string]coflow.Coflow{
		"no flows":  {Weight: 1},
		"zero size": {Weight: 1, Flows: []coflow.Flow{{Source: 0, Dest: 1, Size: 0}}},
		"self loop": {Weight: 1, Flows: []coflow.Flow{{Source: 4, Dest: 4, Size: 1}}},
	} {
		if _, err := c.Admit(bad); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: error = %v, want 400", name, err)
		}
	}
	// Unknown fields are rejected too (catches schema typos in clients).
	r, err := http.Post(c.BaseURL+"/v1/coflows", "application/json",
		strings.NewReader(`{"weight":1,"flowz":[]}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", r.StatusCode)
	}
}

func TestHealthNetworkStatsMetrics(t *testing.T) {
	_, c := testServer(t, online.SEBFOnline{}, 100)

	h, err := c.Health()
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if h.Policy != "SEBFOnline" {
		t.Errorf("health policy %q", h.Policy)
	}

	n, err := c.Network()
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	if len(n.Hosts) != 16 {
		t.Errorf("fat-tree k=4 hosts = %d, want 16", len(n.Hosts))
	}

	if _, err := c.Admit(testCoflow(t, "m", 2)); err != nil {
		t.Fatalf("admit: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != 1 || st.Policy != "SEBFOnline" || st.EpochLength != 2 {
		t.Errorf("stats %+v", st)
	}

	sch, err := c.Schedule()
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if sch.Policy != "SEBFOnline" {
		t.Errorf("schedule policy %q", sch.Policy)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 16<<10)
	k, _ := resp.Body.Read(buf)
	body := string(buf[:k])
	for _, want := range []string{
		"coflowd_up 1",
		"coflowd_coflows_admitted_total 1",
		"coflowd_http_requests_total",
		"coflowd_decisions_total",
		"coflowd_tick_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestDecisionsHappen checks an epoch tick runs the policy on the residual
// view and applies its decision.
func TestDecisionsHappen(t *testing.T) {
	s := mustStartStepped(t, steppedConfig(t, ""))
	c := s.client(t)
	if _, err := c.Admit(testCoflow(t, "d", 50)); err != nil {
		t.Fatalf("admit: %v", err)
	}
	s.tickAt(t, 2)
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Decisions != 1 {
		t.Fatalf("decisions = %d after one busy tick, want 1: %+v", st.Decisions, st)
	}
}

// TestDrain admits work, drains, and checks the final stats and that late
// admissions are rejected with 503.
func TestDrain(t *testing.T) {
	s, c := testServer(t, online.SEBFOnline{}, 100)
	for i := 0; i < 3; i++ {
		if _, err := c.Admit(testCoflow(t, "drain", 4)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	st, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Completed != 3 || st.Active != 0 {
		t.Fatalf("post-drain stats %+v", st)
	}
	if st.WeightedCCT <= 0 {
		t.Errorf("post-drain weighted CCT %v", st.WeightedCCT)
	}
	if _, err := c.Admit(testCoflow(t, "late", 1)); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("late admission error = %v, want 503", err)
	}
	// Queries still work after drain.
	if cst, err := c.Coflow(0); err != nil || !cst.Done || cst.Response <= 0 {
		t.Errorf("post-drain status = %+v, %v", cst, err)
	}
}

// TestConcurrentAdmitsAndQueries hammers the API from many goroutines; run
// under -race this validates the channel-serialized ownership of the engine.
func TestConcurrentAdmitsAndQueries(t *testing.T) {
	_, c := testServer(t, online.SEBFOnline{}, 200)
	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Admit(testCoflow(t, "c", 1+float64(w))); err != nil {
					errs <- err
				}
				switch i % 3 {
				case 0:
					if _, err := c.Stats(); err != nil {
						errs <- err
					}
				case 1:
					if _, err := c.Schedule(); err != nil {
						errs <- err
					}
				case 2:
					if _, err := c.Health(); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent request: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != workers*perWorker {
		t.Fatalf("admitted %d, want %d", st.Admitted, workers*perWorker)
	}
}

// gatedPolicy wraps a policy so that the first Decide after arm blocks:
// entered receives once the call has begun, and the call returns once the
// test sends on release. Async is what the test sets, so the same gate serves
// a synchronous policy and an AsyncPolicy.
type gatedPolicy struct {
	online.Policy
	async            bool
	armed            atomic.Bool
	entered, release chan struct{}
}

func newGatedPolicy(p online.Policy, async bool) *gatedPolicy {
	return &gatedPolicy{Policy: p, async: async, entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *gatedPolicy) arm()        { p.armed.Store(true) }
func (p *gatedPolicy) Async() bool { return p.async }

func (p *gatedPolicy) Decide(snap *online.Snapshot) ([]coflow.FlowRef, error) {
	if p.armed.CompareAndSwap(true, false) {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.Policy.Decide(snap)
}

// decisions reads the engine's applied-order count.
func (s *stepped) decisions(t *testing.T) int {
	t.Helper()
	return s.stats(t).Decisions
}

// TestLPEpochPolicyServes drives the expensive asynchronous policy on a
// stepped clock with its second Decide held open: admissions answer 201
// while it blocks, the order it returns is held rather than applied on
// return, the next tick applies it, and the drain completes every coflow.
func TestLPEpochPolicyServes(t *testing.T) {
	p := newGatedPolicy(online.LPEpoch{}, true)
	cfg := steppedConfig(t, "")
	cfg.Policy = p
	s := mustStartStepped(t, cfg)
	s.admitAt(t, 0, testCoflow(t, "lp-0", 20))
	s.tickAt(t, 0)
	if got := s.decisions(t); got != 1 {
		t.Fatalf("cold start applied %d orders, want 1", got)
	}

	p.arm()
	s.fire(2) // applies the order held from t=0, then decides behind the gate
	<-p.entered
	s.admitAt(t, 2.5, testCoflow(t, "lp-1", 2))
	s.admitAt(t, 3, testCoflow(t, "lp-2", 2))
	before := s.decisions(t)
	p.release <- struct{}{}
	s.settled(t)
	if got := s.decisions(t); got != before {
		t.Fatalf("the order decided at t=2 was applied on return (%d decisions, want %d): an AsyncPolicy's order waits for the next tick", got, before)
	}
	s.tickAt(t, 4)
	if got := s.decisions(t); got != before+1 {
		t.Fatalf("the tick after the decide returned applied %d orders, want 1", got-before)
	}

	st, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Completed != 3 {
		t.Fatalf("completed %d of 3: %+v", st.Completed, st)
	}
}

// TestLateDecideAfterDrainDropped: a decide still in flight when Drain begins
// returns to a daemon that has decided the rest of the run itself. Its order
// must be dropped, and so must an order Drain left held for an AsyncPolicy: no
// decision is counted and no order record logged after Drain returned, not on
// the late return and not at the next tick.
func TestLateDecideAfterDrainDropped(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			p := newGatedPolicy(online.SEBFOnline{}, async)
			cfg := steppedConfig(t, t.TempDir())
			cfg.Policy = p
			s := mustStartStepped(t, cfg)
			s.admitAt(t, 0, testCoflow(t, "late", 4))
			p.arm()
			s.fire(0)
			<-p.entered

			st, err := s.Drain()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			logSeq := func() (seq uint64) {
				if err := s.do(context.Background(), func() { seq = s.wal.LastSeq() }); err != nil {
					t.Fatalf("reading the log position: %v", err)
				}
				return seq
			}
			drained := logSeq()
			p.release <- struct{}{}
			s.settled(t)
			s.tickAt(t, st.Now+cfg.EpochLength)
			if got := s.decisions(t); got != st.Decisions {
				t.Errorf("%d decisions after the late decide and a tick, %d when Drain returned", got, st.Decisions)
			}
			if got := logSeq(); got != drained {
				t.Errorf("the log grew from seq %d to %d after Drain returned", drained, got)
			}
		})
	}
}
