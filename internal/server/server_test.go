package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
	if cst, err := c.Coflow(0); err != nil || !cst.Done || cst.CCT == nil || *cst.CCT <= 0 {
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

// TestLPEpochPolicyServes exercises the expensive pipelined policy end to
// end on a small stream: admissions stay responsive while LPs solve, and the
// drain completes every coflow.
func TestLPEpochPolicyServes(t *testing.T) {
	s, c := testServer(t, online.LPEpoch{}, 100)
	for i := 0; i < 3; i++ {
		if _, err := c.Admit(testCoflow(t, "lp", 2)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	st, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Completed != 3 {
		t.Fatalf("completed %d of 3: %+v", st.Completed, st)
	}
}
