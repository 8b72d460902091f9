package server

import (
	"net/http/httptest"
	"testing"

	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

// TestClosedLoopReplay is the repo's first end-to-end load-testing scenario:
// a live daemon with an accelerated clock, and the load generator replaying
// a ≥100-coflow Poisson arrival process against it over real HTTP. Every
// request must succeed and every coflow must finish.
func TestClosedLoopReplay(t *testing.T) {
	s, err := New(Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		TimeScale:   1000, // keep the simulated network far ahead of the replay
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	const coflows = 120
	report, err := RunLoad(NewClient(ts.URL), LoadConfig{
		Coflows:      coflows,
		Width:        2,
		MeanSize:     3,
		Rate:         400, // wall-clock requests per second
		Concurrency:  8,
		Seed:         42,
		WaitComplete: true,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("load report: %s", report)

	if report.Requests != coflows {
		t.Errorf("sent %d requests, want %d", report.Requests, coflows)
	}
	if report.Failures != 0 {
		t.Errorf("%d failed requests (first: %s)", report.Failures, report.FirstError)
	}
	if report.Completed != coflows {
		t.Errorf("completed %d of %d coflows", report.Completed, coflows)
	}
	if report.AchievedRPS <= 0 || report.LatencyP95 <= 0 {
		t.Errorf("degenerate report: %+v", report)
	}

	// The daemon's own accounting must agree with the client's view.
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != coflows || st.Completed != coflows {
		t.Errorf("server saw admitted=%d completed=%d, want %d/%d", st.Admitted, st.Completed, coflows, coflows)
	}
	if st.WeightedCCT <= 0 || st.WeightedResponse <= 0 {
		t.Errorf("server objectives not positive: %+v", st)
	}
	if st.Decisions == 0 {
		t.Errorf("no policy decisions during a %d-coflow replay", coflows)
	}
}

// TestScenarioReplay drives the daemon with a prebuilt registry scenario on a
// compressed clock — the path behind `coflowload -scenario` — including the
// host remapping from the scenario's star topology onto the daemon's
// fat-tree.
func TestScenarioReplay(t *testing.T) {
	sc, ok := workload.LookupScenario("incast")
	if !ok {
		t.Fatalf("incast scenario not registered")
	}
	inst, arrivals, err := sc.Build()
	if err != nil {
		t.Fatalf("building scenario: %v", err)
	}

	s, err := New(Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		TimeScale:   2000, // keep the simulated network far ahead of the replay
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	report, err := RunLoad(NewClient(ts.URL), LoadConfig{
		Instance:     inst,
		Arrivals:     arrivals,
		SpeedUp:      50, // ~25 simulated units of arrivals in ~0.5s wall
		Concurrency:  4,
		WaitComplete: true,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("scenario replay report: %s", report)
	if report.Requests != len(inst.Coflows) {
		t.Errorf("sent %d requests, want %d", report.Requests, len(inst.Coflows))
	}
	if report.Failures != 0 {
		t.Errorf("%d failed requests (first: %s)", report.Failures, report.FirstError)
	}
	if report.Completed != len(inst.Coflows) {
		t.Errorf("completed %d of %d coflows", report.Completed, len(inst.Coflows))
	}
}
