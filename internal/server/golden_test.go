package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/online"
	"coflowsched/internal/regress"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

// TestGoldenScenarios replays every registered scenario through a stepped
// daemon under each pinned policy and compares the outcome with the fixture
// internal/regress holds online.Run to. The daemon and Run drive one engine
// under one staleness rule on one epoch grid, so they must agree pin for pin,
// LPEpoch included, and settle no fallback epoch. A mismatch means the daemon
// schedules differently from Run; the fixtures are Run's and are regenerated
// only there.
func TestGoldenScenarios(t *testing.T) {
	for _, sc := range workload.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			inst, want := goldenScenario(t, sc)
			for _, p := range regress.Policies() {
				got := replayScenario(t, inst, p, false)
				if w := want.Policies[p.Name()]; !reflect.DeepEqual(got, w) {
					t.Errorf("%s: daemon drifted from online.Run's pins:\ngot  %+v\nwant %+v", p.Name(), got, w)
				}
			}
		})
	}
}

// TestDrainFollowsStalenessRule: Drain decides through the engine's staleness
// rule too, so a daemon that stops ticking once the last coflow is admitted
// and drains the rest still reproduces Run's LPEpoch pins. Two scenarios keep
// the LP replays cheap under -race; the other five hold as well.
func TestDrainFollowsStalenessRule(t *testing.T) {
	p := online.LPEpoch{}
	for _, name := range []string{"uniform", "incast"} {
		t.Run(name, func(t *testing.T) {
			sc, ok := workload.LookupScenario(name)
			if !ok {
				t.Fatalf("scenario %s not registered", name)
			}
			inst, want := goldenScenario(t, sc)
			if got, w := replayScenario(t, inst, p, true), want.Policies[p.Name()]; !reflect.DeepEqual(got, w) {
				t.Errorf("drained daemon drifted from online.Run's pins:\ngot  %+v\nwant %+v", got, w)
			}
		})
	}
}

// goldenScenario builds a scenario's instance and reads its regress fixture.
func goldenScenario(t *testing.T, sc workload.Scenario) (*coflow.Instance, regress.ScenarioGolden) {
	t.Helper()
	inst, _, err := sc.Build()
	if err != nil {
		t.Fatalf("building %s: %v", sc.Name, err)
	}
	b, err := os.ReadFile(filepath.Join("..", "regress", "testdata", sc.Name+".golden.json"))
	if err != nil {
		t.Fatalf("reading %s's fixture: %v", sc.Name, err)
	}
	var g regress.ScenarioGolden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("decoding %s's fixture: %v", sc.Name, err)
	}
	return inst, g
}

// replayScenario streams a scenario through a stepped daemon on online.Run's
// epoch grid: a tick at the first arrival and every regress.EpochLength after
// it, and every coflow admitted over the API at its arrival, while the engine
// still stands at the boundary before it. With drain set, the first boundary
// after the last admission (past the first tick) calls Drain instead of
// ticking; otherwise ticks run until every coflow has finished. A pinned run
// must solve its LPs, so a fallback epoch fails the test.
func replayScenario(t *testing.T, inst *coflow.Instance, policy online.Policy, drain bool) regress.PolicyGolden {
	t.Helper()
	s := replay(t, inst, policy, drain)
	if n := s.stats(t).Fallbacks; n != 0 {
		t.Errorf("%s: the daemon settled %d fallback epochs", policy.Name(), n)
	}
	return s.pin(t)
}

// replay is replayScenario's stream, returning the finished daemon.
func replay(t *testing.T, inst *coflow.Instance, policy online.Policy, drain bool) *stepped {
	t.Helper()
	s := mustStartStepped(t, Config{
		Network:     inst.Network,
		Policy:      policy,
		EpochLength: regress.EpochLength,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	arrivals := workload.Arrivals(inst)
	next := 0
	for at := arrivals[0]; ; at += regress.EpochLength {
		for ; next < len(inst.Coflows) && arrivals[next] <= at+1e-15; next++ {
			src := inst.Coflows[next]
			cf := coflow.Coflow{Name: src.Name, Weight: src.Weight, Flows: make([]coflow.Flow, len(src.Flows))}
			for j, f := range src.Flows {
				// The wire takes releases as offsets from the admission.
				cf.Flows[j] = coflow.Flow{Source: f.Source, Dest: f.Dest, Size: f.Size, Release: f.Release - arrivals[next], Path: f.Path}
			}
			s.admitAt(t, arrivals[next], cf)
		}
		if drain && next == len(inst.Coflows) && at > arrivals[0] {
			if _, err := s.Drain(); err != nil {
				t.Fatalf("%s: drain: %v", policy.Name(), err)
			}
			break
		}
		s.tickAt(t, at)
		st := s.stats(t)
		if next == len(inst.Coflows) && st.Completed == st.Admitted {
			break
		}
		if st.Epochs > 10000 {
			t.Fatalf("%s: %d of %d coflows unfinished after %d epochs", policy.Name(), st.Admitted-st.Completed, len(inst.Coflows), st.Epochs)
		}
	}
	return s
}

// TestSolverFallbacksCounted replays the instance of online's
// TestLPEpochSurvivesSolverFailure, on whose LP the simplex fails under the
// synchronous LPEpoch, through a stepped daemon: the fallbacks it settles
// must show, as coflowd_policy_fallback_total{reason="solver"} > 0 and as
// exactly that many /v1/epochs records marked fallback. A scenario whose LPs
// all solve reads 0 on both.
func TestSolverFallbacksCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second LP solves")
	}
	f, err := os.Open("../online/testdata/lp-singular-residual.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	failing, err := coflow.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := workload.LookupScenario("uniform")
	if !ok {
		t.Fatal("scenario uniform not registered")
	}
	clean, _ := goldenScenario(t, sc)
	for _, tc := range []struct {
		name    string
		inst    *coflow.Instance
		failing bool
	}{{"solver-failure", failing, true}, {"uniform", clean, false}} {
		s := replay(t, tc.inst, online.LPEpoch{Sync: true}, false)
		rec := httptest.NewRecorder()
		s.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		m, err := telemetry.ParseMetrics(rec.Body.String())
		if err != nil {
			t.Fatalf("%s: parse /metrics: %v", tc.name, err)
		}
		counter, ok := m.Get("coflowd_policy_fallback_total", "reason", "solver")
		if !ok {
			t.Fatalf("%s: /metrics has no coflowd_policy_fallback_total{reason=\"solver\"}", tc.name)
		}
		rec = httptest.NewRecorder()
		s.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/epochs", nil))
		var epochs EpochsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &epochs); err != nil {
			t.Fatalf("%s: decode /v1/epochs: %v", tc.name, err)
		}
		if len(epochs.Records) == epochRingCap {
			t.Fatalf("%s: %d epochs filled the ring; the records no longer cover the stream", tc.name, len(epochs.Records))
		}
		records := 0
		for _, r := range epochs.Records {
			if r.Fallback {
				records++
			}
		}
		t.Logf("%s: %d epochs, fallback counter %v, %d fallback records", tc.name, len(epochs.Records), counter.Value, records)
		if tc.failing && counter.Value == 0 {
			t.Errorf("%s: the stream's solver failures left the fallback counter at 0", tc.name)
		}
		if !tc.failing && counter.Value != 0 {
			t.Errorf("%s: a stream whose LPs all solve counted %v fallbacks", tc.name, counter.Value)
		}
		if counter.Value != float64(records) {
			t.Errorf("%s: fallback counter %v, but %d records are marked fallback", tc.name, counter.Value, records)
		}
	}
}

// pin scores a finished daemon the way online.Run scores its transcript:
// objectives summed in coflow order, completions and slowdowns by coflow.
func (s *stepped) pin(t *testing.T) regress.PolicyGolden {
	t.Helper()
	var wcct, wresp, makespan float64
	var completions, slowdowns []float64
	if err := s.do(context.Background(), func() {
		for id := 0; id < s.eng.NumCoflows(); id++ {
			st, _ := s.eng.CoflowStatus(id)
			if !st.Done {
				t.Errorf("coflow %d unfinished: %+v", id, st)
			}
			wcct += st.Weight * st.Completion
			wresp += st.Weight * st.Response
			makespan = max(makespan, st.Completion)
			completions = append(completions, st.Completion)
			slowdowns = append(slowdowns, st.Slowdown)
		}
	}); err != nil {
		t.Fatalf("collect outcomes: %v", err)
	}
	return regress.Pin(wcct, wresp, makespan, completions, slowdowns)
}
