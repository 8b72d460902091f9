package server

import (
	"context"
	"encoding/json"
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
// LPEpoch included. A mismatch means the daemon schedules differently from
// Run; the fixtures are Run's and are regenerated only there.
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
// ticking; otherwise ticks run until every coflow has finished.
func replayScenario(t *testing.T, inst *coflow.Instance, policy online.Policy, drain bool) regress.PolicyGolden {
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
				cf.Flows[j] = coflow.Flow{Source: f.Source, Dest: f.Dest, Size: f.Size, Release: f.Release - arrivals[next]}
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
	return s.pin(t)
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
