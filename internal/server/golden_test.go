package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden.json from the daemon's current output")

// goldenEpoch is the epoch length of every golden replay; internal/regress
// pins online.Run on the same scenarios at the same length.
const goldenEpoch = 2

// engineGolden pins one policy's replay of one scenario through coflowd: the
// engine's own aggregates once every coflow has finished.
type engineGolden struct {
	WeightedCCT      float64 `json:"weighted_cct"`
	WeightedResponse float64 `json:"weighted_response"`
	Completed        int     `json:"completed"`
	Epochs           int     `json:"epochs"`
}

// TestGoldenScenarios replays every registered scenario through a stepped
// daemon under SEBF and FIFO and compares the rounded results with
// testdata/<scenario>.golden.json. A mismatch means the daemon schedules
// differently: fix the regression or, if the change is intended, regenerate
// with `go test ./internal/server -run TestGolden -update` and commit the
// diff.
func TestGoldenScenarios(t *testing.T) {
	scenarios := workload.Scenarios()
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(scenarios) && !*update {
		t.Errorf("%d golden files for %d scenarios: a stale fixture pins nothing", len(files), len(scenarios))
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			inst, arrivals, err := sc.Build()
			if err != nil {
				t.Fatalf("building scenario: %v", err)
			}
			got := map[string]engineGolden{}
			for _, p := range []online.Policy{online.SEBFOnline{}, online.FIFOOnline{}} {
				got[p.Name()] = replayScenario(t, inst, arrivals, p)
			}
			b, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			b = append(b, '\n')
			path := filepath.Join("testdata", sc.Name+".golden.json")
			if *update {
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update and commit it): %v", err)
			}
			if !bytes.Equal(want, b) {
				t.Errorf("daemon output drifted from %s:\ngot:\n%s\nwant:\n%s", path, b, want)
			}
		})
	}
}

// replayScenario streams a scenario through a stepped daemon the way coflowd
// sees traffic: every coflow is admitted over the API at its arrival, while
// the engine still stands at the epoch boundary before it, and a tick fires
// at every boundary from 0 until everything has been admitted and finished.
func replayScenario(t *testing.T, inst *coflow.Instance, arrivals []float64, policy online.Policy) engineGolden {
	t.Helper()
	s := mustStartStepped(t, Config{
		Network:     inst.Network,
		Policy:      policy,
		EpochLength: goldenEpoch,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	next := 0
	for at := 0.0; ; at += goldenEpoch {
		for ; next < len(inst.Coflows) && arrivals[next] <= at; next++ {
			src := inst.Coflows[next]
			cf := coflow.Coflow{Name: src.Name, Weight: src.Weight, Flows: make([]coflow.Flow, len(src.Flows))}
			for j, f := range src.Flows {
				// The wire takes releases as offsets from the admission.
				cf.Flows[j] = coflow.Flow{Source: f.Source, Dest: f.Dest, Size: f.Size, Release: f.Release - arrivals[next]}
			}
			s.admitAt(t, arrivals[next], cf)
		}
		s.tickAt(t, at)
		st := s.stats(t)
		if next == len(inst.Coflows) && st.Completed == st.Admitted {
			return engineGolden{
				WeightedCCT:      round9(st.WeightedCCT),
				WeightedResponse: round9(st.WeightedResponse),
				Completed:        st.Completed,
				Epochs:           st.Epochs,
			}
		}
		if st.Epochs > 10000 {
			t.Fatalf("%s: %d of %d coflows unfinished after %d epochs", policy.Name(), st.Admitted-st.Completed, len(inst.Coflows), st.Epochs)
		}
	}
}

// round9 quantizes to 9 decimal places, as internal/regress does.
func round9(v float64) float64 { return math.Round(v*1e9) / 1e9 }
