package workload

import (
	"reflect"
	"strings"
	"testing"

	"coflowsched/internal/graph"
)

func TestScenarioRegistry(t *testing.T) {
	want := []string{"diurnal", "fan-in", "fan-out", "fb-trace", "heavy-tail", "incast", "uniform"}
	if names := ScenarioNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("ScenarioNames() = %v, want the catalog in name order %v", names, want)
	}
	for _, name := range want {
		if s, ok := LookupScenario(name); !ok || s.Name != name {
			t.Errorf("LookupScenario(%s) = %q, %v", name, s.Name, ok)
		}
	}
	if _, ok := LookupScenario("no-such-scenario"); ok {
		t.Errorf("LookupScenario invented a scenario")
	}
}

// TestScenarioBuildDeterministic is the property the golden-file harness
// rests on: building a scenario twice yields byte-identical instances.
func TestScenarioBuildDeterministic(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			inst1, arr1, err := s.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			inst2, arr2, err := s.Build()
			if err != nil {
				t.Fatalf("Build (second): %v", err)
			}
			if !reflect.DeepEqual(inst1.Coflows, inst2.Coflows) {
				t.Errorf("two builds produced different coflows")
			}
			if !reflect.DeepEqual(arr1, arr2) {
				t.Errorf("two builds produced different arrivals")
			}
		})
	}
}

// TestScenarioBuildValid runs the generator property contract over every
// catalog scenario (including any future entry, which picks up this suite for
// free).
func TestScenarioBuildValid(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			inst, arrivals, err := s.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := inst.Validate(false); err != nil {
				t.Fatalf("invalid instance: %v", err)
			}
			if len(inst.Coflows) == 0 {
				t.Fatalf("scenario built an empty instance")
			}
			if len(arrivals) != len(inst.Coflows) {
				t.Fatalf("%d arrivals for %d coflows", len(arrivals), len(inst.Coflows))
			}
			hosts := map[graph.NodeID]bool{}
			for _, h := range inst.Network.Hosts() {
				hosts[h] = true
			}
			for i := 1; i < len(arrivals); i++ {
				if arrivals[i] < arrivals[i-1] {
					t.Fatalf("arrivals decrease at %d", i)
				}
			}
			for i, cf := range inst.Coflows {
				for j, f := range cf.Flows {
					if !hosts[f.Source] || !hosts[f.Dest] {
						t.Fatalf("coflow %d flow %d endpoints are not hosts", i, j)
					}
					if f.Release < arrivals[i] {
						t.Fatalf("coflow %d flow %d releases before its arrival", i, j)
					}
				}
			}
		})
	}
}

func TestFBSampleTrace(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(fbSampleTrace))
	if err != nil {
		t.Fatalf("ParseTrace(fb_sample_trace.csv): %v", err)
	}
	if len(tr.Records) < 10 {
		t.Errorf("sample trace has only %d records", len(tr.Records))
	}
}
