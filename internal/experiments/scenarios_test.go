package experiments

import (
	"testing"

	"coflowsched/internal/workload"
)

func TestScenarioSweepSingle(t *testing.T) {
	cfg := ScenarioConfig{Scenarios: []string{"incast"}}
	res, err := ScenarioSweep(cfg)
	if err != nil {
		t.Fatalf("ScenarioSweep: %v", err)
	}
	if len(res.Results) != len(ScenarioPolicies()) {
		t.Fatalf("got %d results, want one per policy (%d)", len(res.Results), len(ScenarioPolicies()))
	}
	for _, r := range res.Results {
		if r.WeightedCCT <= 0 || r.Makespan <= 0 {
			t.Errorf("%s/%s: degenerate objectives %+v", r.Scenario, r.Policy, r)
		}
		if r.SlowdownP95 < 1-1e-9 {
			t.Errorf("%s/%s: slowdown p95 %v below 1 (faster than isolated run?)", r.Scenario, r.Policy, r.SlowdownP95)
		}
	}
}

func TestScenarioSweepUnknownName(t *testing.T) {
	cfg := ScenarioConfig{Scenarios: []string{"definitely-not-registered"}}
	if _, err := ScenarioSweep(cfg); err == nil {
		t.Fatalf("unknown scenario name should error")
	}
}

// TestScenarioSweepAll covers every registered scenario end to end — the
// acceptance path behind `coflowbench -scenario all`. Short mode runs a
// cheap subset; the full sweep still runs in CI.
func TestScenarioSweepAll(t *testing.T) {
	var cfg ScenarioConfig
	if testing.Short() {
		cfg.Scenarios = []string{"uniform", "fb-trace"}
	}
	res, err := ScenarioSweep(cfg)
	if err != nil {
		t.Fatalf("ScenarioSweep: %v", err)
	}
	wantScenarios := len(cfg.Scenarios)
	if wantScenarios == 0 {
		wantScenarios = len(workload.ScenarioNames())
	}
	if got := len(res.Results); got != wantScenarios*len(ScenarioPolicies()) {
		t.Fatalf("got %d results, want %d scenarios x %d policies", got, wantScenarios, len(ScenarioPolicies()))
	}
	if res.Absolute == nil || res.Ratio == nil {
		t.Fatalf("missing tables")
	}
}
