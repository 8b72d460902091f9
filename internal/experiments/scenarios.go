package experiments

import (
	"fmt"

	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// ScenarioConfig controls the scenario x policy sweep: every named workload
// scenario (internal/workload's catalog — trace replay, heavy-tail, incast,
// fan-in/out, diurnal) is streamed through each online policy and scored.
// Unlike OnlineSweep, which varies load on one synthetic shape, this sweep
// varies the shape itself — the "as many scenarios as you can imagine" axis.
type ScenarioConfig struct {
	// Scenarios names the catalog entries to run (empty = all, sorted).
	Scenarios []string
}

// ScenarioPolicies returns the policies compared on every scenario, freshly
// constructed per call (policies may be stateful across Prepare); the golden
// regression harness (internal/regress) pins the same three. The hindsight
// Oracle is deliberately absent: scenario instances are fixed (one seed
// each), so its lower bound adds solve time without averaging value.
func ScenarioPolicies() []online.Policy {
	return []online.Policy{
		online.LPEpoch{},
		online.SEBFOnline{},
		online.FIFOOnline{},
	}
}

// ScenarioResult is one (scenario, policy) cell of the sweep.
type ScenarioResult struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Coflows  int    `json:"coflows"`
	Flows    int    `json:"flows"`
	// WeightedCCT and WeightedResponse are the run's objectives; Makespan the
	// last completion.
	WeightedCCT      float64 `json:"weighted_cct"`
	WeightedResponse float64 `json:"weighted_response"`
	Makespan         float64 `json:"makespan"`
	// SlowdownP50/P95 summarize per-coflow response over isolated bottleneck
	// time.
	SlowdownP50 float64 `json:"slowdown_p50"`
	SlowdownP95 float64 `json:"slowdown_p95"`
	// Fallbacks counts the epochs that settled the policy's fallback order:
	// for LPEpoch, an SEBF order in place of an LP that failed to solve.
	Fallbacks int `json:"fallbacks"`
}

// ScenarioSweepResult bundles the sweep: one row per scenario in the tables
// (absolute weighted CCT and the ratio to FIFO), plus the full per-cell
// detail for machine consumers.
type ScenarioSweepResult struct {
	Absolute *stats.Table
	Ratio    *stats.Table
	Results  []ScenarioResult
}

// String renders both panels plus each policy's fallback epochs, summed over
// the scenarios.
func (r *ScenarioSweepResult) String() string {
	fallbacks := map[string]int{}
	for _, c := range r.Results {
		fallbacks[c.Policy] += c.Fallbacks
	}
	s := r.Absolute.String() + "\n" + r.Ratio.String() + "\nFallback epochs:\n"
	for _, series := range r.Absolute.SeriesSet {
		s += fmt.Sprintf("  %-20s %4d\n", series.Name, fallbacks[series.Name])
	}
	return s
}

// ScenarioSweep replays each scenario through every policy. All policies see
// the identical instance per scenario (scenarios are seeded), so differences
// are pure policy effects.
func ScenarioSweep(cfg ScenarioConfig) (*ScenarioSweepResult, error) {
	names := cfg.Scenarios
	if len(names) == 0 {
		names = workload.ScenarioNames()
	}
	pols := ScenarioPolicies()

	values := make([][]float64, len(pols))
	for i := range values {
		values[i] = make([]float64, len(names))
	}
	res := &ScenarioSweepResult{}
	for si, name := range names {
		sc, ok := workload.LookupScenario(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scenario %q (have %v)", name, workload.ScenarioNames())
		}
		inst, _, err := sc.Build()
		if err != nil {
			return nil, err
		}
		for pi, p := range pols {
			r, err := online.Run(inst, p, online.Config{
				EpochLength: EpochLength,
				Seed:        sc.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s policy %s: %w", name, p.Name(), err)
			}
			if err := r.Schedule.Validate(inst); err != nil {
				return nil, fmt.Errorf("experiments: scenario %s policy %s infeasible: %w", name, p.Name(), err)
			}
			values[pi][si] = r.WeightedCCT
			res.Results = append(res.Results, ScenarioResult{
				Scenario:         name,
				Policy:           p.Name(),
				Coflows:          len(inst.Coflows),
				Flows:            inst.NumFlows(),
				WeightedCCT:      r.WeightedCCT,
				WeightedResponse: r.WeightedResponse,
				Makespan:         r.Makespan,
				SlowdownP50:      stats.PercentileOr(r.Slowdown, 50, 0),
				SlowdownP95:      stats.PercentileOr(r.Slowdown, 95, 0),
				Fallbacks:        r.Fallbacks(),
			})
		}
	}

	abs := stats.NewTable("ScenarioSweep: weighted CCT per scenario", "scenario", names)
	for pi, p := range pols {
		if err := abs.AddSeries(p.Name(), values[pi]); err != nil {
			return nil, err
		}
	}
	ratio, err := abs.NormalizeTo(online.FIFOOnline{}.Name())
	if err != nil {
		return nil, err
	}
	res.Absolute, res.Ratio = abs, ratio
	return res, nil
}
