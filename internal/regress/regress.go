// Package regress is the repository's behavioral regression net: it replays
// every workload scenario of internal/workload's catalog through online.Run,
// which aligns epoch 0 to the first arrival and scores the transcript, under
// the policies and epoch length of the scenario sweep
// (experiments.ScenarioPolicies, experiments.EpochLength), rounds
// the resulting per-policy objectives and per-coflow completion times, and
// diffs them against committed golden files under testdata/. coflowd is held
// to the same fixtures: internal/server's TestGoldenScenarios replays the
// scenarios through the daemon on Run's epoch grid.
//
// The tier-1 suite only catches crashes and property violations; the goldens
// catch silent drift — a refactor that changes which coflow finishes first
// still "passes tests" everywhere else. Schedulers here are deterministic by
// contract (same instance, policy and seed produce the same schedule), so
// the goldens are exact after rounding, not tolerances.
//
// When an intentional scheduling change moves the numbers, regenerate with:
//
//	go test ./internal/regress -run TestGolden -update
//
// and review the golden diff like any other code change.
package regress

import (
	"fmt"
	"math"

	"coflowsched/internal/experiments"
	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// PolicyGolden pins one policy's online.Run output on one scenario.
type PolicyGolden struct {
	WeightedCCT      float64 `json:"weighted_cct"`
	WeightedResponse float64 `json:"weighted_response"`
	Makespan         float64 `json:"makespan"`
	// Completions is the per-coflow completion time vector — the sharpest
	// drift detector: aggregate objectives can coincide while the schedule
	// changed.
	Completions []float64 `json:"completions"`
	SlowdownP50 float64   `json:"slowdown_p50"`
	SlowdownP95 float64   `json:"slowdown_p95"`
}

// ScenarioGolden is one scenario's complete fixture.
type ScenarioGolden struct {
	Scenario string `json:"scenario"`
	Coflows  int    `json:"coflows"`
	Flows    int    `json:"flows"`
	// Policies maps policy name to the online.Run output.
	Policies map[string]PolicyGolden `json:"policies"`
}

// RunScenario computes the golden record for one scenario. A run that settled
// a fallback epoch (LPEpoch's SEBF order in place of a failed LP) is an error:
// a pin must be the policy's own schedule.
func RunScenario(sc workload.Scenario) (*ScenarioGolden, error) {
	inst, _, err := sc.Build()
	if err != nil {
		return nil, err
	}
	g := &ScenarioGolden{
		Scenario: sc.Name,
		Coflows:  len(inst.Coflows),
		Flows:    inst.NumFlows(),
		Policies: map[string]PolicyGolden{},
	}
	for _, p := range experiments.ScenarioPolicies() {
		res, err := online.Run(inst, p, online.Config{EpochLength: experiments.EpochLength, Seed: sc.Seed})
		if err != nil {
			return nil, fmt.Errorf("regress: %s/%s: %w", sc.Name, p.Name(), err)
		}
		if n := res.Fallbacks(); n != 0 {
			return nil, fmt.Errorf("regress: %s/%s settled %d fallback epochs; a pin must be the policy's own schedule", sc.Name, p.Name(), n)
		}
		g.Policies[p.Name()] = Pin(res.WeightedCCT, res.WeightedResponse, res.Makespan, res.CoflowCompletion, res.Slowdown)
	}
	return g, nil
}

// Pin rounds one policy's outcome into its pinned form; completions and
// slowdowns are indexed by coflow.
func Pin(weightedCCT, weightedResponse, makespan float64, completions, slowdowns []float64) PolicyGolden {
	g := PolicyGolden{
		WeightedCCT:      round(weightedCCT),
		WeightedResponse: round(weightedResponse),
		Makespan:         round(makespan),
		Completions:      make([]float64, len(completions)),
		SlowdownP50:      round(stats.PercentileOr(slowdowns, 50, 0)),
		SlowdownP95:      round(stats.PercentileOr(slowdowns, 95, 0)),
	}
	for i, c := range completions {
		g.Completions[i] = round(c)
	}
	return g
}

// round quantizes to 9 decimal places: coarse enough to absorb float
// printing differences, fine enough that any real scheduling change moves
// the value.
func round(v float64) float64 { return math.Round(v*1e9) / 1e9 }
