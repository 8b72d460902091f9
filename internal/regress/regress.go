// Package regress is the repository's behavioral regression net: it replays
// every registered workload scenario (internal/workload) through the epoch
// loop (online.Engine) under its two drivers — online.Run, which aligns
// epoch 0 to the first arrival and scores the transcript, and a coflowd-shaped
// drive from t=0 that reads the engine's own aggregates (runEngine) — rounds
// the resulting per-policy objectives and per-coflow completion times, and
// diffs them against committed golden files under testdata/.
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

	"coflowsched/internal/coflow"
	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// epochLength is the re-decision period used for every golden run. One value
// for all scenarios keeps the fixtures comparable; it matches the default
// the experiment sweeps use.
const epochLength = 2

// PolicyGolden pins one policy's batch-path output on one scenario.
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

// EngineGolden pins the incremental engine's output on one scenario: the
// same workload admitted coflow by coflow and advanced epoch by epoch, the
// way coflowd consumes it.
type EngineGolden struct {
	WeightedCCT      float64 `json:"weighted_cct"`
	WeightedResponse float64 `json:"weighted_response"`
	Completed        int     `json:"completed"`
	Epochs           int     `json:"epochs"`
}

// ScenarioGolden is one scenario's complete fixture.
type ScenarioGolden struct {
	Scenario string `json:"scenario"`
	Coflows  int    `json:"coflows"`
	Flows    int    `json:"flows"`
	// Policies maps policy name to the batch (online.Run) output.
	Policies map[string]PolicyGolden `json:"policies"`
	// Engine maps policy name to the incremental (online.Engine) output.
	// Expensive policies are exercised on the batch path only.
	Engine map[string]EngineGolden `json:"engine"`
}

// batchPolicies returns the policies pinned on the batch path, freshly
// constructed per call (policies may be stateful across Prepare).
func batchPolicies() []online.Policy {
	return []online.Policy{online.LPEpoch{}, online.SEBFOnline{}, online.FIFOOnline{}}
}

// enginePolicies returns the policies pinned on the incremental-engine path:
// the cheap heuristics only, so the suite stays fast enough to run under
// -race on every push (LPEpoch's per-epoch LP is covered by the batch path).
func enginePolicies() []online.Policy {
	return []online.Policy{online.SEBFOnline{}, online.FIFOOnline{}}
}

// RunScenario computes the golden record for one scenario.
func RunScenario(sc workload.Scenario) (*ScenarioGolden, error) {
	inst, arrivals, err := sc.Build()
	if err != nil {
		return nil, err
	}
	g := &ScenarioGolden{
		Scenario: sc.Name,
		Coflows:  len(inst.Coflows),
		Flows:    inst.NumFlows(),
		Policies: map[string]PolicyGolden{},
		Engine:   map[string]EngineGolden{},
	}
	for _, p := range batchPolicies() {
		res, err := online.Run(inst, p, online.Config{EpochLength: epochLength, Seed: sc.Seed})
		if err != nil {
			return nil, fmt.Errorf("regress: %s/%s batch: %w", sc.Name, p.Name(), err)
		}
		g.Policies[p.Name()] = PolicyGolden{
			WeightedCCT:      round(res.WeightedCCT),
			WeightedResponse: round(res.WeightedResponse),
			Makespan:         round(res.Makespan),
			Completions:      roundAll(res.CoflowCompletion),
			SlowdownP50:      round(stats.PercentileOr(res.Slowdown, 50, 0)),
			SlowdownP95:      round(stats.PercentileOr(res.Slowdown, 95, 0)),
		}
	}
	for _, p := range enginePolicies() {
		eg, err := runEngine(inst, arrivals, p)
		if err != nil {
			return nil, fmt.Errorf("regress: %s/%s engine: %w", sc.Name, p.Name(), err)
		}
		g.Engine[p.Name()] = eg
	}
	return g, nil
}

// runEngine streams the scenario through an incremental engine the way
// coflowd does: admissions at their arrival times, a synchronous decide and
// an advance per epoch, then a drain once every coflow has been admitted.
func runEngine(inst *coflow.Instance, arrivals []float64, policy online.Policy) (EngineGolden, error) {
	eng, err := online.NewEngine(inst.Network, policy, online.Config{EpochLength: epochLength})
	if err != nil {
		return EngineGolden{}, err
	}
	next := 0
	admit := func(upTo float64) error {
		for next < len(inst.Coflows) && arrivals[next] <= upTo {
			src := inst.Coflows[next]
			cf := coflow.Coflow{Name: src.Name, Weight: src.Weight, Flows: make([]coflow.Flow, len(src.Flows))}
			for j, f := range src.Flows {
				// Engine admission takes releases as offsets from admission.
				cf.Flows[j] = coflow.Flow{
					Source: f.Source, Dest: f.Dest, Size: f.Size,
					Release: f.Release - arrivals[next],
				}
			}
			if _, err := eng.Admit(cf, arrivals[next]); err != nil {
				return err
			}
			next++
		}
		return nil
	}
	// Walk epoch boundaries until everything is admitted and finished. The
	// budget mirrors online.Run's runaway guard.
	maxEpochs := int(inst.TimeHorizon()/epochLength)*10 + 1000
	t := 0.0
	for i := 0; next < len(inst.Coflows) || !eng.Done(); i++ {
		if i > maxEpochs {
			return EngineGolden{}, fmt.Errorf("exceeded %d epochs", maxEpochs)
		}
		t += epochLength
		if err := admit(t); err != nil {
			return EngineGolden{}, err
		}
		if err := eng.DecideSync(); err != nil {
			return EngineGolden{}, err
		}
		if err := eng.AdvanceTo(t); err != nil {
			return EngineGolden{}, err
		}
	}
	st := eng.Stats()
	return EngineGolden{
		WeightedCCT:      round(st.WeightedCCT),
		WeightedResponse: round(st.WeightedResponse),
		Completed:        st.Completed,
		Epochs:           st.Epochs,
	}, nil
}

// round quantizes to 9 decimal places: coarse enough to absorb float
// printing differences, fine enough that any real scheduling change moves
// the value.
func round(v float64) float64 { return math.Round(v*1e9) / 1e9 }

func roundAll(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = round(v)
	}
	return out
}
