package experiments

import (
	"math/rand"

	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// AblationResult reports the design-choice studies described in
// EXPERIMENTS.md:
//
//	(a) interval granularity ε (LP tightness vs size),
//	(b) candidate-path budget (1 = shortest-path routing only vs 4),
//	(c) practical start-ASAP mode vs the theoretical interval placement.
type AblationResult struct {
	Epsilon        *stats.Table
	CandidatePaths *stats.Table
	Rounding       *stats.Table
}

// String renders all three panels.
func (a *AblationResult) String() string {
	return a.Epsilon.String() + "\n" + a.CandidatePaths.String() + "\n" + a.Rounding.String()
}

// AblationConfig sizes the ablation workload.
type AblationConfig struct {
	Trials     int
	Seed       int64
	NumCoflows int
	Width      int
}

// DefaultAblationConfig keeps the LPs small.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Trials: 2, Seed: 11, NumCoflows: 4, Width: 4}
}

// Ablation runs all three studies on a 16-server fat-tree. Every study draws
// trial t's instance from an rng seeded Seed + 101·t and schedules it from
// the same rng.
func Ablation(cfg AblationConfig) (*AblationResult, error) {
	g := graph.FatTree(4, 1)
	run := func(schedule func(inst *coflow.Instance, rng *rand.Rand) ([]float64, error)) ([][]float64, error) {
		return trials(cfg.Trials, cfg.Seed, 101, func(seed int64) ([]float64, error) {
			rng := rand.New(rand.NewSource(seed))
			inst, err := workload.Generate(g, workload.Config{
				NumCoflows: cfg.NumCoflows, Width: cfg.Width, MeanSize: 3, MeanRelease: 1, MeanWeight: 1,
			}, rng)
			if err != nil {
				return nil, err
			}
			return schedule(inst, rng)
		})
	}
	// lpSweep is the LP-Based ASAP schedule's mean objective and certified
	// lower bound under each of opts.
	lpSweep := func(opts ...core.Options) (objs, lbs []float64, err error) {
		for _, o := range opts {
			s, err := run(func(inst *coflow.Instance, rng *rand.Rand) ([]float64, error) {
				res, err := (core.CircuitFreePaths{Opts: o}).ScheduleASAP(inst, rng)
				if err != nil {
					return nil, err
				}
				return []float64{res.Objective(inst), core.CombinedLowerBound(inst, res)}, nil
			})
			if err != nil {
				return nil, nil, err
			}
			m := means(s)
			objs, lbs = append(objs, m[0]), append(lbs, m[1])
		}
		return objs, lbs, nil
	}

	// (a) ε sweep: objective and LP lower bound as ε shrinks.
	objByEps, lbByEps, err := lpSweep(core.Options{Epsilon: 2, CandidatePaths: 2},
		core.Options{Epsilon: 1, CandidatePaths: 2}, core.Options{Epsilon: 0.5, CandidatePaths: 2})
	if err != nil {
		return nil, err
	}
	epsTable, err := table("Ablation (a): interval granularity", "epsilon", []string{"eps=2", "eps=1", "eps=0.5"},
		[]string{"LP-Based objective", "certified lower bound"}, [][]float64{objByEps, lbByEps})
	if err != nil {
		return nil, err
	}

	// (b) candidate-path budget.
	objByK, _, err := lpSweep(core.Options{CandidatePaths: 1}, core.Options{CandidatePaths: 2}, core.Options{CandidatePaths: 4})
	if err != nil {
		return nil, err
	}
	kTable, err := table("Ablation (b): candidate-path budget", "paths", []string{"K=1", "K=2", "K=4"},
		[]string{"LP-Based objective"}, [][]float64{objByK})
	if err != nil {
		return nil, err
	}

	// (c) rounding mode: ASAP vs theoretical interval placement, one rng.
	modes, err := run(func(inst *coflow.Instance, rng *rand.Rand) ([]float64, error) {
		sched := core.CircuitFreePaths{Opts: core.Options{CandidatePaths: 2}}
		asap, err := sched.ScheduleASAP(inst, rng)
		if err != nil {
			return nil, err
		}
		prov, err := sched.ScheduleProvable(inst, rng)
		if err != nil {
			return nil, err
		}
		return []float64{asap.Objective(inst), prov.Objective(inst)}, nil
	})
	if err != nil {
		return nil, err
	}
	roundTable, err := table("Ablation (c): rounding mode (mean objective)", "mode",
		[]string{"ASAP (practical)", "interval placement"}, []string{"objective"}, [][]float64{means(modes)})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Epsilon: epsTable, CandidatePaths: kTable, Rounding: roundTable}, nil
}
