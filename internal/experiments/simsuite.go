package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
	"coflowsched/internal/workload"
)

// SimSuiteConfig parameterizes the simulator micro-suite: the hot-path
// benchmark behind every experiment and the coflowd daemon (see the
// Performance section of EXPERIMENTS.md).
type SimSuiteConfig struct {
	// Seed drives the random workloads.
	Seed int64
	// Trials is the number of timed runs per scale (the minimum is reported,
	// the usual noise-robust statistic for micro-benchmarks).
	Trials int
	// Scales lists the (coflows, width) workload sizes to sweep.
	Scales []SimScale
	// FatK is the fat-tree arity of the simulated network.
	FatK int
	// Reference also times the retained naive allocator (sim.Reference) on
	// the same instances and reports the speedup. Disable for quick runs at
	// large scales, where the naive allocator dominates wall time.
	Reference bool
}

// SimScale is one workload size of the sweep.
type SimScale struct {
	Coflows int
	Width   int
}

// DefaultSimSuiteConfig exercises the priority hot path up to 2000 flows,
// with the naive reference timed alongside for the speedup column.
func DefaultSimSuiteConfig() SimSuiteConfig {
	return SimSuiteConfig{
		Seed:      42,
		Trials:    3,
		FatK:      4,
		Reference: true,
		Scales: []SimScale{
			{Coflows: 32, Width: 4},
			{Coflows: 125, Width: 4},
			{Coflows: 250, Width: 8},
		},
	}
}

// SimSuiteRow is one scale's measurement.
type SimSuiteRow struct {
	Flows int
	// IncrementalNs and ReferenceNs are the minimum wall time of one full
	// priority-policy Run, in nanoseconds (ReferenceNs 0 when the reference
	// is disabled).
	IncrementalNs int64
	ReferenceNs   int64
	// Speedup is ReferenceNs / IncrementalNs (0 when the reference is
	// disabled).
	Speedup float64
	// Objective is the total weighted completion time both allocators
	// produced; the suite fails if they disagree, so a recorded row is also
	// an equivalence witness.
	Objective float64
}

// SimSuiteResult is the micro-suite's outcome.
type SimSuiteResult struct {
	Rows []SimSuiteRow
}

// String renders the suite as a table.
func (r *SimSuiteResult) String() string {
	s := fmt.Sprintf("%-8s %-16s %-16s %-9s %s\n", "flows", "incremental", "reference", "speedup", "objective")
	for _, row := range r.Rows {
		ref, speed := "-", "-"
		if row.ReferenceNs > 0 {
			ref = time.Duration(row.ReferenceNs).String()
			speed = fmt.Sprintf("%.2fx", row.Speedup)
		}
		s += fmt.Sprintf("%-8d %-16s %-16s %-9s %.2f\n",
			row.Flows, time.Duration(row.IncrementalNs).String(), ref, speed, row.Objective)
	}
	return s
}

// SimSuite times the flow-level simulator's priority hot path across the
// configured scales, optionally against the retained naive reference
// allocator, asserting that both produce the same objective (completion
// times to 1e-9 are covered by internal/sim's differential tests; the
// objective check here keeps recorded trajectories self-verifying).
func SimSuite(cfg SimSuiteConfig) (*SimSuiteResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.FatK == 0 {
		cfg.FatK = 4
	}
	g := graph.FatTree(cfg.FatK, 1)
	res := &SimSuiteResult{}
	for _, sc := range cfg.Scales {
		rng := rand.New(rand.NewSource(cfg.Seed))
		inst, err := workload.GenerateWithPaths(g, workload.Config{
			NumCoflows: sc.Coflows, Width: sc.Width, MeanSize: 4, MeanRelease: 25,
		}, rng)
		if err != nil {
			return nil, err
		}
		simCfg := sim.Config{Order: inst.FlowRefs(), Policy: sim.Priority}

		var incBest, refBest int64 = math.MaxInt64, math.MaxInt64
		var objective, refObjective float64
		for t := 0; t < cfg.Trials; t++ {
			t0 := time.Now()
			cs, err := sim.Run(inst, simCfg)
			d := time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("sim suite: incremental run: %w", err)
			}
			if d < incBest {
				incBest = d
			}
			objective = cs.Objective(inst)
		}
		if cfg.Reference {
			for t := 0; t < cfg.Trials; t++ {
				t0 := time.Now()
				cs, err := sim.RunReference(inst, simCfg)
				d := time.Since(t0).Nanoseconds()
				if err != nil {
					return nil, fmt.Errorf("sim suite: reference run: %w", err)
				}
				if d < refBest {
					refBest = d
				}
				refObjective = cs.Objective(inst)
			}
			if math.Abs(objective-refObjective) > 1e-6*math.Max(1, refObjective) {
				return nil, fmt.Errorf("sim suite: allocators diverge at %d flows: incremental objective %v, reference %v",
					inst.NumFlows(), objective, refObjective)
			}
		}
		row := SimSuiteRow{
			Flows:         inst.NumFlows(),
			IncrementalNs: incBest,
			Objective:     objective,
		}
		if cfg.Reference {
			row.ReferenceNs = refBest
			row.Speedup = float64(refBest) / float64(incBest)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
