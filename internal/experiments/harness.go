// Package experiments regenerates the paper's evaluation: Figure 1 (the
// triangle example), Table 1 (approximation ratios, reported empirically
// against certified lower bounds), Figure 3 (total weighted completion time
// versus coflow width) and Figure 4 (versus number of coflows), plus the
// ablations called out in DESIGN.md.
//
// The paper's experiments run on a 128-server (k=8) fat-tree with CPLEX
// solving the LPs. The pure-Go simplex in this repository is slower, so the
// default configuration uses a 16-server (k=4) fat-tree and smaller sweeps;
// every parameter can be raised to paper scale through Config (PaperConfig,
// coflowbench -paper). The quantities reported — absolute totals, ratios
// versus the Baseline heuristic, and average improvement percentages — match
// the figures' panels.
package experiments

import (
	"fmt"
	"math/rand"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// Scheduler is the common interface of every scheme compared in the figures:
// the LP-based algorithms of internal/core and the heuristics of
// internal/baselines all satisfy it.
type Scheduler interface {
	Name() string
	Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error)
}

// Config controls the workload sweeps.
type Config struct {
	// FatK is the fat-tree arity (k); k=8 is the paper's 128-server network,
	// k=4 (default) is the scaled-down 16-server network.
	FatK int
	// Trials is the number of random instances averaged per data point
	// (paper: 10; default here: 3).
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// NumCoflows is the number of coflows for the width sweep (Figure 3).
	NumCoflows int
	// Widths are the x-axis of Figure 3.
	Widths []int
	// Width is the fixed coflow width for the coflow-count sweep (Figure 4).
	Width int
	// CoflowCounts are the x-axis of Figure 4.
	CoflowCounts []int
}

// The Poisson workload's per-coflow shape (the sweeps' and the online
// sweep's), and the LP's routing budget (core.Options.CandidatePaths) in the
// figures' LP-Based scheme.
const (
	meanSize       = 4
	meanRelease    = 2
	meanWeight     = 1
	candidatePaths = 4
)

// DefaultConfig returns the scaled-down configuration that coflowbench and
// the Go benchmarks run.
func DefaultConfig() Config {
	return Config{
		FatK:         4,
		Trials:       3,
		Seed:         1,
		NumCoflows:   5,
		Widths:       []int{2, 4, 6, 8},
		Width:        4,
		CoflowCounts: []int{4, 6, 8, 10},
	}
}

// PaperConfig returns the paper's own experiment scale (128 servers, 10
// trials, widths up to 32, up to 30 coflows). Running it with the pure-Go
// simplex takes hours; it is provided for completeness.
func PaperConfig() Config {
	c := DefaultConfig()
	c.FatK = 8
	c.Trials = 10
	c.NumCoflows = 10
	c.Widths = []int{4, 8, 16, 32}
	c.Width = 16
	c.CoflowCounts = []int{10, 15, 20, 25, 30}
	return c
}

// Schedulers returns the four schemes of the paper's §4.3 comparison, in the
// order the figures list them: LP-Based, Route-only, Schedule-only, Baseline.
func (c Config) Schedulers() []Scheduler {
	lp := core.CircuitFreePaths{Opts: core.Options{CandidatePaths: candidatePaths}}
	return []Scheduler{lp, baselines.RouteOnly{}, baselines.ScheduleOnly{}, baselines.Baseline{}}
}

// network builds the experiment topology.
func (c Config) network() *graph.Graph {
	k := c.FatK
	if k <= 0 {
		k = 4
	}
	return graph.FatTree(k, 1)
}

// checkShape rejects a coflow count or width below 1. workload.Generate would
// draw such a point at its own default while the figure labels the row with
// the value given, so the sweeps refuse it before anything is drawn.
func checkShape(counts, widths []int) error {
	for _, n := range counts {
		if n < 1 {
			return fmt.Errorf("experiments: %d coflows: want a positive integer", n)
		}
	}
	for _, w := range widths {
		if w < 1 {
			return fmt.Errorf("experiments: width %d: want a positive integer", w)
		}
	}
	return nil
}

// SweepPoint measures every scheduler on `trials` random instances drawn with
// the given workload shape and returns the mean total weighted completion
// time per scheduler (in the order of Schedulers()).
func (c Config) SweepPoint(g *graph.Graph, numCoflows, width int, schedulers []Scheduler) ([]float64, error) {
	if err := checkShape([]int{numCoflows}, []int{width}); err != nil {
		return nil, err
	}
	trials := c.Trials
	if trials <= 0 {
		trials = 1
	}
	sums := make([][]float64, len(schedulers))
	for i := range sums {
		sums[i] = make([]float64, 0, trials)
	}
	for trial := 0; trial < trials; trial++ {
		// One instance per trial, shared by every scheduler (paired design,
		// as in the paper).
		seed := c.Seed + int64(trial)*7919 + int64(numCoflows)*31 + int64(width)*17
		rng := rand.New(rand.NewSource(seed))
		inst, err := workload.Generate(g, workload.Config{
			NumCoflows:  numCoflows,
			Width:       width,
			MeanSize:    meanSize,
			MeanRelease: meanRelease,
			MeanWeight:  meanWeight,
		}, rng)
		if err != nil {
			return nil, err
		}
		for si, s := range schedulers {
			srng := rand.New(rand.NewSource(seed + int64(si) + 1))
			cs, err := s.Schedule(inst, srng)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on trial %d: %w", s.Name(), trial, err)
			}
			if err := cs.Validate(inst); err != nil {
				return nil, fmt.Errorf("experiments: %s produced an infeasible schedule: %w", s.Name(), err)
			}
			sums[si] = append(sums[si], cs.Objective(inst))
		}
	}
	out := make([]float64, len(schedulers))
	for i := range schedulers {
		out[i] = stats.Mean(sums[i])
	}
	return out, nil
}

// ImprovementSummary computes, for each competing scheduler, the average
// percentage by which its completion time exceeds the first scheduler's
// (the paper's "%22 or more improvement on average" numbers). values is
// indexed [scheduler][point].
func ImprovementSummary(names []string, values [][]float64) map[string]float64 {
	out := map[string]float64{}
	if len(values) == 0 {
		return out
	}
	for si := 1; si < len(values); si++ {
		var imps []float64
		for p := range values[si] {
			imps = append(imps, stats.ImprovementPercent(values[0][p], values[si][p]))
		}
		out[names[si]] = stats.Mean(imps)
	}
	return out
}
