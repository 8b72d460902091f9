// Package experiments regenerates the paper's evaluation: Figure 1 (the
// triangle example), Table 1 (approximation ratios, reported empirically
// against certified lower bounds), Figure 3 (total weighted completion time
// versus coflow width) and Figure 4 (versus number of coflows), plus the
// ablations described in EXPERIMENTS.md.
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
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// Scheduler is every scheme compared in the figures.
type Scheduler = online.OfflineScheduler

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
	// One instance per trial, shared by every scheduler (paired design, as in
	// the paper).
	objs, err := trials(c.Trials, c.Seed+int64(numCoflows)*31+int64(width)*17, 7919, func(seed int64) ([]float64, error) {
		inst, err := workload.Generate(g, workload.Config{
			NumCoflows:  numCoflows,
			Width:       width,
			MeanSize:    meanSize,
			MeanRelease: meanRelease,
			MeanWeight:  meanWeight,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(schedulers))
		for si, s := range schedulers {
			cs, err := s.Schedule(inst, rand.New(rand.NewSource(seed+int64(si)+1)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name(), err)
			}
			if err := cs.Validate(inst); err != nil {
				return nil, fmt.Errorf("%s produced an infeasible schedule: %w", s.Name(), err)
			}
			out[si] = cs.Objective(inst)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return means(objs), nil
}

// trials is the experiments' one trial loop. It runs trial n times (once if
// n < 1), the t-th on seed + step·t, and returns the values the runs report,
// value by value: out[k][t] is value k of trial t.
func trials(n int, seed, step int64, trial func(seed int64) ([]float64, error)) ([][]float64, error) {
	var out [][]float64
	for t := 0; t < max(n, 1); t++ {
		vals, err := trial(seed + step*int64(t))
		if err != nil {
			return nil, fmt.Errorf("experiments: trial %d: %w", t, err)
		}
		if out == nil {
			out = make([][]float64, len(vals))
		}
		for k, v := range vals {
			out[k] = append(out[k], v)
		}
	}
	return out, nil
}

// means is the mean of each of trials' samples.
func means(samples [][]float64) []float64 {
	out := make([]float64, len(samples))
	for k, s := range samples {
		out[k] = stats.Mean(s)
	}
	return out
}

// table builds a stats.Table whose series names[i] holds values[i], one value
// per label.
func table(title, xlabel string, labels, names []string, values [][]float64) (*stats.Table, error) {
	t := stats.NewTable(title, xlabel, labels)
	for i, name := range names {
		if err := t.AddSeries(name, values[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// tablePair is the two panels of a sweep: the absolute values and the same
// divided, row by row, by one reference series.
type tablePair struct {
	Absolute *stats.Table
	Ratio    *stats.Table
}

// newTablePair builds table's panel and its ratio to the series named ref.
func newTablePair(title, xlabel string, labels, names []string, values [][]float64, ref string) (tablePair, error) {
	abs, err := table(title, xlabel, labels, names, values)
	if err != nil {
		return tablePair{}, err
	}
	ratio, err := abs.NormalizeTo(ref)
	return tablePair{Absolute: abs, Ratio: ratio}, err
}

// String renders both panels.
func (p tablePair) String() string { return p.Absolute.String() + "\n" + p.Ratio.String() }

// CSV renders both panels, the absolute one first.
func (p tablePair) CSV() string { return p.Absolute.CSV() + p.Ratio.CSV() }

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
