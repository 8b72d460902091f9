package experiments

import (
	"fmt"
	"math/rand"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// EpochLength is the online engine's re-decision period in both sweeps
// (OnlineSweep and ScenarioSweep) and in the golden fixtures of
// internal/regress, which replay the scenarios under ScenarioPolicies.
const EpochLength = 2

// OnlineConfig controls the arrival-rate × policy sweep of the online
// scheduler. It is the online counterpart of Config: instead of varying the
// instance shape, it varies the coflow arrival rate from light load to
// overload and compares the epoch policies of internal/online.
type OnlineConfig struct {
	// FatK is the fat-tree arity (k=4 default: 16 servers).
	FatK int
	// Trials is the number of random arrival processes averaged per rate.
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// NumCoflows is the number of coflows streamed per trial.
	NumCoflows int
	// Width is the number of flows per coflow.
	Width int
	// MeanSize and MeanWeight parameterize the per-coflow shape.
	MeanSize   float64
	MeanWeight float64
	// ArrivalRates is the x-axis: mean coflow arrivals per time unit.
	ArrivalRates []float64
}

// DefaultOnlineConfig returns a configuration small enough for tests and CI:
// three arrival rates spanning light load to overload on a 16-server
// fat-tree.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{
		FatK:         4,
		Trials:       3,
		Seed:         1,
		NumCoflows:   8,
		Width:        3,
		MeanSize:     4,
		MeanWeight:   1,
		ArrivalRates: []float64{0.5, 2.0, 8.0},
	}
}

// PaperOnlineConfig scales the sweep to the paper's 128-server (k=8)
// fat-tree with longer arrival streams. The per-epoch LP re-solves take
// multiple seconds each with the pure-Go simplex, so — like PaperConfig —
// this is provided for completeness rather than routine use.
func PaperOnlineConfig() OnlineConfig {
	c := DefaultOnlineConfig()
	c.FatK = 8
	c.Trials = 5
	c.NumCoflows = 20
	c.Width = 8
	c.ArrivalRates = []float64{0.25, 1, 4, 16}
	return c
}

// OnlinePolicies returns the policies compared by the sweep, in display
// order: the hindsight Oracle first (lower-bound reference), then the two
// reordering policies, then the FIFO strawman.
func (c OnlineConfig) OnlinePolicies() []online.Policy {
	return []online.Policy{
		online.NewOracle(baselines.SEBF{}),
		online.LPEpoch{},
		online.SEBFOnline{},
		online.FIFOOnline{},
	}
}

// OnlineSweepResult bundles the two panels of the online comparison: mean
// weighted CCT per (rate, policy), and the same normalized to FIFOOnline.
type OnlineSweepResult struct {
	Absolute *stats.Table
	Ratio    *stats.Table
	// MeanSolveLatency aggregates, per policy, the mean epoch solve latency
	// in seconds across all rates and trials.
	MeanSolveLatency map[string]float64
	// Fallbacks counts, per policy, the epochs of all rates and trials that
	// settled the policy's fallback order: for LPEpoch, an SEBF order in
	// place of an LP that failed to solve.
	Fallbacks map[string]int `json:"fallbacks"`
}

// String renders both panels plus the solve-latency and fallback summary.
func (r *OnlineSweepResult) String() string {
	s := r.Absolute.String() + "\n" + r.Ratio.String() + "\nMean epoch solve latency, fallback epochs:\n"
	for _, series := range r.Absolute.SeriesSet {
		if v, ok := r.MeanSolveLatency[series.Name]; ok {
			s += fmt.Sprintf("  %-20s %8.3f ms  %4d\n", series.Name, v*1e3, r.Fallbacks[series.Name])
		}
	}
	return s
}

// OnlineSweep streams Poisson coflow arrivals through every online policy at
// each configured arrival rate and tabulates mean weighted CCT. All policies
// share the same instances per trial (paired design, as in the offline
// figures).
func OnlineSweep(cfg OnlineConfig) (*OnlineSweepResult, error) {
	if cfg.FatK <= 0 {
		cfg.FatK = 4
	}
	g := graph.FatTree(cfg.FatK, 1)
	return onlineSweep(cfg, g, func(rate float64, rng *rand.Rand) (*coflow.Instance, error) {
		inst, _, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
			Config: workload.Config{
				NumCoflows: cfg.NumCoflows,
				Width:      cfg.Width,
				MeanSize:   cfg.MeanSize,
				MeanWeight: cfg.MeanWeight,
			},
			Rate: rate,
		}, rng)
		return inst, err
	})
}

// onlineSweep is OnlineSweep over the streams draw returns, one per rate and
// trial, each from that trial's seeded rng.
func onlineSweep(cfg OnlineConfig, g *graph.Graph, draw func(rate float64, rng *rand.Rand) (*coflow.Instance, error)) (*OnlineSweepResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	pols := cfg.OnlinePolicies()

	values := make([][]float64, len(pols))
	for i := range values {
		values[i] = make([]float64, len(cfg.ArrivalRates))
	}
	latencies := make(map[string][]float64)
	fallbacks := make(map[string]int, len(pols))

	for ri, rate := range cfg.ArrivalRates {
		sums := make([][]float64, len(pols))
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(trial)*7919 + int64(ri)*104729
			inst, err := draw(rate, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			for pi, p := range pols {
				res, err := online.Run(inst, p, online.Config{
					EpochLength: EpochLength,
					Seed:        seed,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s at rate %v trial %d: %w", p.Name(), rate, trial, err)
				}
				if err := res.Schedule.Validate(inst); err != nil {
					return nil, fmt.Errorf("experiments: %s produced an infeasible online schedule: %w", p.Name(), err)
				}
				sums[pi] = append(sums[pi], res.WeightedCCT)
				latencies[p.Name()] = append(latencies[p.Name()], res.SolveLatencies()...)
				fallbacks[p.Name()] += res.Fallbacks()
			}
		}
		for pi := range pols {
			values[pi][ri] = stats.Mean(sums[pi])
		}
	}

	labels := make([]string, len(cfg.ArrivalRates))
	for i, r := range cfg.ArrivalRates {
		labels[i] = fmt.Sprintf("rate %.2g", r)
	}
	title := fmt.Sprintf("OnlineSweep: %d-server fat-tree, %d coflows x %d flows, epoch %v",
		len(g.Hosts()), cfg.NumCoflows, cfg.Width, EpochLength)
	abs := stats.NewTable(title, "arrival rate", labels)
	for pi, p := range pols {
		if err := abs.AddSeries(p.Name(), values[pi]); err != nil {
			return nil, err
		}
	}
	ratio, err := abs.NormalizeTo(online.FIFOOnline{}.Name())
	if err != nil {
		return nil, err
	}
	meanLat := make(map[string]float64, len(latencies))
	for name, ls := range latencies {
		meanLat[name] = stats.Mean(ls)
	}
	return &OnlineSweepResult{Absolute: abs, Ratio: ratio, MeanSolveLatency: meanLat, Fallbacks: fallbacks}, nil
}
