package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

// Table1Row is one line of the Table 1 reproduction: for each model (packet /
// circuit, paths given / not given) it reports the proven approximation
// guarantee of the paper and the empirical ratio ALG / lower-bound measured
// on random instances. The empirical ratio must never exceed the proven
// bound for the schedules this repository produces (and is far below it in
// practice, matching the paper's remark that the worst case "does not happen
// in practice").
type Table1Row struct {
	Model          string
	Paths          string
	ProvenBound    string
	MeanRatio      float64
	MaxRatio       float64
	Hardness       string
	TrialsMeasured int
}

// Table1Result is the reproduced table.
type Table1Result struct {
	Rows []Table1Row
}

// String renders the table in the layout of the paper's Table 1, extended
// with the measured columns, under a header line naming the measure.
func (t *Table1Result) String() string {
	s := "Table 1: approximation guarantees and measured ratios (ALG / certified lower bound)\n"
	s += fmt.Sprintf("%-14s %-10s %-22s %-12s %-12s %s\n",
		"Model", "Paths", "Approx. (proven)", "mean ratio", "max ratio", "Hardness")
	for _, r := range t.Rows {
		s += fmt.Sprintf("%-14s %-10s %-22s %-12.2f %-12.2f %s\n",
			r.Model, r.Paths, r.ProvenBound, r.MeanRatio, r.MaxRatio, r.Hardness)
	}
	return s
}

// Table1Config controls the size of the random instances used to measure
// empirical ratios.
type Table1Config struct {
	Trials     int
	Seed       int64
	NumCoflows int
	Width      int
}

// DefaultTable1Config keeps the instances small enough for the exact
// arc-flow LP.
func DefaultTable1Config() Table1Config {
	return Table1Config{Trials: 3, Seed: 7, NumCoflows: 3, Width: 3}
}

// table1Rows are the paper's four problem variants in its Table 1 order:
// their labels, and run, which draws one trial's instance from rng and
// returns it with its schedule's objective and certified lower bound. Row i's
// trial t is seeded Seed + 100·i + t.
var table1Rows = []struct {
	model, paths, proven, hardness string
	run                            func(cfg Table1Config, rng *rand.Rand) (*coflow.Instance, float64, float64, error)
}{
	// Ring topology, fixed shortest paths.
	{"Packet-based", "given", "O(1)", "APX-hard", func(cfg Table1Config, rng *rand.Rand) (*coflow.Instance, float64, float64, error) {
		inst, err := workload.GenerateWithPaths(graph.Ring(6, 1), workload.Config{
			NumCoflows: cfg.NumCoflows, Width: cfg.Width, PacketModel: true, MeanRelease: 1,
		}, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		r, err := (core.PacketGivenPaths{}).Schedule(inst)
		if err != nil {
			return nil, 0, 0, err
		}
		return inst, r.Objective(inst), r.LowerBound, nil
	}},
	// Grid topology.
	{"Packet-based", "not given", "O(1)", "APX-hard", func(cfg Table1Config, rng *rand.Rand) (*coflow.Instance, float64, float64, error) {
		inst, err := workload.Generate(graph.Grid(3, 3, 1), workload.Config{
			NumCoflows: cfg.NumCoflows, Width: cfg.Width, PacketModel: true, MeanRelease: 1,
		}, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		r, err := (core.PacketFreePaths{}).ScheduleASAP(inst, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		return inst, r.Objective(inst), r.LowerBound, nil
	}},
	// Small fat-tree, shortest paths.
	{"Circuit-based", "given", "O(1) (17.6)", "NP-hard", func(cfg Table1Config, rng *rand.Rand) (*coflow.Instance, float64, float64, error) {
		inst, err := workload.GenerateWithPaths(graph.FatTree(4, 1), workload.Config{
			NumCoflows: cfg.NumCoflows, Width: cfg.Width, MeanSize: 3, MeanRelease: 1,
		}, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		r, err := (core.CircuitGivenPaths{}).ScheduleASAP(inst)
		if err != nil {
			return nil, 0, 0, err
		}
		return inst, r.Objective(inst), r.LowerBound, nil
	}},
	// Triangle, exact arc-flow LP.
	{"Circuit-based", "not given", "O(log|E|/loglog|E|)", "Omega(log|E|/loglog|E|)", func(cfg Table1Config, rng *rand.Rand) (*coflow.Instance, float64, float64, error) {
		inst, err := workload.Generate(graph.Triangle(), workload.Config{
			NumCoflows: cfg.NumCoflows, Width: 2, MeanSize: 3, MeanRelease: 1,
		}, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		r, err := (core.CircuitFreePathsExact{}).ScheduleASAP(inst, rng)
		if err != nil {
			return nil, 0, 0, err
		}
		return inst, r.Objective(inst), r.LowerBound, nil
	}},
}

// Table1 measures empirical approximation ratios for all four problem
// variants of the paper on random instances, against the certified lower
// bound max(LP/(1+ε), combinatorial bound).
func Table1(cfg Table1Config) (*Table1Result, error) {
	res := &Table1Result{}
	for i, row := range table1Rows {
		s, err := trials(cfg.Trials, cfg.Seed+int64(100*i), 1, func(seed int64) ([]float64, error) {
			inst, objective, lb, err := row.run(cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return []float64{ratioAgainstBound(inst, objective, lb)}, nil
		})
		if err != nil {
			return nil, err
		}
		ratios := s[0]
		res.Rows = append(res.Rows, Table1Row{
			Model: row.model, Paths: row.paths, ProvenBound: row.proven,
			MeanRatio: stats.Mean(ratios), MaxRatio: slices.Max(ratios), Hardness: row.hardness,
			TrialsMeasured: len(ratios),
		})
	}
	return res, nil
}

// ratioAgainstBound is objective over the larger of lb and the trivial lower
// bound, and 1 where both are 0.
func ratioAgainstBound(inst *coflow.Instance, objective, lb float64) float64 {
	trivial := core.TrivialLowerBound(inst)
	if trivial > lb {
		lb = trivial
	}
	if lb <= 0 {
		return 1
	}
	return objective / lb
}
