// Benchmarks that regenerate (at reduced, benchmark-friendly scale) every
// table and figure of the paper's evaluation, plus micro-benchmarks for the
// substrates the algorithms are built on. See EXPERIMENTS.md for the mapping
// between benchmarks and the paper's tables/figures, and cmd/coflowbench for
// full-size runs.
package main

import (
	"math/rand"
	"testing"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/experiments"
	"coflowsched/internal/graph"
	"coflowsched/internal/lp"
	"coflowsched/internal/packet"
	"coflowsched/internal/timeexp"
	"coflowsched/internal/workload"
)

// benchInstance draws a reproducible workload on a 16-server fat-tree.
func benchInstance(b *testing.B, coflows, width int) *coflow.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	inst, err := workload.Generate(graph.FatTree(4, 1), workload.Config{
		NumCoflows: coflows, Width: width, MeanSize: 4, MeanRelease: 2, MeanWeight: 1,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// --- Figure 1: the triangle example -----------------------------------------

// BenchmarkFigure1Triangle regenerates the paper's Figure 1 comparison (fair
// sharing vs coflow priority vs the LP-based schedule on the triangle
// network).
func BenchmarkFigure1Triangle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if !(res.LPBased < res.Priority && res.Priority < res.FairSharing) {
			b.Fatalf("figure 1 ordering violated: %+v", res)
		}
	}
}

// --- Figure 2: time-expanded graphs ------------------------------------------

// BenchmarkFigure2TimeExpandedRouting exercises the §3.2 substrate the
// paper's Figure 2 illustrates: building the time-expanded graph of a mesh
// and routing a batch of packets through it with earliest-arrival search.
func BenchmarkFigure2TimeExpandedRouting(b *testing.B) {
	g := graph.Grid(4, 4, 1)
	hosts := g.Hosts()
	te := timeexp.New(g, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occupied := map[[2]int]bool{}
		occ := func(e graph.EdgeID, t int) bool { return occupied[[2]int{int(e), t}] }
		for p := 0; p < 16; p++ {
			src := hosts[p%len(hosts)]
			dst := hosts[(p*7+5)%len(hosts)]
			if src == dst {
				continue
			}
			moves := te.EarliestArrival(src, dst, 0, occ)
			for _, m := range moves {
				occupied[[2]int{int(m.Edge), m.Time}] = true
			}
		}
	}
}

// --- Table 1: approximation ratios per model ---------------------------------

// BenchmarkTable1ApproximationRatios measures all four model variants
// (packet/circuit x given/free paths) against their certified lower bounds.
func BenchmarkTable1ApproximationRatios(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	cfg.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.MaxRatio > 17.6 {
				b.Fatalf("ratio above the proven constant: %+v", row)
			}
		}
	}
}

// --- Figure 3: total weighted completion time vs coflow width ----------------

func benchmarkFigure3Width(b *testing.B, width int) {
	cfg := experiments.DefaultConfig()
	cfg.Trials = 1
	g := graph.FatTree(cfg.FatK, 1)
	schedulers := cfg.Schedulers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		means, err := cfg.SweepPoint(g, cfg.NumCoflows, width, schedulers)
		if err != nil {
			b.Fatal(err)
		}
		if means[0] <= 0 {
			b.Fatal("LP-Based produced a zero objective")
		}
	}
}

// BenchmarkFigure3Width4 is one x-axis point of Figure 3 (width 4): all four
// schedulers on the same random instance.
func BenchmarkFigure3Width4(b *testing.B) { benchmarkFigure3Width(b, 4) }

// BenchmarkFigure3Width8 is the width-8 point of Figure 3.
func BenchmarkFigure3Width8(b *testing.B) { benchmarkFigure3Width(b, 8) }

// --- Figure 4: total weighted completion time vs number of coflows -----------

func benchmarkFigure4Coflows(b *testing.B, coflows int) {
	cfg := experiments.DefaultConfig()
	cfg.Trials = 1
	g := graph.FatTree(cfg.FatK, 1)
	schedulers := cfg.Schedulers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		means, err := cfg.SweepPoint(g, coflows, cfg.Width, schedulers)
		if err != nil {
			b.Fatal(err)
		}
		if means[0] <= 0 {
			b.Fatal("LP-Based produced a zero objective")
		}
	}
}

// BenchmarkFigure4Coflows4 is the 4-coflow point of Figure 4.
func BenchmarkFigure4Coflows4(b *testing.B) { benchmarkFigure4Coflows(b, 4) }

// BenchmarkFigure4Coflows8 is the 8-coflow point of Figure 4.
func BenchmarkFigure4Coflows8(b *testing.B) { benchmarkFigure4Coflows(b, 8) }

// --- Ablations ----------------------------------------------------------------

// BenchmarkAblationEpsilon compares LP sizes/solve times as the interval
// granularity ε shrinks (design choice (a) in DESIGN.md).
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{2, 1, 0.5} {
		b.Run(benchName("eps", eps), func(b *testing.B) {
			inst := benchInstance(b, 3, 3)
			sched := core.CircuitFreePaths{Opts: core.Options{Epsilon: eps, CandidatePaths: 2}}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.ScheduleASAP(inst, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCandidatePaths compares the restricted routing LP with 1,
// 2 and 4 candidate paths per flow (design choice (b)).
func BenchmarkAblationCandidatePaths(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(benchName("K", float64(k)), func(b *testing.B) {
			inst := benchInstance(b, 3, 3)
			sched := core.CircuitFreePaths{Opts: core.Options{CandidatePaths: k}}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.ScheduleASAP(inst, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRounding compares the practical ASAP mode against the
// paper's interval-placement rounding on identical instances (design choice
// (c)).
func BenchmarkAblationRounding(b *testing.B) {
	inst := benchInstance(b, 3, 3)
	sched := core.CircuitFreePaths{Opts: core.Options{CandidatePaths: 2}}
	b.Run("asap", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			if _, err := sched.ScheduleASAP(inst, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interval-placement", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			if _, err := sched.ScheduleProvable(inst, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate micro-benchmarks ----------------------------------------------

// BenchmarkLPSolveIntervalIndexed measures the simplex on a representative
// interval-indexed LP (the given-paths formulation).
func BenchmarkLPSolveIntervalIndexed(b *testing.B) {
	inst := benchInstance(b, 4, 4)
	if err := inst.AssignShortestPaths(); err != nil {
		b.Fatal(err)
	}
	sched := core.CircuitGivenPaths{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ScheduleASAP(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSolverDense measures the raw simplex on a dense synthetic LP.
func BenchmarkLPSolverDense(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem(lp.Minimize)
		const n, m = 60, 40
		vars := make([]lp.Var, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddVariable(0, lp.Inf, float64(j%7+1))
		}
		for i := 0; i < m; i++ {
			terms := make([]lp.Term, n)
			for j := 0; j < n; j++ {
				terms[j] = lp.Term{Var: vars[j], Coef: float64((i*j)%5 + 1)}
			}
			p.AddConstraint(lp.GE, float64(10+i), terms...)
		}
		return p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build().Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowDecomposition measures max-flow plus thickest-path
// decomposition on a fat-tree, the core of the §2.2 rounding.
func BenchmarkFlowDecomposition(b *testing.B) {
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val, flow := g.MaxFlow(src, dst)
		paths := g.DecomposeFlow(src, dst, flow)
		if graph.TotalAmount(paths) < val-1e-6 {
			b.Fatal("decomposition lost flow")
		}
	}
}

// BenchmarkFlowSimulator measures the event-driven flow-level simulator on a
// contended workload (the §4.1 substrate).
func BenchmarkFlowSimulator(b *testing.B) {
	inst := benchInstance(b, 8, 8)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (baselines.ScheduleOnly{}).Schedule(inst, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketListScheduling measures the §3.1 job-shop list scheduler.
func BenchmarkPacketListScheduling(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	inst, err := workload.Generate(graph.Grid(4, 4, 1), workload.Config{
		NumCoflows: 8, Width: 6, PacketModel: true, MeanRelease: 2,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	paths := map[coflow.FlowRef]graph.Path{}
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		paths[ref] = inst.Network.ShortestPath(f.Source, f.Dest)
	}
	order := inst.FlowRefs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.ListSchedule(inst, paths, order, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchName formats sub-benchmark labels without fmt noise in the hot path.
func benchName(prefix string, v float64) string {
	if v == float64(int(v)) {
		return prefix + "=" + itoa(int(v))
	}
	return prefix + "=0.5"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	digits := ""
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return digits
}
