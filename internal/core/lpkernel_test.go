package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/lp"
	"coflowsched/internal/workload"
)

// fig3Instance is instance i of the benchmark's offline-fig3 workload at
// --seed 1, generated as bench/offline.go does: 4 coflows x width 4 on
// FatTree(4), MeanSize 4, MeanRelease 2, seeded 1*1_000_003+i. It returns the
// seed too (the benchmark seeds the scheduler's rng with seed+1).
func fig3Instance(tb testing.TB, g *graph.Graph, i int) (*coflow.Instance, int64) {
	tb.Helper()
	seed := int64(1*1_000_003 + i)
	inst, err := workload.Generate(g, workload.Config{
		NumCoflows: 4, Width: 4, MeanSize: 4, MeanRelease: 2}, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return inst, seed
}

// TestFig3PivotsPinned pins the simplex's exact path on the benchmark's
// offline-fig3 workload: its 64 instances scheduled by the free-path LP over
// four candidate paths. The sums are what a traced benchmark run reports as
// core.lp_pivots and core.lower_bound_sum; a kernel change that alters one
// pivot (enter, leave or theta) on any of the 64 LPs moves them. Every LP's
// optimum must also pass lp.Certify.
//
// Re-pinned by the factored kernel, which keeps B^{-1} only for the
// rows whose basic column is not their own slack: 7 679 pivots to
// 876.2357098961672 became 7 750 to 876.2357098961708 (4.1e-15 relative), and
// each of the 64 LP objectives is within 1.5e-12 relative of the parent's.
// Every LP takes another path. On instance 0 a step length first differs in
// its last bit at pivot 58, and the path parts at pivot 64: x_c3.f2_p2_l2
// enters on both sides, and the ratio test's tie goes to cap_e2_l2 where it
// went to cap_e81_l2.
func TestFig3PivotsPinned(t *testing.T) {
	const (
		wantPivots = 7750
		wantLB     = 876.2357098961708
	)
	g := graph.FatTree(4, 1)
	pivots, lb := 0, 0.0
	for i := 0; i < 64; i++ {
		inst, _ := fig3Instance(t, g, i)
		m, err := solved(freePathBuild(inst))
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := lp.Certify(m.prob, m.sol); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
		_, bound, iters := m.evidence()
		pivots += iters
		lb += bound
	}
	if pivots != wantPivots {
		t.Errorf("LPIterations sum = %d, want %d", pivots, wantPivots)
	}
	if lb != wantLB {
		t.Errorf("LowerBound sum = %v, want %v", lb, wantLB)
	}
}

// freePath8x6Instance is the paper-scale instance of TestFreePath8x6Pinned: 8
// coflows x width 6, seed 1.
func freePath8x6Instance(tb testing.TB, g *graph.Graph) *coflow.Instance {
	tb.Helper()
	inst, err := workload.Generate(g, workload.Config{
		NumCoflows: 8, Width: 6, MeanSize: 4, MeanRelease: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// TestFreePath8x6Pinned pins the simplex's path on one paper-scale free-path
// LP: 8 coflows x width 6 over four candidate paths, long enough to
// refactorize six times, which no fig3 instance does. A rebuilt inverse or
// basic solution that differs in one bit from the Gauss-Jordan result moves
// the later pivots. Its optimum must pass lp.Certify.
//
// Re-pinned by the row presolve (PR 22), which takes m from 1 378 to 635: with
// every row the LP took 1 679 pivots to 41.67612003381232 (1.7e-15 relative).
// The two solves share their first 1 396 pivots bit for bit — through five
// refactorizations, although Gauss-Jordan's arithmetic depends on m — and part
// at pivot 1 397, a degenerate step (theta 0, x_c5.f1_p1_l2 leaving on both
// sides) where x_c2.f2_p3_l2 enters instead of its symmetric candidate
// x_c2.f2_p1_l2: the two reduced costs, equal but for rounding, compare the
// other way round.
//
// Re-pinned by the factored kernel and the ratio test's relative pivot
// floor: 1 653 pivots to 41.67612003381239 became 1 714 to
// 41.676120033812374 (3.6e-16 relative). The paths part at pivot 22, a tie in
// the ratio test at step 0.2: x_c0.f2_p0_l4 enters on both sides, and
// cap_e73_l2 leaves where cap_e10_l2 did.
func TestFreePath8x6Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("one 1 714-pivot LP, about 0.3 s")
	}
	const (
		wantPivots = 1714
		wantLB     = 41.676120033812374
	)
	m, err := solved(freePathBuild(freePath8x6Instance(t, graph.FatTree(4, 1))))
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Certify(m.prob, m.sol); err != nil {
		t.Error(err)
	}
	if _, lb, pivots := m.evidence(); pivots != wantPivots || lb != wantLB {
		t.Errorf("LPIterations = %d, LowerBound = %v; want %d, %v", pivots, lb, wantPivots, wantLB)
	}
}

// solveCase is one LP shape the simplex kernel sees, with the bytes and the
// allocations one Solve of it may make (0: no budget) and the solves the byte
// budget averages over.
type solveCase struct {
	name   string
	prob   *lp.Problem
	budget uint64
	allocs float64
	solves int
}

// solveCases builds the four shapes: the free-path LP of a fig3 instance (4
// coflows x width 4, four candidate paths: of its m = 342 rows most still keep
// their slack basic), a three-flow given-path LP of the size online.LPEpoch
// re-solves every epoch, the dense covering LP of the root
// BenchmarkLPSolverDense, where every row pivots and the kernel can skip
// nothing, and the paper-scale LP of TestFreePath8x6Pinned (m = 635, 1 714
// pivots), the one shape that refactorizes. The candidate-path LPs leave out
// the capacity rows that cannot bind. The byte budgets sit about 25 % above
// what a solve makes, with a factored kernel of T = 66, 11 and 299 rows:
// 228 128 bytes in 19 allocations, 10 592 in 15 and 1 880 912, each array at
// the size the solve reaches, with 32-bit row and column indexes and a slab
// that starts at stride 16 and widens by half. The given-path LP with every
// capacity row kept (m = 160 against 48) made 23 808 bytes (budget 29 KB).
// With 64-bit indexes and a slab that started at 32 and doubled they were
// 297 880, 34 688 and 3 195 296 bytes (budgets 375 KB, 40 KB and 4 MB), and
// the allocation budgets were set at 30 and 25 allocations. Storing the m-float column of the inverse for
// every row that had left the basis made the first two 320 KB in 100
// allocations and 36 KB in 41 and the 8x6 LP 41 MB in 4 150 allocations, most
// of it the m x 2m floats of six refactorizations; a row-major inverse with
// its standard form built through per-row and per-column slices 948 KB in
// 5 597 allocations and 89 KB in 768; a dense m x m inverse per solve, when
// the free-path LP still had its m = 986 rows, 8.45 MB and 256 KB. The 8x6
// budget is one solve's, about 0.2 s: one m x m array of floats more, 3.2 MB,
// breaks it.
func solveCases(tb testing.TB) []solveCase {
	tb.Helper()
	g := graph.FatTree(4, 1)
	inst, _ := fig3Instance(tb, g, 0)
	free, err := freePathBuild(inst)
	if err != nil {
		tb.Fatal(err)
	}
	paper, err := freePathBuild(freePath8x6Instance(tb, g))
	if err != nil {
		tb.Fatal(err)
	}
	small, err := workload.Generate(g, workload.Config{
		NumCoflows: 3, Width: 1, MeanSize: 4, MeanRelease: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	if err := small.AssignShortestPaths(); err != nil {
		tb.Fatal(err)
	}
	residual, err := CircuitGivenPaths{}.buildLP(small)
	if err != nil {
		tb.Fatal(err)
	}
	dense := lp.NewProblem()
	vars := make([]lp.Var, 60)
	for j := range vars {
		vars[j] = dense.AddVariable(float64(j%7 + 1))
	}
	for i := 0; i < 40; i++ {
		terms := make([]lp.Term, len(vars))
		for j := range terms {
			terms[j] = lp.Term{Var: vars[j], Coef: float64((i*j)%5 + 1)}
		}
		dense.AddConstraint(lp.GE, float64(10+i), terms...)
	}
	return []solveCase{
		{"freepath-4x4", free.prob, 280 << 10, 40, 10},
		{"residual-3flows", residual.prob, 13 << 10, 32, 10},
		{"dense-40x60", dense, 0, 0, 0},
		{"freepath-8x6", paper.prob, 2304 << 10, 0, 1},
	}
}

// bytesPerRun returns the bytes one call of f allocates, runtime TotalAlloc
// over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSolveByteBudget holds one Solve of the slack-heavy shapes to a byte
// budget (averaged over sc.solves solves), so that per-solve storage that
// scales with m x m, or a slab or array sized past what the solve reaches,
// cannot come back unseen.
func TestSolveByteBudget(t *testing.T) {
	for _, sc := range solveCases(t) {
		if sc.budget == 0 {
			continue
		}
		perSolve := bytesPerRun(sc.solves, func() {
			if _, err := sc.prob.Solve(); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
		})
		t.Logf("%s: %d bytes per solve, budget %d", sc.name, perSolve, sc.budget)
		if perSolve > sc.budget {
			t.Errorf("%s: one Solve allocates %d bytes, budget %d", sc.name, perSolve, sc.budget)
		}
	}
}

// TestSolveAllocBudget holds one Solve of the slack-heavy shapes to an
// allocation count, so that a slice per row or per column of the standard form
// or the inverse cannot come back unseen.
func TestSolveAllocBudget(t *testing.T) {
	for _, sc := range solveCases(t) {
		if sc.allocs == 0 {
			continue
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sc.prob.Solve(); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
		})
		t.Logf("%s: %v allocations per solve, budget %v", sc.name, allocs, sc.allocs)
		if allocs > sc.allocs {
			t.Errorf("%s: one Solve makes %v allocations, budget %v", sc.name, allocs, sc.allocs)
		}
	}
}

// BenchmarkSolve times lp.Problem.Solve alone (the LP is built outside the
// loop) on the shapes of solveCases, and reports pivots/op and kernel/op, the
// size T of the factored block at the end of the solve.
func BenchmarkSolve(b *testing.B) {
	for _, sc := range solveCases(b) {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			pivots, kernel := 0, 0
			for i := 0; i < b.N; i++ {
				sol, err := sc.prob.Solve()
				if err != nil {
					b.Fatal(err)
				}
				pivots += sol.Iterations
				kernel += sol.Kernel
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(kernel)/float64(b.N), "kernel/op")
		})
	}
}

// buildCase is one LP shape the builder sees, with the bytes and the
// allocations one build of it may make.
type buildCase struct {
	name   string
	build  func() (*intervalLP, error)
	budget uint64
	allocs float64
}

// buildCases are the two shapes the benchmark's LP workloads build: the
// free-path LP of solveCases (offline-fig3) and a given-path LP the size of an
// online-lp-k4 residual — 2 coflows, 4 flows, everything released; the
// stream's 1 198 decides see 1-4 coflows and 1-10 flows, 2 and 3-5 at the
// median. Both leave out the capacity rows that cannot bind. A build makes
// 100 872 bytes in 69 allocations and 13 176 in 45, every array of the problem
// made once at its final size, 24 bytes per row; the byte budgets sit about
// 25 % above. At 32 bytes a row the free-path LP made 106 008 bytes in 72
// (budget 130 KB), and the given-path LP, with every capacity row kept,
// 23 560 in 45 (budget 29 KB). Letting the problem's arrays and the capacity
// row index regrow as they filled made it 283 251 bytes in 123 allocations and
// 48 553 in 81 (allocation budgets 165 and 107). Gathering the capacity rows'
// terms in a map of per-interval slices, a slice per row's merged terms and
// one per interval's delivery variables made it 1 801 and 616, and one name
// per variable and row and one map per merged row on top 4 336 and 999.
func buildCases(tb testing.TB) []buildCase {
	tb.Helper()
	g := graph.FatTree(4, 1)
	free, _ := fig3Instance(tb, g, 0)
	residual, err := workload.Generate(g, workload.Config{
		NumCoflows: 2, Width: 2, MeanSize: 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	if err := residual.AssignShortestPaths(); err != nil {
		tb.Fatal(err)
	}
	return []buildCase{
		{"freepath-4x4", func() (*intervalLP, error) { return freePathBuild(free) }, 124 << 10, 90},
		{"residual-2x2", func() (*intervalLP, error) { return CircuitGivenPaths{}.buildLP(residual) }, 16 << 10, 56},
	}
}

// raceBuild is set in a -race build (race_test.go). There sync.Pool drops
// entries at random, so the count and the bytes of a build, whose validation
// searches the graph on pooled scratch, vary from run to run: 105-120
// allocations for freepath-4x4 over 12 runs.
var raceBuild bool

// TestBuildAllocBudget holds one build of each shape to an allocation count, so
// that a string per variable or row, a map per row or a slice per row's terms
// cannot come back unseen. A -race build only logs its count.
func TestBuildAllocBudget(t *testing.T) {
	for _, bc := range buildCases(t) {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := bc.build(); err != nil {
				t.Fatalf("%s: %v", bc.name, err)
			}
		})
		t.Logf("%s: %v allocations per build, budget %v", bc.name, allocs, bc.allocs)
		if allocs > bc.allocs && !raceBuild {
			t.Errorf("%s: one build makes %v allocations, budget %v", bc.name, allocs, bc.allocs)
		}
	}
}

// TestBuildByteBudget holds one build of each shape to a byte budget (averaged
// over 10 builds, after one that warms the path memo), so that an array of
// the model that regrows as it fills, or a row index sized past the rows
// kept, cannot come back unseen. A -race build only logs its count.
func TestBuildByteBudget(t *testing.T) {
	for _, bc := range buildCases(t) {
		build := func() {
			if _, err := bc.build(); err != nil {
				t.Fatalf("%s: %v", bc.name, err)
			}
		}
		build()
		perBuild := bytesPerRun(10, build)
		t.Logf("%s: %d bytes per build, budget %d", bc.name, perBuild, bc.budget)
		if perBuild > bc.budget && !raceBuild {
			t.Errorf("%s: one build allocates %d bytes, budget %d", bc.name, perBuild, bc.budget)
		}
	}
}

// BenchmarkBuild times the builders alone (validation, candidate paths from the
// warm memo, variables, rows; no solve) on the shapes of buildCases.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range buildCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// residualFuzzInstance decodes from the fuzzer's arguments a residual
// instance of the kind online.LPEpoch solves at every epoch: a Poisson stream
// of 1-8 coflows of width 1-4 on FatTree(4), cut at a time "now" inside it.
// Each coflow that has arrived by then keeps the unfinished part of each flow
// — a random fraction of its size; about one flow in five is done and left
// out — with its release shifted by -now and clamped at 0, and every flow is
// fixed on one of its four shortest paths.
func residualFuzzInstance(seed int64, coflows, width, shape uint8) (*coflow.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.FatTree(4, 1)
	stream, arrivals, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{
			NumCoflows:  1 + int(coflows)%8,
			Width:       1 + int(width)%4,
			MeanSize:    []float64{1, 4, 8}[int(shape)%3],
			MeanRelease: []float64{0, 2}[int(shape/3)%2],
			MeanWeight:  1,
		},
		Rate: []float64{0.5, 2, 4}[int(shape/6)%3],
	}, rng)
	if err != nil {
		return nil, err
	}
	now := arrivals[len(arrivals)-1] * float64(1+int(shape/18)%4) / 4
	inst := &coflow.Instance{Network: g}
	for c, cf := range stream.Coflows {
		if arrivals[c] > now {
			continue
		}
		rcf := coflow.Coflow{Name: cf.Name, Weight: cf.Weight}
		for _, f := range cf.Flows {
			if rng.Intn(5) == 0 {
				continue
			}
			paths := g.KShortestPathsCached(f.Source, f.Dest, 4)
			rcf.Flows = append(rcf.Flows, coflow.Flow{
				Source:  f.Source,
				Dest:    f.Dest,
				Size:    f.Size * (0.05 + 0.95*rng.Float64()),
				Release: max(0, f.Release-now),
				Path:    paths[rng.Intn(len(paths))],
			})
		}
		if len(rcf.Flows) > 0 {
			inst.Coflows = append(inst.Coflows, rcf)
		}
	}
	if len(inst.Coflows) == 0 {
		return nil, fmt.Errorf("no unfinished flow at time %v", now)
	}
	return inst, nil
}

// FuzzResidualLP solves the given-path LP of residual instances
// (residualFuzzInstance) with and without the capacity rows that can never
// bind (comparePresolve): the two must agree bit for bit, and lp.Certify must
// accept both optima. A solve that fails is a finding too: these are the LPs
// whose failures online.LPEpoch falls back from.
func FuzzResidualLP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(7), uint8(3), uint8(40))
	f.Add(int64(3), uint8(5), uint8(1), uint8(77))
	f.Fuzz(func(t *testing.T, seed int64, coflows, width, shape uint8) {
		inst, err := residualFuzzInstance(seed, coflows, width, shape)
		if err != nil {
			t.Skip(err)
		}
		comparePresolve(t, "residual", inst, CircuitGivenPaths{}.buildLP)
	})
}
