package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diffKernel solves p with the production kernel and with the dense reference
// and fails unless both took the same path: same error and status, same pivot
// count, same final basis, and xB, values and objective equal under == (a term
// the kernel skips is an exact zero, so the two may differ only in the sign of
// a zero, which == ignores). It returns both final states.
func diffKernel(t testing.TB, name string, p *Problem) (*simplexState, *refState) {
	t.Helper()
	sf := buildStandardForm(p)
	o := (*Options)(nil).withDefaults(sf.m, sf.n)
	st, ref := newSimplexState(sf, o.Tolerance), newRefState(sf, o.Tolerance)
	got, gotErr := st.solve(o)
	want, wantErr := ref.solve(o)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if got.Status != want.Status || got.Iterations != want.Iterations {
		t.Fatalf("%s: status %v after %d pivots, reference %v after %d",
			name, got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if !slices.Equal(st.basis, ref.basis) {
		t.Fatalf("%s: final basis differs\n got %v\nwant %v", name, st.basis, ref.basis)
	}
	if !slices.Equal(st.xB, ref.xB) {
		t.Fatalf("%s: final xB differs\n got %v\nwant %v", name, st.xB, ref.xB)
	}
	if !slices.Equal(got.values, want.values) || got.Objective != want.Objective {
		t.Fatalf("%s: solution differs: objective %v, reference %v", name, got.Objective, want.Objective)
	}
	checkUntouchedIdentity(t, name, st)
	return st, ref
}

// checkUntouchedIdentity asserts the kernel's invariant: touched holds no
// duplicates, agrees with isTouched, and every column outside it is e_k bit
// for bit (not merely ==: no negative zero).
func checkUntouchedIdentity(t testing.TB, name string, st *simplexState) {
	t.Helper()
	seen := make([]bool, st.sf.m)
	for _, k := range st.touched {
		if seen[k] {
			t.Fatalf("%s: column %d is in touched twice", name, k)
		}
		seen[k] = true
	}
	if !slices.Equal(seen, st.isTouched) {
		t.Fatalf("%s: isTouched disagrees with touched %v", name, st.touched)
	}
	one := math.Float64bits(1)
	for k, in := range seen {
		if in {
			continue
		}
		for i, row := range st.binv {
			want := uint64(0)
			if i == k {
				want = one
			}
			if got := math.Float64bits(row[k]); got != want {
				t.Fatalf("%s: untouched column %d, row %d holds %v (bits %#x), not e_%d",
					name, k, i, row[k], got, k)
			}
		}
	}
}

// intervalShapedLP builds an LP with the shape of the paper's interval-indexed
// relaxations: per flow a completion variable, fractions x[path][interval] in
// [0,1] (finite upper bounds become LE rows), an EQ "deliver" row (artificial,
// phase 1), a GE completion row, and for every other flow an EQ row
// -sum_t x[last path][t] = 0 that closes its last path: no column prices
// favourably into that row in phase 1, so its artificial is still basic (at
// zero) afterwards and driveOutArtificials has to replace it, on a negative
// pivot element. Then one LE capacity row per edge and interval, most of which
// never bind. An edge's intervals together can carry every flow, so the LP is
// feasible.
func intervalShapedLP(rng *rand.Rand, flows, paths, edges int) *Problem {
	intervals := 1
	for 1<<(intervals-1) < 4*flows {
		intervals++
	}
	p := NewProblem(Minimize)
	load := make([][]Term, edges*intervals)
	for f := 0; f < flows; f++ {
		size := 1 + float64(rng.Intn(4))
		c := p.AddVariable("", 0, Inf, 1+float64(rng.Intn(3)))
		deliver := make([]Term, 0, paths*intervals)
		finish := []Term{{c, 1}}
		var closed []Term
		for q := 0; q < paths; q++ {
			route := rng.Perm(edges)[:2+rng.Intn(2)]
			start := 0.0
			for iv := 0; iv < intervals; iv++ {
				x := p.AddVariable("", 0, 1, 0)
				deliver = append(deliver, Term{x, 1})
				finish = append(finish, Term{x, -start})
				if q == paths-1 && q > 0 && f%2 == 0 {
					closed = append(closed, Term{x, -1})
				}
				for _, e := range route {
					load[e*intervals+iv] = append(load[e*intervals+iv], Term{x, size})
				}
				start = float64(int(1) << iv)
			}
		}
		p.AddConstraint("", EQ, 1, deliver...)
		p.AddConstraint("", GE, 0, finish...)
		if closed != nil {
			p.AddConstraint("", EQ, 0, closed...)
		}
	}
	for e := 0; e < edges; e++ {
		length := 1.0
		for iv := 0; iv < intervals; iv++ {
			p.AddConstraint("", LE, length, load[e*intervals+iv]...)
			if iv > 0 {
				length *= 2
			}
		}
	}
	return p
}

// degenerateLP maximizes sum x over the chain x_1 <= x_2 <= ... <= x_n <= 1
// plus extra two-variable rows through the origin that the ray (1,...,1)
// satisfies: every row but the last is tight at the starting vertex, each
// entering column is blocked at step zero by the next link of the chain, and
// the run of degenerate pivots outlasts degenerateSwitch.
func degenerateLP(rng *rand.Rand, n, extra int) *Problem {
	p := NewProblem(Maximize)
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = p.AddVariable("", 0, Inf, 1)
	}
	for j := 0; j+1 < n; j++ {
		p.AddConstraint("", LE, 0, Term{vars[j], 1}, Term{vars[j+1], -1})
	}
	for i := 0; i < extra; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a < b {
			p.AddConstraint("", LE, 0, Term{vars[a], float64(1 + rng.Intn(2))}, Term{vars[b], -float64(2 + rng.Intn(2))})
		}
	}
	p.AddConstraint("", LE, 1, Term{vars[n-1], 1})
	return p
}

// denseCoverLP is the all-GE covering LP of the root BenchmarkLPSolverDense:
// every row starts on an artificial that phase 1 must pivot out, so every
// column of the inverse ends up touched.
func denseCoverLP(n, m int) *Problem {
	p := NewProblem(Minimize)
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = p.AddVariable("", 0, Inf, float64(j%7+1))
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{vars[j], float64((i*j)%5 + 1)}
		}
		p.AddConstraint("", GE, float64(10+i), terms...)
	}
	return p
}

// TestKernelMatchesReference is the differential test of the touched-column
// kernel against the retained dense one, on LP families chosen so that every
// part of the solve loop runs: both phases, driveOutArtificials, Bland's rule,
// a mid-solve refactorize, and the two extremes of the touched set.
func TestKernelMatchesReference(t *testing.T) {
	t.Run("property-generator", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			n, m := 2+rng.Intn(12), 1+rng.Intn(16)
			p, vars, _, _, c := randomFeasibleLP(rng, n, m)
			if trial%2 == 1 {
				// Minimizing c >= 0 often stops at the slack basis; the
				// negated objective has to walk (and may be unbounded, on
				// which the kernels must agree too).
				for j, v := range vars {
					p.SetObjective(v, -c[j])
				}
			}
			diffKernel(t, fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, m), p)
		}
	})
	t.Run("interval-shaped", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		drivenOut, untouched := 0, 0
		for trial := 0; trial < 12; trial++ {
			flows, paths, edges := 2+rng.Intn(5), 2+rng.Intn(2), 5+rng.Intn(6)
			st, ref := diffKernel(t, fmt.Sprintf("trial %d (%d flows, %d paths, %d edges)", trial, flows, paths, edges),
				intervalShapedLP(rng, flows, paths, edges))
			if ref.iters == 0 {
				t.Fatalf("trial %d: solved without a pivot", trial)
			}
			drivenOut += ref.drivenOut
			untouched += st.sf.m - len(st.touched)
		}
		if drivenOut == 0 {
			t.Error("no instance made driveOutArtificials pivot: the generator lost its zero-level artificials")
		}
		if untouched == 0 {
			t.Error("every column was touched on every instance: the generator is not slack-heavy")
		}
	})
	t.Run("degenerate-bland", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		bland := 0
		for trial := 0; trial < 8; trial++ {
			_, ref := diffKernel(t, fmt.Sprintf("trial %d", trial), degenerateLP(rng, 80+10*trial, 80))
			bland += ref.blandPivots
		}
		if bland == 0 {
			t.Errorf("no instance crossed degenerateSwitch=%d into Bland's rule", degenerateSwitch)
		}
	})
	t.Run("refactorize-mid-solve", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		st, ref := diffKernel(t, "chain of 300", degenerateLP(rng, 300, 0))
		if ref.refactors == 0 {
			t.Errorf("chain solved in %d pivots without reaching refactorEvery=%d", ref.iters, refactorEvery)
		}
		t.Logf("chain: %d pivots, %d refactorizations, %d of %d columns touched", ref.iters, ref.refactors, len(st.touched), st.sf.m)
		st, ref = diffKernel(t, "interval-shaped, 24 flows", intervalShapedLP(rng, 24, 3, 12))
		if ref.refactors == 0 {
			t.Errorf("interval-shaped LP solved in %d pivots without reaching refactorEvery=%d", ref.iters, refactorEvery)
		}
		if len(st.touched) == st.sf.m {
			t.Error("interval-shaped LP touched every column: refactorize's rebuild of the set went untested")
		}
		t.Logf("interval-shaped: %d pivots, %d refactorizations, %d of %d columns touched", ref.iters, ref.refactors, len(st.touched), st.sf.m)
	})
	t.Run("dense-all-touched", func(t *testing.T) {
		st, _ := diffKernel(t, "cover 60x40", denseCoverLP(60, 40))
		if len(st.touched) != st.sf.m {
			t.Errorf("touched %d of %d columns, want all", len(st.touched), st.sf.m)
		}
	})
}

// TestUntouchedColumnsAreIdentity checks the invariant the kernel rests on
// where diffKernel does not look: on a state stopped mid-solve, and after a
// direct refactorize() of that state, which must rebuild the set from the
// recomputed inverse (dropping columns that came back as e_k, keeping the
// rest) and leave the solve able to finish exactly as the reference does from
// the same point.
func TestUntouchedColumnsAreIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		sf := buildStandardForm(intervalShapedLP(rng, 4+rng.Intn(3), 2, 6+rng.Intn(4)))
		o := (*Options)(nil).withDefaults(sf.m, sf.n)
		st, ref := newSimplexState(sf, o.Tolerance), newRefState(sf, o.Tolerance)
		name := fmt.Sprintf("trial %d (m=%d)", trial, sf.m)

		// Phase 1 cut short after a few pivots: a mid-solve state.
		phase1 := make([]float64, sf.n)
		for j := sf.artStart; j < sf.n; j++ {
			phase1[j] = 1
		}
		stop := 3 + trial
		st.runPhase(phase1, sf.n, stop)
		ref.runPhase(phase1, sf.n, stop)
		if st.iters != stop || ref.iters != stop {
			t.Fatalf("%s: phase 1 ended after %d/%d pivots, before the cut at %d", name, st.iters, ref.iters, stop)
		}
		checkUntouchedIdentity(t, name+" mid-solve", st)
		if len(st.touched) == 0 || len(st.touched) == sf.m {
			t.Fatalf("%s: %d of %d columns touched mid-solve, want some but not all", name, len(st.touched), sf.m)
		}

		if err := st.refactorize(); err != nil {
			t.Fatalf("%s: refactorize: %v", name, err)
		}
		if err := ref.refactorize(); err != nil {
			t.Fatalf("%s: reference refactorize: %v", name, err)
		}
		checkUntouchedIdentity(t, name+" after refactorize", st)
		for i := range st.binv {
			if !slices.Equal(st.binv[i], ref.binv[i]) {
				t.Fatalf("%s: row %d of the refactorized inverse differs from the reference", name, i)
			}
		}

		st.iters, ref.iters = 0, 0
		got, gotErr := st.solve(o)
		want, wantErr := ref.solve(o)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: resumed solve: %v, reference %v", name, gotErr, wantErr)
		}
		if got.Iterations != want.Iterations || got.Objective != want.Objective ||
			!slices.Equal(st.basis, ref.basis) || !slices.Equal(st.xB, ref.xB) {
			t.Fatalf("%s: resumed solve diverged: %d pivots objective %v, reference %d pivots objective %v",
				name, got.Iterations, got.Objective, want.Iterations, want.Objective)
		}
		checkUntouchedIdentity(t, name+" after resumed solve", st)
	}
}

// fuzzLP decodes a sparse LP from the fuzzer's arguments: mixed LE/GE/EQ rows
// whose right-hand sides sit near the row's value at a known nonnegative point
// (so inputs are feasible, infeasible or unbounded: the kernels must agree on
// failures too), small integer coefficients to provoke ties and degeneracy,
// and finite upper bounds on every third variable.
func fuzzLP(seed int64, n, m, density uint8) *Problem {
	rng := rand.New(rand.NewSource(seed))
	nv, nc := 1+int(n)%24, 1+int(m)%32
	fill := 1 + int(density)%8 // a term is present with probability fill/8
	p := NewProblem(Minimize)
	vars := make([]Var, nv)
	x0 := make([]float64, nv)
	for j := range vars {
		ub := Inf
		if j%3 == 2 {
			ub = float64(1 + rng.Intn(6))
		}
		vars[j] = p.AddVariable("", 0, ub, float64(rng.Intn(9)-2))
		x0[j] = float64(rng.Intn(3))
		if x0[j] > ub {
			x0[j] = ub
		}
	}
	for i := 0; i < nc; i++ {
		var terms []Term
		lhs := 0.0
		for j := range vars {
			if rng.Intn(8) < fill {
				c := float64(rng.Intn(9) - 3)
				terms = append(terms, Term{vars[j], c})
				lhs += c * x0[j]
			}
		}
		switch rng.Intn(4) {
		case 0:
			p.AddConstraint("", EQ, lhs, terms...)
		case 1:
			p.AddConstraint("", GE, lhs+float64(rng.Intn(4)-2), terms...)
		default:
			p.AddConstraint("", LE, lhs+float64(rng.Intn(4)-1), terms...)
		}
	}
	return p
}

// FuzzSimplexKernel diffs the touched-column kernel against the dense
// reference on LPs decoded from (seed, n, m, density). The committed corpus
// under testdata/fuzz/FuzzSimplexKernel runs as part of the unit tests.
func FuzzSimplexKernel(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(3))
	f.Add(int64(2), uint8(23), uint8(31), uint8(0))
	f.Add(int64(3), uint8(12), uint8(20), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, m, density uint8) {
		diffKernel(t, "fuzz", fuzzLP(seed, n, m, density))
	})
}

// TestFuzzLPOutcomes keeps the fuzz decoder honest: over a sweep of its
// argument space it must produce optimal, infeasible and unbounded LPs, or
// the fuzzer only ever walks one exit of the solve loop.
func TestFuzzLPOutcomes(t *testing.T) {
	seen := map[Status]int{}
	for seed := int64(0); seed < 150; seed++ {
		p := fuzzLP(seed, uint8(seed*7), uint8(seed*5), uint8(seed))
		diffKernel(t, fmt.Sprintf("seed %d", seed), p)
		sol, _ := p.Solve(nil)
		seen[sol.Status]++
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[s] == 0 {
			t.Errorf("no %v LP in the sweep: %v", s, seen)
		}
	}
}
