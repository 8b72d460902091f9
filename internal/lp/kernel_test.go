package lp

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// diffKernel solves p with the production kernel and with the dense reference
// and fails unless both took the same path: same error and status, same pivot
// count, same final basis, and xB, values and objective equal under == (a term
// the kernel skips is an exact zero, so the two may differ only in the sign of
// a zero, which == ignores). On every iteration of the reference it also
// prices the reference's duals with the production kernel's row-wise price,
// which must give every nonbasic column the reference's column-wise reduced
// cost under ==. It returns both final states.
func diffKernel(t testing.TB, name string, p *Problem) (*simplexState, *refState) {
	t.Helper()
	sf := buildStandardForm(p)
	checkStandardForm(t, name, p, sf)
	o := (*Options)(nil).withDefaults(sf.m, sf.n)
	st, ref := newSimplexState(sf, o.Tolerance), newRefState(sf, o.Tolerance)
	pricer, iteration := newSimplexState(sf, o.Tolerance), 0
	ref.onPrice = func(cost, y []float64, excludeFrom int) {
		d := pricer.price(cost, y)
		for j := 0; j < excludeFrom; j++ {
			if ref.inB[j] {
				continue
			}
			var got float64
			if j < len(d) {
				got = d[j]
			} else {
				got = sf.unitCost(cost, y, j)
			}
			if want := ref.reducedCost(cost, y, j); got != want {
				t.Fatalf("%s: iteration %d prices column %d at %v, reference %v", name, iteration, j, got, want)
			}
		}
		iteration++
	}
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
	checkInverseMatchesDense(t, name, st, ref)
	return st, ref
}

// checkStandardForm requires sf to be referenceStandardForm's of p column by
// column, bit for bit: the same shape, each column's rows in the same order
// with the same values, and the same costs, right-hand sides, shifts and
// objective constant. The arena must hold nothing past its last column.
func checkStandardForm(t testing.TB, name string, p *Problem, sf *standardForm) {
	t.Helper()
	ref := referenceStandardForm(p)
	if sf.m != ref.m || sf.n != ref.n || sf.nOrig != ref.nOrig || sf.artStart != ref.artStart || sf.negate != ref.negate {
		t.Fatalf("%s: standard form m=%d n=%d nOrig=%d artStart=%d negate=%v, reference m=%d n=%d nOrig=%d artStart=%d negate=%v",
			name, sf.m, sf.n, sf.nOrig, sf.artStart, sf.negate, ref.m, ref.n, ref.nOrig, ref.artStart, ref.negate)
	}
	if len(sf.colStart) != sf.n+1 || len(sf.rows) != sf.colStart[sf.n] || len(sf.vals) != len(sf.rows) {
		t.Fatalf("%s: %d column starts for n=%d, an arena of %d rows and %d values", name, len(sf.colStart), sf.n, len(sf.rows), len(sf.vals))
	}
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for j := 0; j < sf.n; j++ {
		rows, vals := sf.col(j)
		if want := ref.cols[j]; !slices.Equal(rows, want.rows) || !same(vals, want.vals) {
			t.Fatalf("%s: column %d is rows %v values %v, reference rows %v values %v", name, j, rows, vals, want.rows, want.vals)
		}
	}
	if !same(sf.c, ref.c) || !same(sf.b, ref.b) || !same(sf.shift, ref.shift) || !same([]float64{sf.objConst}, []float64{ref.objConst}) {
		t.Fatalf("%s: costs, right-hand sides, shifts or objective constant differ from the reference\n got c=%v b=%v shift=%v const=%v\nwant c=%v b=%v shift=%v const=%v",
			name, sf.c, sf.b, sf.shift, sf.objConst, ref.c, ref.b, ref.shift, ref.objConst)
	}
	// The rows as pricing reads them: negated lists constraint rows in
	// ascending order, and a row with terms is in it exactly where its first
	// term's column holds the coefficient negated; an upper-bound row is the
	// last entry, a 1, of its variable's column.
	for k, i := range sf.negated {
		if i < 0 || i >= sf.nCons || k > 0 && i <= sf.negated[k-1] {
			t.Fatalf("%s: negated rows %v are not ascending constraint rows", name, sf.negated)
		}
	}
	for i := 0; i < sf.nCons; i++ {
		terms := p.rowTerms(i)
		if len(terms) == 0 {
			continue
		}
		rows, vals := sf.col(int(terms[0].Var))
		k, _ := slices.BinarySearch(rows, i)
		if _, listed := slices.BinarySearch(sf.negated, i); listed != (vals[k] != terms[0].Coef) {
			t.Fatalf("%s: row %d listed as negated %v, its first term %v in the arena %v", name, i, listed, terms[0].Coef, vals[k])
		}
	}
	if len(sf.ubVar) != sf.m-sf.nCons {
		t.Fatalf("%s: %d upper-bound variables for %d upper-bound rows", name, len(sf.ubVar), sf.m-sf.nCons)
	}
	for q, j := range sf.ubVar {
		rows, vals := sf.col(j)
		if last := len(rows) - 1; last < 0 || rows[last] != sf.nCons+q || vals[last] != 1 {
			t.Fatalf("%s: upper-bound row %d names column %d, whose entries are rows %v values %v", name, sf.nCons+q, j, rows, vals)
		}
	}
}

// checkCompactStore asserts the bookkeeping of the column store: touched holds
// no duplicates and is the inverse of slot, inv holds one m-float column per
// touched column, and no column sits in inv twice or in inv and spare both (a
// spare still in use would be cleared under a live column when touch takes
// it).
func checkCompactStore(t testing.TB, name string, st *simplexState) {
	t.Helper()
	m, nt := st.sf.m, len(st.touched)
	if len(st.inv) != nt {
		t.Fatalf("%s: %d stored columns for %d touched", name, len(st.inv), nt)
	}
	stored := 0
	for k, s := range st.slot {
		if s < 0 {
			continue
		}
		stored++
		if int(s) >= nt || st.touched[s] != k {
			t.Fatalf("%s: slot[%d] = %d disagrees with touched %v", name, k, s, st.touched)
		}
	}
	if stored != nt {
		t.Fatalf("%s: %d columns have a slot, touched lists %d: %v", name, stored, nt, st.touched)
	}
	owner := map[*float64]string{}
	for s, col := range append(append([][]float64(nil), st.inv...), st.spare...) {
		what := "a spare"
		if s < nt {
			what = fmt.Sprintf("column %d", st.touched[s])
		}
		if len(col) != m {
			t.Fatalf("%s: %s holds %d floats for m=%d", name, what, len(col), m)
		}
		if prev, ok := owner[&col[0]]; ok {
			t.Fatalf("%s: %s and %s share their storage", name, prev, what)
		}
		owner[&col[0]] = what
	}
}

// denseInverse materialises the m x m inverse the column store stands for:
// e_k for a column without a slot, the stored column for the rest.
func (st *simplexState) denseInverse() [][]float64 {
	m := st.sf.m
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
		dense[i][i] = 1
		for s, k := range st.touched {
			dense[i][k] = st.inv[s][i]
		}
	}
	return dense
}

// checkInverseMatchesDense requires the compact inverse to equal the
// reference's dense one row for row under ==. Where both are nonzero that is
// bit for bit; the sign of a zero can differ, because the reference keeps the
// -0 that scaling a row by a negative pivot leaves in a column the kernel does
// not store yet.
func checkInverseMatchesDense(t testing.TB, name string, st *simplexState, ref *refState) {
	t.Helper()
	checkCompactStore(t, name, st)
	for i, row := range st.denseInverse() {
		if !slices.Equal(row, ref.binv[i]) {
			t.Fatalf("%s: row %d of the inverse differs from the reference (%d of %d columns touched)\n got %v\nwant %v",
				name, i, len(st.touched), st.sf.m, row, ref.binv[i])
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
		c := p.AddVariable(0, Inf, 1+float64(rng.Intn(3)))
		deliver := make([]Term, 0, paths*intervals)
		finish := []Term{{c, 1}}
		var closed []Term
		for q := 0; q < paths; q++ {
			route := rng.Perm(edges)[:2+rng.Intn(2)]
			start := 0.0
			for iv := 0; iv < intervals; iv++ {
				x := p.AddVariable(0, 1, 0)
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
		p.AddConstraint(EQ, 1, deliver...)
		p.AddConstraint(GE, 0, finish...)
		if closed != nil {
			p.AddConstraint(EQ, 0, closed...)
		}
	}
	for e := 0; e < edges; e++ {
		length := 1.0
		for iv := 0; iv < intervals; iv++ {
			p.AddConstraint(LE, length, load[e*intervals+iv]...)
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
		vars[j] = p.AddVariable(0, Inf, 1)
	}
	for j := 0; j+1 < n; j++ {
		p.AddConstraint(LE, 0, Term{vars[j], 1}, Term{vars[j+1], -1})
	}
	for i := 0; i < extra; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a < b {
			p.AddConstraint(LE, 0, Term{vars[a], float64(1 + rng.Intn(2))}, Term{vars[b], -float64(2 + rng.Intn(2))})
		}
	}
	p.AddConstraint(LE, 1, Term{vars[n-1], 1})
	return p
}

// denseCoverLP is the all-GE covering LP of the root BenchmarkLPSolverDense:
// every row starts on an artificial that phase 1 must pivot out, so every
// column of the inverse ends up touched.
func denseCoverLP(n, m int) *Problem {
	p := NewProblem(Minimize)
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = p.AddVariable(0, Inf, float64(j%7+1))
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{vars[j], float64((i*j)%5 + 1)}
		}
		p.AddConstraint(GE, float64(10+i), terms...)
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

// TestCompactInverseMatchesDense checks the column store where diffKernel
// does not look, inside a solve: both kernels take one pivot at a time from
// the same start, and the materialised inverse must equal the reference's
// dense one after every pivot (so right after every column's first touch
// too), after a direct refactorize() of that mid-solve state, which rebuilds
// the store from the recomputed inverse, and after the solve resumed from
// there, which must end exactly where the reference's does. The cases are
// chosen by what the store goes through, and each asserts that it did.
func TestCompactInverseMatchesDense(t *testing.T) {
	cases := []struct {
		name       string
		p          *Problem
		steps      int  // pivots taken in lockstep before the direct refactorize
		touched    int  // columns those steps must have touched, at least
		allTouched bool // the solve must end with every column stored
		refactors  int  // refactorizations the resumed solve must reach on its own
		// freed is how many stored columns the direct refactorize must find
		// back at e_k, at least. It hands them to spare with their old entries
		// in, and the resumed solve must touch columns again from them.
		freed int
	}{
		{name: "interval-shaped", p: intervalShapedLP(rand.New(rand.NewSource(11)), 24, 3, 12), steps: 200, touched: 65, refactors: 1, freed: 9},
		{name: "degenerate-chain", p: degenerateLP(rand.New(rand.NewSource(11)), 400, 0), steps: 140, touched: 129, refactors: 1, freed: 1},
		{name: "cover-all-touched", p: denseCoverLP(60, 40), steps: 38, touched: 33, allTouched: true},
		{name: "refactorize-frees-columns", p: intervalShapedLP(rand.New(rand.NewSource(1)), 3, 2, 6), steps: 10, touched: 10, freed: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sf := buildStandardForm(tc.p)
			o := (*Options)(nil).withDefaults(sf.m, sf.n)
			st, ref := newSimplexState(sf, o.Tolerance), newRefState(sf, o.Tolerance)

			// Phase 1 where the LP has artificials, else phase 2.
			cost, excludeFrom := sf.c, sf.artStart
			if sf.artStart < sf.n {
				cost, excludeFrom = make([]float64, sf.n), sf.n
				for j := sf.artStart; j < sf.n; j++ {
					cost[j] = 1
				}
			}
			for step := 1; step <= tc.steps; step++ {
				touched := len(st.touched)
				st.runPhase(cost, excludeFrom, step)
				ref.runPhase(cost, excludeFrom, step)
				if st.iters != step || ref.iters != step {
					t.Fatalf("phase ended after %d/%d pivots, before the cut at %d", st.iters, ref.iters, tc.steps)
				}
				at := fmt.Sprintf("after pivot %d", step)
				if len(st.touched) != touched {
					at += fmt.Sprintf(" (column %d touched)", st.touched[len(st.touched)-1])
				}
				checkInverseMatchesDense(t, at, st, ref)
				if !slices.Equal(st.basis, ref.basis) || !slices.Equal(st.xB, ref.xB) {
					t.Fatalf("%s: basis or xB differs from the reference", at)
				}
			}
			if len(st.touched) < tc.touched {
				t.Fatalf("%d pivots touched %d of %d columns, want at least %d", tc.steps, len(st.touched), sf.m, tc.touched)
			}

			stored := len(st.touched)
			if err := st.refactorize(); err != nil {
				t.Fatalf("refactorize: %v", err)
			}
			if err := ref.refactorize(); err != nil {
				t.Fatalf("reference refactorize: %v", err)
			}
			checkInverseMatchesDense(t, "after refactorize", st, ref)
			if !slices.Equal(st.xB, ref.xB) {
				t.Fatalf("xB differs from the reference after refactorize\n got %v\nwant %v", st.xB, ref.xB)
			}
			freed := len(st.spare)
			if freed != stored-len(st.touched) {
				t.Fatalf("refactorize went from %d stored columns to %d and keeps %d spare", stored, len(st.touched), freed)
			}
			if freed < tc.freed {
				t.Fatalf("refactorize freed %d of %d stored columns, want at least %d", freed, stored, tc.freed)
			}

			st.iters, ref.iters = 0, 0
			got, gotErr := st.solve(o)
			want, wantErr := ref.solve(o)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("resumed solve: %v, reference %v", gotErr, wantErr)
			}
			if got.Iterations != want.Iterations || got.Objective != want.Objective ||
				!slices.Equal(st.basis, ref.basis) || !slices.Equal(st.xB, ref.xB) {
				t.Fatalf("resumed solve diverged: %d pivots objective %v, reference %d pivots objective %v",
					got.Iterations, got.Objective, want.Iterations, want.Objective)
			}
			checkInverseMatchesDense(t, "after resumed solve", st, ref)
			if freed > 0 && len(st.spare) >= freed {
				t.Errorf("the resumed solve took none of the %d spare columns", freed)
			}
			if ref.refactors < tc.refactors {
				t.Errorf("resumed solve took %d pivots and %d refactorizations, want at least %d", ref.iters, ref.refactors, tc.refactors)
			}
			if all := len(st.touched) == sf.m; all != tc.allTouched {
				t.Errorf("%d of %d columns touched at the end, all-touched want %v", len(st.touched), sf.m, tc.allTouched)
			}
			t.Logf("m=%d: %d+%d pivots, %d columns touched in lockstep, %d freed by refactorize, %d refactorizations, %d touched and %d spare at the end",
				sf.m, tc.steps, ref.iters, stored, freed, ref.refactors, len(st.touched), len(st.spare))
		})
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
		vars[j] = p.AddVariable(0, ub, float64(rng.Intn(9)-2))
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
			p.AddConstraint(EQ, lhs, terms...)
		case 1:
			p.AddConstraint(GE, lhs+float64(rng.Intn(4)-2), terms...)
		default:
			p.AddConstraint(LE, lhs+float64(rng.Intn(4)-1), terms...)
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

// TestFuzzCorpusReachesStorePaths keeps the committed corpus honest about the
// column store: a seed-growth-* input must touch more than 32 columns, a
// seed-all-touched-* input must end with every column stored. A change to
// fuzzLP's decoding would otherwise turn them into ordinary inputs unseen.
func TestFuzzCorpusReachesStorePaths(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSimplexKernel/seed-*")
	if err != nil {
		t.Fatal(err)
	}
	growth, allTouched := 0, 0
	for _, file := range files {
		wantGrowth := strings.Contains(file, "seed-growth-")
		wantAll := strings.Contains(file, "seed-all-touched-")
		if !wantGrowth && !wantAll {
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var seed int64
		var n, m, density uint8
		if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\nint64(%d)\nbyte('\\x%x')\nbyte('\\x%x')\nbyte('\\x%x')",
			&seed, &n, &m, &density); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		st, _ := diffKernel(t, file, fuzzLP(seed, n, m, density))
		if wantGrowth {
			growth++
			if len(st.touched) <= 32 {
				t.Errorf("%s: the solve ends with %d columns touched, not more than 32", file, len(st.touched))
			}
		}
		if wantAll {
			allTouched++
			if len(st.touched) != st.sf.m {
				t.Errorf("%s: the solve ends with %d of %d columns touched", file, len(st.touched), st.sf.m)
			}
		}
	}
	if growth == 0 || allTouched == 0 {
		t.Errorf("corpus has %d seed-growth-* and %d seed-all-touched-* inputs, want some of each", growth, allTouched)
	}
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
