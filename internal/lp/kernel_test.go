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

// solveChecked solves p with the production kernel and checks it on the way:
// after every pivot the factored inverse must be an inverse of the basis
// (checkInverse), and at the end an optimal solve must pass Certify, and the
// dense reference must end the same way: the same error and status, and an
// optimal objective equal to 1e-9 relative. The two may take different paths,
// since the kernel's arithmetic breaks a degenerate tie its own way. On every
// iteration of the reference it also prices the reference's duals with the
// production kernel's row-wise price, which must give every nonbasic column
// the reference's column-wise reduced cost under ==. It returns the final
// state.
func solveChecked(t testing.TB, name string, p *Problem) *simplexState {
	t.Helper()
	sf := buildStandardForm(p)
	checkStandardForm(t, name, p, sf)
	limit := iterationLimit(sf.m, sf.n)
	st, ref := newSimplexState(sf), newRefState(sf)
	st.onPivot = func() { checkInverse(t, fmt.Sprintf("%s: after pivot %d", name, st.iters+1), st) }
	pricer, iteration := newSimplexState(sf), 0
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
	got, gotErr := st.solve(limit)
	want, wantErr := ref.solve(limit)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Status != want.Status {
		t.Fatalf("%s: %v (%v) after %d pivots, reference %v (%v) after %d",
			name, got.Status, gotErr, got.Iterations, want.Status, wantErr, want.Iterations)
	}
	if got.Status == Optimal {
		if err := Certify(p, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !closeRel(got.Objective, want.Objective, 1e-9) {
			t.Fatalf("%s: objective %v, reference %v", name, got.Objective, want.Objective)
		}
	}
	if got.Kernel != len(st.kern) {
		t.Fatalf("%s: the solution reports a kernel of %d rows, the state holds %d", name, got.Kernel, len(st.kern))
	}
	return st
}

// closeRel reports whether a and b agree to tol relative to the larger.
func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
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

// checkInverse asserts the kernel's bookkeeping — kern and kidx invert each
// other, every trivial row's basic column is its own +1 unit column, the slab
// holds the kernel — and that the inverse the kernel stands for is one:
// ||B B^{-1} - I||_inf, the largest absolute row sum, at most 1e-9.
func checkInverse(t testing.TB, name string, st *simplexState) {
	t.Helper()
	sf, nt := st.sf, len(st.kern)
	kernel := 0
	for i, p := range st.kidx {
		if p >= 0 {
			kernel++
			if int(p) >= nt || st.kern[p] != i {
				t.Fatalf("%s: kidx[%d] = %d disagrees with kern %v", name, i, p, st.kern)
			}
			continue
		}
		if rows, vals := sf.col(st.basis[i]); len(rows) != 1 || rows[0] != i || vals[0] != 1 {
			t.Fatalf("%s: trivial row %d has basic column %d, rows %v values %v", name, i, st.basis[i], rows, vals)
		}
	}
	if kernel != nt || nt > st.stride || len(st.inv) != st.stride*st.stride {
		t.Fatalf("%s: %d rows have a kernel index, kern lists %d, stride %d, slab %d floats", name, kernel, nt, st.stride, len(st.inv))
	}
	if r := inverseResidual(st); r > 1e-9 {
		t.Fatalf("%s: ||B B^-1 - I|| = %v with a kernel of %d of %d rows", name, r, nt, sf.m)
	}
}

// inverseResidual returns ||B B^{-1} - I||_inf, B^{-1} as the kernel applies it.
// Column c of B^{-1} is ftran of e_c. For a trivial row c that is e_c exactly,
// and so is B's column c (checkInverse asserts it), so only the kernel's
// columns are computed.
func inverseResidual(st *simplexState) float64 {
	sf := st.sf
	rowSum, u := make([]float64, sf.m), make([]float64, sf.m)
	for _, c := range st.kern {
		w := st.ftran([]int{c}, []float64{1})
		clear(u)
		for k, wk := range w {
			if wk == 0 {
				continue
			}
			rows, vals := sf.col(st.basis[k])
			for n, r := range rows {
				u[r] += vals[n] * wk
			}
		}
		u[c]--
		for r, v := range u {
			rowSum[r] += math.Abs(v)
		}
	}
	return slices.Max(append(rowSum, 0))
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

// TestKernelMatchesReference holds the kernel to solveChecked on LP families
// chosen so that every part of the solve loop runs: both phases,
// driveOutArtificials, Bland's rule, a mid-solve refactorization, and the two
// extremes of the kernel, a few rows and every row.
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
			solveChecked(t, fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, m), p)
		}
	})
	t.Run("interval-shaped", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		drivenOut, trivial := 0, 0
		for trial := 0; trial < 12; trial++ {
			flows, paths, edges := 2+rng.Intn(5), 2+rng.Intn(2), 5+rng.Intn(6)
			st := solveChecked(t, fmt.Sprintf("trial %d (%d flows, %d paths, %d edges)", trial, flows, paths, edges),
				intervalShapedLP(rng, flows, paths, edges))
			if st.iters == 0 {
				t.Fatalf("trial %d: solved without a pivot", trial)
			}
			drivenOut += st.drivenOut
			trivial += st.sf.m - len(st.kern)
		}
		if drivenOut == 0 {
			t.Error("no instance made driveOutArtificials pivot: the generator lost its zero-level artificials")
		}
		if trivial == 0 {
			t.Error("every row joined the kernel on every instance: the generator is not slack-heavy")
		}
	})
	t.Run("degenerate-bland", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		bland := 0
		for trial := 0; trial < 8; trial++ {
			bland += solveChecked(t, fmt.Sprintf("trial %d", trial), degenerateLP(rng, 80+10*trial, 80)).blandPivots
		}
		if bland == 0 {
			t.Errorf("no instance crossed degenerateSwitch=%d into Bland's rule", degenerateSwitch)
		}
	})
	t.Run("refactorize-mid-solve", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		st := solveChecked(t, "chain of 300", degenerateLP(rng, 300, 0))
		if st.refactors == 0 {
			t.Errorf("chain solved in %d pivots without reaching refactorEvery=%d", st.iters, refactorEvery)
		}
		t.Logf("chain: %d pivots, %d refactorizations, a kernel of %d of %d rows", st.iters, st.refactors, len(st.kern), st.sf.m)
		st = solveChecked(t, "interval-shaped, 24 flows", intervalShapedLP(rng, 24, 3, 12))
		if st.refactors == 0 {
			t.Errorf("interval-shaped LP solved in %d pivots without reaching refactorEvery=%d", st.iters, refactorEvery)
		}
		if len(st.kern) == st.sf.m {
			t.Error("interval-shaped LP ends with every row in the kernel: factor's rebuild of it went untested")
		}
		t.Logf("interval-shaped: %d pivots, %d refactorizations, a kernel of %d of %d rows", st.iters, st.refactors, len(st.kern), st.sf.m)
	})
	t.Run("dense-all-touched", func(t *testing.T) {
		st := solveChecked(t, "cover 60x40", denseCoverLP(60, 40))
		if len(st.kern) != st.sf.m {
			t.Errorf("a kernel of %d of %d rows, want all", len(st.kern), st.sf.m)
		}
	})
}

// TestCompactInverseMatchesDense checks the kernel where solveChecked does not
// look, inside a solve: after a cut of pivots from the start (each followed by
// checkInverse), a direct factor() of that mid-solve state must leave an
// inverse that checkInverse accepts and the basic solution the pivots had
// updated to 1e-9, drop the rows whose own unit column is basic again, and
// the solve resumed from there must reach an optimum Certify accepts and the
// dense reference's objective. The cases are chosen by what the kernel goes
// through, and each asserts that it did.
func TestCompactInverseMatchesDense(t *testing.T) {
	cases := []struct {
		name      string
		p         *Problem
		steps     int  // pivots taken before the direct factor
		kernel    int  // rows those steps must have moved into the kernel, at least
		allKernel bool // the solve must end with every row in the kernel
		refactors int  // refactorizations the resumed solve must reach on its own
		// freed is how many kernel rows the direct factor must find back on
		// their own unit column, at least. The resumed solve must move rows
		// into the kernel again, into the slab they left.
		freed int
	}{
		{name: "interval-shaped", p: intervalShapedLP(rand.New(rand.NewSource(11)), 24, 3, 12), steps: 200, kernel: 65, refactors: 1, freed: 6},
		{name: "degenerate-chain", p: degenerateLP(rand.New(rand.NewSource(11)), 400, 0), steps: 140, kernel: 129, refactors: 1, freed: 1},
		{name: "cover-all-touched", p: denseCoverLP(60, 40), steps: 38, kernel: 33, allKernel: true},
		{name: "refactorize-frees-columns", p: intervalShapedLP(rand.New(rand.NewSource(1)), 3, 2, 6), steps: 10, kernel: 10, freed: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sf := buildStandardForm(tc.p)
			limit := iterationLimit(sf.m, sf.n)
			st := newSimplexState(sf)
			st.onPivot = func() { checkInverse(t, fmt.Sprintf("after pivot %d", st.iters+1), st) }

			// Phase 1 where the LP has artificials, else phase 2.
			cost, excludeFrom := sf.c, sf.artStart
			if sf.artStart < sf.n {
				cost, excludeFrom = make([]float64, sf.n), sf.n
				for j := sf.artStart; j < sf.n; j++ {
					cost[j] = 1
				}
			}
			st.runPhase(cost, excludeFrom, tc.steps)
			if st.iters != tc.steps {
				t.Fatalf("phase ended after %d pivots, before the cut at %d", st.iters, tc.steps)
			}
			kernel := len(st.kern)
			if kernel < tc.kernel {
				t.Fatalf("%d pivots moved %d of %d rows into the kernel, want at least %d", tc.steps, kernel, sf.m, tc.kernel)
			}

			xB := slices.Clone(st.xB)
			if err := st.factor(); err != nil {
				t.Fatalf("factor: %v", err)
			}
			checkInverse(t, "after factor", st)
			for i, x := range st.xB {
				if !closeRel(x, xB[i], 1e-9) {
					t.Fatalf("factor recomputes x_B[%d] = %v, the pivots had it at %v", i, x, xB[i])
				}
			}
			freed := kernel - len(st.kern)
			if freed < tc.freed {
				t.Fatalf("factor freed %d of %d kernel rows, want at least %d", freed, kernel, tc.freed)
			}

			st.iters = 0
			got, err := st.solve(limit)
			if err != nil {
				t.Fatalf("resumed solve: %v", err)
			}
			if err := Certify(tc.p, got); err != nil {
				t.Fatalf("resumed solve: %v", err)
			}
			want, err := newRefState(sf).solve(limit)
			if err != nil || !closeRel(got.Objective, want.Objective, 1e-9) {
				t.Fatalf("resumed solve ends at %v, reference %v (%v)", got.Objective, want.Objective, err)
			}
			if st.refactors < tc.refactors {
				t.Errorf("resumed solve took %d pivots and %d refactorizations, want at least %d", st.iters, st.refactors, tc.refactors)
			}
			if all := len(st.kern) == sf.m; all != tc.allKernel {
				t.Errorf("a kernel of %d of %d rows at the end, all want %v", len(st.kern), sf.m, tc.allKernel)
			}
			t.Logf("m=%d: %d+%d pivots, a kernel of %d rows at the cut, %d freed by factor, %d refactorizations, %d at the end (stride %d)",
				sf.m, tc.steps, st.iters, kernel, freed, st.refactors, len(st.kern), st.stride)
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

// FuzzSimplexKernel holds the kernel to solveChecked on LPs decoded from
// (seed, n, m, density). The committed corpus under
// testdata/fuzz/FuzzSimplexKernel runs as part of the unit tests.
func FuzzSimplexKernel(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(3))
	f.Add(int64(2), uint8(23), uint8(31), uint8(0))
	f.Add(int64(3), uint8(12), uint8(20), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, m, density uint8) {
		solveChecked(t, "fuzz", fuzzLP(seed, n, m, density))
	})
}

// TestFuzzCorpusReachesStorePaths keeps the committed corpus honest about the
// kernel: a seed-growth-* input must move more rows into it than the first
// slab holds (initialStride), a seed-all-touched-* input must end with every
// row in it. A change to fuzzLP's decoding would otherwise turn them into
// ordinary inputs unseen.
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
		st := solveChecked(t, file, fuzzLP(seed, n, m, density))
		if wantGrowth {
			growth++
			if st.stride <= initialStride {
				t.Errorf("%s: the solve ends with a kernel of %d rows, the slab never grew past %d", file, len(st.kern), initialStride)
			}
		}
		if wantAll {
			allTouched++
			if len(st.kern) != st.sf.m {
				t.Errorf("%s: the solve ends with a kernel of %d of %d rows", file, len(st.kern), st.sf.m)
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
		solveChecked(t, fmt.Sprintf("seed %d", seed), p)
		sol, _ := p.Solve()
		seen[sol.Status]++
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[s] == 0 {
			t.Errorf("no %v LP in the sweep: %v", s, seen)
		}
	}
}
