package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

const eps = 1e-6

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  (classic example)
	// optimum x=2, y=6, obj=36.
	p := NewProblem(Maximize)
	x := p.AddVariable(0, Inf, 3)
	y := p.AddVariable(0, Inf, 5)
	p.AddConstraint(LE, 4, Term{x, 1})
	p.AddConstraint(LE, 12, Term{y, 2})
	p.AddConstraint(LE, 18, Term{x, 3}, Term{y, 2})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 36) {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if !almostEqual(sol.Value(x), 2) || !almostEqual(sol.Value(y), 6) {
		t.Errorf("x=%v y=%v, want 2, 6", sol.Value(x), sol.Value(y))
	}
}

func TestSimpleMinimizationWithGE(t *testing.T) {
	// min 2x + 3y  s.t.  x + y >= 4, x + 2y >= 6, x,y >= 0.
	// optimum at x=2, y=2, obj=10.
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 2)
	y := p.AddVariable(0, Inf, 3)
	p.AddConstraint(GE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(GE, 6, Term{x, 1}, Term{y, 2})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 10) {
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2, obj=5.
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 1)
	y := p.AddVariable(0, Inf, 1)
	p.AddConstraint(EQ, 5, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 1, Term{x, 1}, Term{y, -1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Value(x), 3) || !almostEqual(sol.Value(y), 2) {
		t.Errorf("x=%v y=%v, want 3, 2", sol.Value(x), sol.Value(y))
	}
	if !almostEqual(sol.Objective, 5) {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 1)
	p.AddConstraint(GE, 5, Term{x, 1})
	p.AddConstraint(LE, 3, Term{x, 1})
	sol, err := p.Solve()
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want Infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 0)
	y := p.AddVariable(0, Inf, 0)
	p.AddConstraint(EQ, 1, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 3, Term{x, 1}, Term{y, 1})
	_, err := p.Solve()
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(0, Inf, 1)
	y := p.AddVariable(0, Inf, 0)
	p.AddConstraint(GE, 1, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve()
	if err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want Unbounded", sol.Status)
	}
}

func TestVariableUpperBounds(t *testing.T) {
	// max x + y with x <= 3 (bound), y <= 2 (bound), x + y <= 4.
	p := NewProblem(Maximize)
	x := p.AddVariable(0, 3, 1)
	y := p.AddVariable(0, 2, 1)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 4) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
	if sol.Value(x) > 3+eps || sol.Value(y) > 2+eps {
		t.Errorf("bounds violated: x=%v y=%v", sol.Value(x), sol.Value(y))
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x + y with x >= 2, y >= 3 (bounds), x + y >= 7 -> obj 7.
	p := NewProblem(Minimize)
	x := p.AddVariable(2, Inf, 1)
	y := p.AddVariable(3, Inf, 1)
	p.AddConstraint(GE, 7, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 7) {
		t.Errorf("objective = %v, want 7", sol.Objective)
	}
	if sol.Value(x) < 2-eps || sol.Value(y) < 3-eps {
		t.Errorf("lower bounds violated: x=%v y=%v", sol.Value(x), sol.Value(y))
	}
}

func TestFixedVariableViaBounds(t *testing.T) {
	// A variable fixed by identical bounds must take exactly that value.
	p := NewProblem(Minimize)
	x := p.AddVariable(5, 5, 1)
	y := p.AddVariable(0, Inf, 1)
	p.AddConstraint(GE, 8, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Value(x), 5) {
		t.Errorf("x = %v, want 5", sol.Value(x))
	}
	if !almostEqual(sol.Objective, 8) {
		t.Errorf("objective = %v, want 8", sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3).
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 1)
	p.AddConstraint(LE, -3, Term{x, -1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Value(x), 3) {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classic degenerate instance (multiple constraints active at the
	// optimum). The solver must terminate and return the optimum.
	p := NewProblem(Maximize)
	x := p.AddVariable(0, Inf, 10)
	y := p.AddVariable(0, Inf, -57)
	z := p.AddVariable(0, Inf, -9)
	w := p.AddVariable(0, Inf, -24)
	p.AddConstraint(LE, 0, Term{x, 0.5}, Term{y, -5.5}, Term{z, -2.5}, Term{w, 9})
	p.AddConstraint(LE, 0, Term{x, 0.5}, Term{y, -1.5}, Term{z, -0.5}, Term{w, 1})
	p.AddConstraint(LE, 1, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 1) {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	// Pure feasibility problem: any feasible point is optimal with obj 0.
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 0)
	y := p.AddVariable(0, Inf, 0)
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 0) {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
	if !almostEqual(sol.Value(x)+sol.Value(y), 4) {
		t.Errorf("x+y = %v, want 4", sol.Value(x)+sol.Value(y))
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable(0, Inf, 1)
	// 1x + 2x <= 9  ->  x <= 3.
	p.AddConstraint(LE, 9, Term{x, 1}, Term{x, 2})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Value(x), 3) {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Linearly dependent equality rows must not break phase-1 cleanup.
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 1)
	y := p.AddVariable(0, Inf, 2)
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 8, Term{x, 2}, Term{y, 2})
	p.AddConstraint(EQ, 12, Term{x, 3}, Term{y, 3})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 4) { // x=4, y=0
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestEmptyObjectiveNoConstraints(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(0, Inf, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Value(x), 0) || !almostEqual(sol.Objective, 0) {
		t.Errorf("x=%v obj=%v, want 0, 0", sol.Value(x), sol.Objective)
	}
}

func TestMaximizeWithEqualityAndBounds(t *testing.T) {
	// Transportation-like LP.
	// max 4a + 3b s.t. a + b = 10, a <= 6, b <= 7 -> a=6, b=4, obj=36.
	p := NewProblem(Maximize)
	a := p.AddVariable(0, 6, 4)
	b := p.AddVariable(0, 7, 3)
	p.AddConstraint(EQ, 10, Term{a, 1}, Term{b, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 36) {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
}

// TestSolutionValueOutOfRange: Value answers 0 for anything that is not a
// variable of a solved problem, including the -1 that core keeps for the
// variables it never created (pre-release intervals).
func TestSolutionValueOutOfRange(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(2, Inf, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, tc := range []struct {
		name string
		sol  *Solution
		v    Var
		want float64
	}{
		{"nil solution", nil, x, 0},
		{"negative sentinel", sol, Var(-1), 0},
		{"in range", sol, x, 2},
		{"one past the end", sol, Var(1), 0},
		{"far past the end", sol, Var(99), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.sol.Value(tc.v); got != tc.want {
				t.Errorf("Value(%d) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// listNames names variables and rows from two lists.
type listNames struct{ vars, rows []string }

func (n listNames) VariableName(v Var) string     { return n.vars[v] }
func (n listNames) ConstraintName(row int) string { return n.rows[row] }

func TestProblemString(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable(0, 5, 2)
	y := p.AddVariable(0, Inf, 0)
	p.AddConstraint(LE, 3, Term{x, 1})
	p.AddConstraint(GE, 1, Term{y, 4}, Term{x, -1})
	// Names come from the problem's Names where it was given one, else from
	// the indices.
	const byIndex = "min 2*x0\n1*x0 <= 3   [r0]\n4*x1 + -1*x0 >= 1   [r1]\n0 <= x0 <= 5\n0 <= x1 <= +Inf\n"
	if got := p.String(); got != byIndex {
		t.Errorf("String() = %q, want %q", got, byIndex)
	}
	p.SetNames(listNames{vars: []string{"x", "y"}, rows: []string{"cap", "floor"}})
	const byName = "min 2*x\n1*x <= 3   [cap]\n4*y + -1*x >= 1   [floor]\n0 <= x <= 5\n0 <= y <= +Inf\n"
	if got := p.String(); got != byName {
		t.Errorf("String() = %q, want %q", got, byName)
	}
	if got := p.VariableName(y); got != "y" {
		t.Errorf("VariableName(y) = %q", got)
	}
	if got, want := NewProblem(Maximize).String(), "max 0\n"; got != want {
		t.Errorf("empty problem's String() = %q, want %q", got, want)
	}
}

// panicMessage runs f and returns what it panicked with ("" if it returned).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestAddConstraintPanicsNameTheOffender: a term on a variable the problem
// never issued is caught before mergeTerms indexes its stamp table with it,
// every modelling panic carries the row's and the variable's derived name, and
// leaves the rows, the term arena and String() as they were.
func TestAddConstraintPanicsNameTheOffender(t *testing.T) {
	newProblem := func() (*Problem, Var, Var) {
		p := NewProblem(Minimize)
		p.SetNames(listNames{vars: []string{"x", "y"}, rows: []string{"first", "second"}})
		x, y := p.AddVariable(0, Inf, 1), p.AddVariable(0, Inf, 1)
		p.AddConstraint(LE, 1, Term{x, 1})
		return p, x, y
	}
	for _, tc := range []struct {
		name  string
		terms func(x, y Var) []Term
		want  string
	}{
		{"past the end", func(x, y Var) []Term { return []Term{{x, 1}, {Var(2), 1}} },
			`lp: constraint "second" references unknown variable 2`},
		{"far past the end, alone", func(x, y Var) []Term { return []Term{{Var(1 << 30), 1}} },
			`lp: constraint "second" references unknown variable 1073741824`},
		{"negative", func(x, y Var) []Term { return []Term{{x, 1}, {Var(-1), 2}, {y, 1}} },
			`lp: constraint "second" references unknown variable -1`},
		{"NaN coefficient", func(x, y Var) []Term { return []Term{{x, 1}, {y, math.NaN()}} },
			`lp: constraint "second" has non-finite coefficient for y`},
		{"infinite after the merge", func(x, y Var) []Term { return []Term{{y, math.MaxFloat64}, {x, 1}, {y, math.MaxFloat64}} },
			`lp: constraint "second" has non-finite coefficient for y`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, x, y := newProblem()
			rows, terms, text := p.NumConstraints(), slices.Clone(p.terms), p.String()
			if got := panicMessage(func() { p.AddConstraint(LE, 1, tc.terms(x, y)...) }); got != tc.want {
				t.Errorf("panic %q, want %q", got, tc.want)
			}
			// The row is not half added: the arena the next row appends to ends
			// where it did.
			if p.NumConstraints() != rows || !slices.Equal(p.terms, terms) || p.String() != text {
				t.Errorf("the panic left %d rows, terms %v and\n%s\nwant %d rows, terms %v and\n%s", p.NumConstraints(), p.terms, p.String(), rows, terms, text)
			}
		})
	}
	// A zero coefficient is dropped before anything looks at its variable.
	p, x, _ := newProblem()
	if got := panicMessage(func() { p.AddConstraint(LE, 1, Term{x, 1}, Term{Var(9), 0}) }); got != "" {
		t.Errorf("zero-coefficient term on an unknown variable panicked: %s", got)
	}
	// Without a Names the labels are the indices.
	q := NewProblem(Minimize)
	q.AddVariable(0, 1, 0)
	if got, want := panicMessage(func() { q.AddConstraint(LE, math.NaN()) }), `lp: NaN rhs in constraint "r0"`; got != want {
		t.Errorf("panic %q, want %q", got, want)
	}
	if got, want := panicMessage(func() { q.AddVariable(2, 1, 0) }), `lp: variable "x1" has lb 2 > ub 1`; got != want {
		t.Errorf("panic %q, want %q", got, want)
	}
}

// TestSolutionValuesNilSafe: Values on a nil solution is nil, as Value on one
// is 0, so a caller comparing two solves need not guard the failed one.
func TestSolutionValuesNilSafe(t *testing.T) {
	var sol *Solution
	if got := sol.Values(); got != nil {
		t.Errorf("nil solution's Values() = %v, want nil", got)
	}
	p := NewProblem(Minimize)
	x := p.AddVariable(2, 5, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	vals := sol.Values()
	if len(vals) != 1 || vals[0] != 2 {
		t.Fatalf("Values() = %v, want [2]", vals)
	}
	vals[0] = 9 // a copy: the solution keeps its own
	if sol.Value(x) != 2 {
		t.Errorf("writing to Values()' result changed the solution: %v", sol.Value(x))
	}
}

func TestAddVariablePanics(t *testing.T) {
	cases := []struct {
		name   string
		lb, ub float64
	}{
		{"lb>ub", 3, 1},
		{"nan", math.NaN(), 1},
		{"neginf lb", math.Inf(-1), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %s", tc.name)
				}
			}()
			p := NewProblem(Minimize)
			p.AddVariable(tc.lb, tc.ub, 0)
		})
	}
}

func TestAddConstraintUnknownVariablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for unknown variable")
		}
	}()
	p := NewProblem(Minimize)
	p.AddConstraint(LE, 1, Term{Var(7), 1})
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(Maximize)
	vars := make([]Var, 30)
	for i := range vars {
		vars[i] = p.AddVariable(0, Inf, float64(i+1))
	}
	for i := 0; i < 30; i++ {
		terms := make([]Term, 0, len(vars))
		for j, v := range vars {
			terms = append(terms, Term{v, float64((i*j)%7 + 1)})
		}
		p.AddConstraint(LE, float64(10+i), terms...)
	}
	sol, err := newSimplexState(buildStandardForm(p)).solve(1)
	if err != ErrIterationLimit {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
	if sol.Status != IterationLimit {
		t.Errorf("status = %v, want IterationLimit", sol.Status)
	}
}

func TestLargeDiet(t *testing.T) {
	// Stigler-diet-like random-ish LP with known structure: covering LP
	// min sum x_j s.t. for each of 20 requirements, sum_j a_ij x_j >= r_i.
	// We verify feasibility of the reported solution and optimality against
	// a brute-force-verified dual bound (weak duality check).
	p := NewProblem(Minimize)
	const nFoods = 15
	const nReqs = 20
	vars := make([]Var, nFoods)
	for j := range vars {
		vars[j] = p.AddVariable(0, Inf, 1)
	}
	a := make([][]float64, nReqs)
	r := make([]float64, nReqs)
	for i := 0; i < nReqs; i++ {
		a[i] = make([]float64, nFoods)
		terms := make([]Term, 0, nFoods)
		for j := 0; j < nFoods; j++ {
			v := float64((i*7+j*13)%5) + 1 // 1..5, deterministic
			a[i][j] = v
			terms = append(terms, Term{vars[j], v})
		}
		r[i] = float64(i%4+1) * 3
		p.AddConstraint(GE, r[i], terms...)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Feasibility of returned point.
	for i := 0; i < nReqs; i++ {
		lhs := 0.0
		for j := 0; j < nFoods; j++ {
			lhs += a[i][j] * sol.Value(vars[j])
		}
		if lhs < r[i]-1e-6 {
			t.Errorf("constraint %d violated: %v < %v", i, lhs, r[i])
		}
	}
	// The objective must be at least max_i r_i / max_j a_ij (a trivial lower
	// bound) and at most sum_i r_i (trivial upper bound by scaling).
	if sol.Objective <= 0 {
		t.Errorf("objective = %v, want > 0", sol.Objective)
	}
}

// checkMergeTerms adds rows to one problem of nv variables, in order — the
// stamp table is the problem's, so what one row leaves in it is the next row's
// starting point — and wants every stored row to be referenceMergeTerms' of
// its input: the same terms in the same order, coefficients under ==.
func checkMergeTerms(t testing.TB, nv int, rows [][]Term) {
	t.Helper()
	p := NewProblem(Minimize)
	for j := 0; j < nv; j++ {
		p.AddVariable(0, Inf, 0)
	}
	for i, row := range rows {
		want := referenceMergeTerms(row)
		got := p.rowTerms(p.AddConstraint(LE, 1, row...))
		if len(got) != len(want) {
			t.Fatalf("row %d %v: merged to %v, want %v", i, row, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("row %d %v: merged to %v, want %v", i, row, got, want)
			}
		}
	}
}

// TestMergeTermsMatchesReference: random rows over few variables, so most
// carry duplicates; a third of the coefficients are zero and the rest small
// tenths, so sums cancel exactly now and then and otherwise depend on the
// order they are taken in.
func TestMergeTermsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	merged, cancelled := 0, 0
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(6)
		rows := make([][]Term, 1+rng.Intn(8))
		for i := range rows {
			rows[i] = make([]Term, rng.Intn(10))
			for k := range rows[i] {
				rows[i][k].Var = Var(rng.Intn(nv))
				if rng.Intn(3) > 0 {
					rows[i][k].Coef = 0.1 * float64(rng.Intn(7)-3)
				}
			}
			// Count what the row exercises: a duplicate among its nonzero terms,
			// and a variable whose coefficients cancel to exactly zero.
			nonzero, distinct := 0, map[Var]bool{}
			for _, term := range rows[i] {
				if term.Coef != 0 {
					nonzero++
					distinct[term.Var] = true
				}
			}
			if len(distinct) < nonzero {
				merged++
			}
			if len(referenceMergeTerms(rows[i])) < len(distinct) {
				cancelled++
			}
		}
		checkMergeTerms(t, nv, rows)
	}
	if merged < 100 || cancelled < 20 {
		t.Errorf("%d rows merged a duplicate, %d cancelled one to zero: the generator no longer reaches both", merged, cancelled)
	}
}

// FuzzMergeTerms decodes rows over eight variables from byte pairs (variable,
// coefficient in tenths as an int8; variable 0xff ends the row) and holds them
// to the map-based reference.
func FuzzMergeTerms(f *testing.F) {
	// The pre-assigned walk x -> y -> x -> y of core's TestRowPresolveCases:
	// capacity row (x -> y, ℓ) gets the flow's one variable twice, the only
	// duplicate the LP builders produce.
	f.Add([]byte{0, 15, 0, 15})
	// A duplicate that cancels between two that do not, then a row that reuses
	// the variables, then zeros only.
	f.Add([]byte{3, 7, 1, 2, 3, 0xf9, 1, 5, 0xff, 0, 1, 3, 4, 3, 4, 0xff, 0, 2, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := [][]Term{nil}
		for len(data) > 0 {
			if data[0] == 0xff {
				rows, data = append(rows, nil), data[1:]
				continue
			}
			if len(data) < 2 {
				break
			}
			last := &rows[len(rows)-1]
			*last = append(*last, Term{Var(data[0] % 8), 0.1 * float64(int8(data[1]))})
			data = data[2:]
		}
		checkMergeTerms(t, 8, rows)
	})
}
