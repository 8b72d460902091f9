// Package lp provides a self-contained linear-programming substrate used by
// the coflow scheduling algorithms.
//
// The package implements a model builder (variables with bounds, linear
// constraints, a linear objective) and a two-phase revised simplex solver
// with an explicit basis inverse, Dantzig pricing, a ratio test that ignores
// entries below tolerance·max(1, ‖w‖∞) and a Bland's-rule fallback for
// anti-cycling. The inverse is kept in block form: a row whose basic column
// is still its own slack or artificial contributes an identity row and column
// to the basis, so only the inverse of the block of the other rows, the
// kernel, is stored, T x T floats in one slab, and everything else is read
// from the basic columns' own entries (see simplexState). Every loop of the
// solve skips the exact zeros of its operands: pricing goes row by row over
// the rows whose dual is nonzero (simplexState.price), the eliminations of a
// pivot and of a refactorization run over the kernel's nonzero entries only.
// A problem keeps every row's terms in one arena and its standard form every
// column's entries in another, so a build and solve allocates in proportion
// to rows, columns, nonzeros and T², and nothing of it outlives the solve.
// Certify checks a solution against its duality certificate; the tests hold
// every solve to it. It is a pure-Go replacement for the commercial LP solver
// (CPLEX) used in the paper's evaluation: the scheduling algorithms only need
// an optimal vertex of the interval-indexed LPs, which this solver provides.
//
// The API is deliberately small:
//
//	p := lp.NewProblem(lp.Minimize)
//	x := p.AddVariable(0, lp.Inf, 2.0)
//	y := p.AddVariable(0, 10, 3.0)
//	p.AddConstraint(lp.GE, 4, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
//	sol, err := p.Solve()
//	_ = sol.Value(x)
//
// Variables carry lower and upper bounds; finite upper bounds are handled by
// the solver (internally as additional rows), so callers never need to add
// bound rows themselves.
//
// A Problem stores no names: variables and rows are x0, x1, … and r0, r1, …
// unless SetNames is given a Names that knows better, and either is asked only
// when String, VariableName or the panic of a modelling bug wants a text.
package lp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Inf is a convenience alias for +infinity, used for unbounded-above
// variables.
var Inf = math.Inf(1)

// Sense selects minimization or maximization of the objective.
type Sense int

const (
	// Minimize the objective function.
	Minimize Sense = iota
	// Maximize the objective function.
	Maximize
)

// Op is the relational operator of a constraint.
type Op int

const (
	// LE is a "less than or equal" (<=) constraint.
	LE Op = iota
	// GE is a "greater than or equal" (>=) constraint.
	GE
	// EQ is an equality (=) constraint.
	EQ
)

// String returns the usual mathematical symbol for the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Var identifies a variable within a Problem. Values are valid only for the
// Problem that created them.
type Var int

// Term is a single linear term Coef * Var.
type Term struct {
	Var  Var
	Coef float64
}

// variable is the internal record for a decision variable.
type variable struct {
	lb  float64
	ub  float64
	obj float64
}

// constraint is the internal record for a linear constraint: its merged terms
// are Problem.terms[off : off+n].
type constraint struct {
	op     Op
	rhs    float64
	off, n int
}

// Names derives the names of a problem's variables and rows, the one being
// added included (a panic names the offender), from whatever layout the
// problem's builder keeps.
type Names interface {
	VariableName(v Var) string
	ConstraintName(row int) string
}

// indexNames is the Names of a problem that was given none.
type indexNames struct{}

func (indexNames) VariableName(v Var) string     { return "x" + strconv.Itoa(int(v)) }
func (indexNames) ConstraintName(row int) string { return "r" + strconv.Itoa(row) }

// Problem is a linear program under construction. The zero value is not
// usable; create instances with NewProblem.
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
	terms []Term // every row's merged terms, row after row
	names Names
	// stamp[v] is stamped+1+k while mergeTerms is on a row that has v as its
	// k-th distinct variable, at most stamped otherwise: stamped grows by the
	// row's length per merge, so the table is never cleared.
	stamp   []int
	stamped int
}

// NewProblem returns an empty linear program with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense, names: indexNames{}}
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetNames gives the problem the source of its variables' and rows' names.
func (p *Problem) SetNames(n Names) { p.names = n }

// AddVariable adds a decision variable with the given bounds and objective
// coefficient and returns its handle. lb may be any finite value, ub may be
// lp.Inf. AddVariable panics if lb > ub or either bound is NaN, since that
// always indicates a modelling bug.
func (p *Problem) AddVariable(lb, ub, obj float64) Var {
	v := Var(len(p.vars))
	if math.IsNaN(lb) || math.IsNaN(ub) || math.IsNaN(obj) {
		panic(fmt.Sprintf("lp: NaN in variable %q (lb=%v ub=%v obj=%v)", p.VariableName(v), lb, ub, obj))
	}
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %q has lb %v > ub %v", p.VariableName(v), lb, ub))
	}
	if math.IsInf(lb, -1) {
		panic(fmt.Sprintf("lp: variable %q has -inf lower bound (not supported)", p.VariableName(v)))
	}
	p.vars = append(p.vars, variable{lb: lb, ub: ub, obj: obj})
	p.stamp = append(p.stamp, 0)
	return v
}

// SetObjective overrides the objective coefficient of an existing variable.
func (p *Problem) SetObjective(v Var, coef float64) {
	p.vars[v].obj = coef
}

// VariableName returns what the problem's Names calls v.
func (p *Problem) VariableName(v Var) string { return p.names.VariableName(v) }

// AddConstraint adds the constraint sum(terms) op rhs and returns its row
// index. Terms referring to the same variable are merged. Zero-coefficient
// terms are dropped. A panic leaves the problem as it was.
func (p *Problem) AddConstraint(op Op, rhs float64, terms ...Term) int {
	row := len(p.cons)
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: NaN rhs in constraint %q", p.names.ConstraintName(row)))
	}
	off := len(p.terms)
	p.mergeTerms(terms)
	for _, t := range p.terms[off:] {
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			p.terms = p.terms[:off]
			panic(fmt.Sprintf("lp: constraint %q has non-finite coefficient for %s", p.names.ConstraintName(row), p.VariableName(t.Var)))
		}
	}
	p.cons = append(p.cons, constraint{op: op, rhs: rhs, off: off, n: len(p.terms) - off})
	return row
}

// rowTerms returns row i's merged terms.
func (p *Problem) rowTerms(i int) []Term {
	c := p.cons[i]
	return p.terms[c.off : c.off+c.n]
}

// mergeTerms appends terms to p.terms with duplicate variables combined and
// zero coefficients dropped, preserving first-appearance order; a duplicate's
// coefficients are summed in the order they come. It finds a duplicate through
// p.stamp, so it panics on a variable the problem never issued before it would
// index the table with it, and takes back what it appended first.
func (p *Problem) mergeTerms(terms []Term) {
	off := len(p.terms)
	base := p.stamped + 1
	p.stamped += len(terms)
	merged := false
	for _, t := range terms {
		if t.Coef == 0 {
			continue
		}
		if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
			p.terms = p.terms[:off]
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", p.names.ConstraintName(len(p.cons)), t.Var))
		}
		if k := p.stamp[t.Var] - base; k >= 0 {
			p.terms[off+k].Coef += t.Coef
			merged = true
			continue
		}
		p.stamp[t.Var] = base + len(p.terms) - off
		p.terms = append(p.terms, t)
	}
	if !merged {
		return
	}
	// A merge may have produced exact zeros; drop them.
	filtered := p.terms[:off]
	for _, t := range p.terms[off:] {
		if t.Coef != 0 {
			filtered = append(filtered, t)
		}
	}
	p.terms = filtered
}

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterationLimit means the solver hit its iteration budget before
	// proving optimality.
	IterationLimit
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution holds the result of solving a Problem.
type Solution struct {
	// Status reports whether the solution is optimal.
	Status Status
	// Objective is the objective value in the caller's sense (already
	// negated back for maximization problems).
	Objective float64
	// Iterations is the total number of simplex pivots performed.
	Iterations int
	// Kernel is the size T of the block of the basis the solver factors when
	// the solve ends: the rows whose basic column is not their own slack or
	// artificial, or was not at some point since the last refactorization.
	Kernel int

	values []float64
	duals  []float64 // per constraint, at the final basis of an optimal solve; for Certify
}

// Value returns the value of variable v in the solution. It returns 0 for
// non-optimal solutions and for a v the problem never issued, such as the -1
// callers keep for a variable they did not create.
func (s *Solution) Value(v Var) float64 {
	if s == nil || v < 0 || int(v) >= len(s.values) {
		return 0
	}
	return s.values[v]
}

// Values returns a copy of all variable values indexed by Var, nil for a nil
// solution.
func (s *Solution) Values() []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// tolerance is the simplex's feasibility and optimality tolerance.
const tolerance = 1e-9

// iterationLimit bounds the pivots of one solve across both phases: 200 per
// row and column of the standard form, and at least 20 000.
func iterationLimit(m, n int) int { return max(200*(m+n), 20000) }

// Solve optimizes the problem and returns the solution. Solve returns an
// error (and a Solution with the corresponding Status) when the problem is
// infeasible, unbounded, or the iteration limit is exceeded.
func (p *Problem) Solve() (*Solution, error) {
	sf := buildStandardForm(p)
	return newSimplexState(sf).solve(iterationLimit(sf.m, sf.n))
}

// String renders the problem in a small LP-format-like text form, useful in
// tests and debugging.
func (p *Problem) String() string {
	var b strings.Builder
	var objective []Term
	for i, v := range p.vars {
		if v.obj != 0 {
			objective = append(objective, Term{Var(i), v.obj})
		}
	}
	head, obj := "min ", p.sum(objective)
	if p.sense == Maximize {
		head = "max "
	}
	if obj == "" {
		obj = "0"
	}
	b.WriteString(head + obj + "\n")
	for i, c := range p.cons {
		fmt.Fprintf(&b, "%s %s %g   [%s]\n", p.sum(p.rowTerms(i)), c.op, c.rhs, p.names.ConstraintName(i))
	}
	for i, v := range p.vars {
		fmt.Fprintf(&b, "%g <= %s <= %g\n", v.lb, p.VariableName(Var(i)), v.ub)
	}
	return b.String()
}

// sum renders terms as c*x + c*y.
func (p *Problem) sum(terms []Term) string {
	parts := make([]string, len(terms))
	for j, t := range terms {
		parts[j] = fmt.Sprintf("%g*%s", t.Coef, p.VariableName(t.Var))
	}
	return strings.Join(parts, " + ")
}
