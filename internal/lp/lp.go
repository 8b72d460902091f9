// Package lp provides a self-contained linear-programming substrate used by
// the coflow scheduling algorithms.
//
// The package implements a model builder (variables with bounds, linear
// constraints, a linear objective) and a two-phase revised simplex solver
// with an explicit basis inverse, Dantzig pricing and a Bland's-rule fallback
// for anti-cycling. The inverse is kept compactly: only its touched columns,
// those whose row has left the basis at least once, are stored and worked on;
// the rest are still the identity's and take no memory (see
// simplexState.binv). It is a pure-Go replacement for the commercial LP solver
// (CPLEX) used in the paper's evaluation: the scheduling algorithms only need
// an optimal vertex of the interval-indexed LPs, which this solver provides.
//
// The API is deliberately small:
//
//	p := lp.NewProblem(lp.Minimize)
//	x := p.AddVariable("x", 0, lp.Inf, 2.0)
//	y := p.AddVariable("y", 0, 10, 3.0)
//	p.AddConstraint("c1", lp.GE, 4, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
//	sol, err := p.Solve(nil)
//	_ = sol.Value(x)
//
// Variables carry lower and upper bounds; finite upper bounds are handled by
// the solver (internally as additional rows), so callers never need to add
// bound rows themselves.
package lp

import (
	"fmt"
	"math"
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
	name string
	lb   float64
	ub   float64
	obj  float64
}

// constraint is the internal record for a linear constraint.
type constraint struct {
	name  string
	op    Op
	rhs   float64
	terms []Term
}

// Problem is a linear program under construction. The zero value is not
// usable; create instances with NewProblem.
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
}

// NewProblem returns an empty linear program with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// Sense reports the objective sense of the problem.
func (p *Problem) Sense() Sense { return p.sense }

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVariable adds a decision variable with the given bounds and objective
// coefficient and returns its handle. lb may be any finite value, ub may be
// lp.Inf. AddVariable panics if lb > ub or either bound is NaN, since that
// always indicates a modelling bug.
func (p *Problem) AddVariable(name string, lb, ub, obj float64) Var {
	if math.IsNaN(lb) || math.IsNaN(ub) || math.IsNaN(obj) {
		panic(fmt.Sprintf("lp: NaN in variable %q (lb=%v ub=%v obj=%v)", name, lb, ub, obj))
	}
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %q has lb %v > ub %v", name, lb, ub))
	}
	if math.IsInf(lb, -1) {
		panic(fmt.Sprintf("lp: variable %q has -inf lower bound (not supported)", name))
	}
	p.vars = append(p.vars, variable{name: name, lb: lb, ub: ub, obj: obj})
	return Var(len(p.vars) - 1)
}

// SetObjective overrides the objective coefficient of an existing variable.
func (p *Problem) SetObjective(v Var, coef float64) {
	p.vars[v].obj = coef
}

// VariableName returns the name given to v at creation time.
func (p *Problem) VariableName(v Var) string { return p.vars[v].name }

// AddConstraint adds the constraint sum(terms) op rhs and returns its row
// index. Terms referring to the same variable are merged. Zero-coefficient
// terms are dropped.
func (p *Problem) AddConstraint(name string, op Op, rhs float64, terms ...Term) int {
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: NaN rhs in constraint %q", name))
	}
	merged := mergeTerms(terms)
	for _, t := range merged {
		if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			panic(fmt.Sprintf("lp: constraint %q has non-finite coefficient for %s", name, p.vars[t.Var].name))
		}
	}
	p.cons = append(p.cons, constraint{name: name, op: op, rhs: rhs, terms: merged})
	return len(p.cons) - 1
}

// mergeTerms combines duplicate variables and drops zero coefficients while
// preserving first-appearance order.
func mergeTerms(terms []Term) []Term {
	if len(terms) <= 1 {
		out := make([]Term, 0, len(terms))
		for _, t := range terms {
			if t.Coef != 0 {
				out = append(out, t)
			}
		}
		return out
	}
	index := make(map[Var]int, len(terms))
	out := make([]Term, 0, len(terms))
	for _, t := range terms {
		if t.Coef == 0 {
			continue
		}
		if i, ok := index[t.Var]; ok {
			out[i].Coef += t.Coef
			continue
		}
		index[t.Var] = len(out)
		out = append(out, t)
	}
	// A merge may have produced exact zeros; drop them.
	filtered := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			filtered = append(filtered, t)
		}
	}
	return filtered
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

	values []float64
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

// Values returns a copy of all variable values indexed by Var.
func (s *Solution) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Options tunes the simplex solver. The zero value selects sensible
// defaults.
type Options struct {
	// MaxIterations bounds the total number of pivots across both phases.
	// Zero means an automatic limit based on problem size.
	MaxIterations int
	// Tolerance is the feasibility/optimality tolerance. Zero means 1e-9.
	Tolerance float64
}

func (o *Options) withDefaults(m, n int) Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxIterations <= 0 {
		limit := 200 * (m + n)
		if limit < 20000 {
			limit = 20000
		}
		out.MaxIterations = limit
	}
	if out.Tolerance <= 0 {
		out.Tolerance = 1e-9
	}
	return out
}

// Solve optimizes the problem and returns the solution. A nil Options uses
// defaults. Solve returns an error (and a Solution with the corresponding
// Status) when the problem is infeasible, unbounded, or the iteration limit
// is exceeded.
func (p *Problem) Solve(opts *Options) (*Solution, error) {
	sf := buildStandardForm(p)
	o := opts.withDefaults(sf.m, sf.n)
	return newSimplexState(sf, o.Tolerance).solve(o)
}

// String renders the problem in a small LP-format-like text form, useful in
// tests and debugging.
func (p *Problem) String() string {
	var b strings.Builder
	if p.sense == Minimize {
		b.WriteString("min ")
	} else {
		b.WriteString("max ")
	}
	first := true
	for i, v := range p.vars {
		if v.obj == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g*%s", v.obj, p.varLabel(Var(i)))
		first = false
	}
	if first {
		b.WriteString("0")
	}
	b.WriteString("\n")
	for _, c := range p.cons {
		for j, t := range c.terms {
			if j > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g*%s", t.Coef, p.varLabel(t.Var))
		}
		fmt.Fprintf(&b, " %s %g   [%s]\n", c.op, c.rhs, c.name)
	}
	for i, v := range p.vars {
		fmt.Fprintf(&b, "%g <= %s <= %g\n", v.lb, p.varLabel(Var(i)), v.ub)
	}
	return b.String()
}

func (p *Problem) varLabel(v Var) string {
	name := p.vars[v].name
	if name == "" {
		return fmt.Sprintf("x%d", int(v))
	}
	return name
}
