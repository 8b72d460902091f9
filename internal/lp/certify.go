package lp

import (
	"fmt"
	"math"
)

// Tolerances of Certify, each relative to the magnitudes its quantity is
// summed from: a row's residual to 1 + |rhs| + Σ|a_ij x_j|, a reduced cost's
// wrong-signed part to 1 + |c_j| + Σ|y_i a_ij|, a complementary-slackness
// product to the product of the same two scales, and the duality gap to
// 1 + |primal objective|.
const (
	certifyPrimalTol = 1e-9
	certifyDualTol   = 1e-9
	certifyGapTol    = 1e-9
)

// Certify checks that sol, an Optimal solution of p, is optimal by the duality
// certificate of the basis the solve ended on, reading p's rows afresh:
// x = sol's values is primal feasible, x >= 0 and every row holds; the duals y
// of the final basis have the signs their rows allow, and the reduced costs
// d = c - A'y are nonnegative; complementary slackness holds, y_i times row
// i's slack and d_j times x_j; and the primal objective c'x, which
// sol.Objective must be, equals the dual one, b'y. Each holds to the stated
// tolerances (certifyPrimalTol, certifyDualTol, certifyGapTol). The solver
// does not call it: it is the oracle the tests hold every solve to, and it
// costs one pass over the rows.
func Certify(p *Problem, sol *Solution) error {
	if sol == nil || sol.Status != Optimal {
		return fmt.Errorf("lp: certify: solution is not optimal")
	}
	if len(sol.values) != len(p.obj) || len(sol.duals) != len(p.cons) {
		return fmt.Errorf("lp: certify: solution has %d values and %d duals for %d variables and %d rows",
			len(sol.values), len(sol.duals), len(p.obj), len(p.cons))
	}
	x, y := sol.values, sol.duals
	d := make([]float64, 2*len(p.obj))
	d, scale := d[:len(p.obj)], d[len(p.obj):]
	primal, dual := 0.0, 0.0
	for j, c := range p.obj {
		if x[j] < -certifyPrimalTol {
			return fmt.Errorf("lp: certify: %s = %v is negative", p.VariableName(Var(j)), x[j])
		}
		d[j] = c
		scale[j] = math.Abs(c)
		primal += c * x[j]
	}
	for i, con := range p.cons {
		lhs, mag := 0.0, 0.0
		for _, t := range p.rowTerms(i) {
			lhs += t.Coef * x[t.Var]
			mag += math.Abs(t.Coef * x[t.Var])
			d[t.Var] -= y[i] * t.Coef
			scale[t.Var] += math.Abs(y[i] * t.Coef)
		}
		rowScale := 1 + math.Abs(con.rhs) + mag
		slack := lhs - con.rhs
		name := p.names.ConstraintName(i)
		if (con.op == LE && slack > certifyPrimalTol*rowScale) || (con.op == GE && slack < -certifyPrimalTol*rowScale) ||
			(con.op == EQ && math.Abs(slack) > certifyPrimalTol*rowScale) {
			return fmt.Errorf("lp: certify: row %s %v %v reads %v", name, con.op, con.rhs, lhs)
		}
		if (con.op == LE && y[i] > certifyDualTol) || (con.op == GE && y[i] < -certifyDualTol) {
			return fmt.Errorf("lp: certify: row %s (%v) has dual %v of the wrong sign", name, con.op, y[i])
		}
		if math.Abs(y[i]*slack) > certifyGapTol*(1+math.Abs(y[i]))*rowScale {
			return fmt.Errorf("lp: certify: row %s has dual %v and slack %v", name, y[i], slack)
		}
		dual += y[i] * con.rhs
	}
	for j, dj := range d {
		colScale := 1 + scale[j]
		if dj < -certifyDualTol*colScale {
			return fmt.Errorf("lp: certify: %s has reduced cost %v", p.VariableName(Var(j)), dj)
		}
		if math.Abs(dj*x[j]) > certifyGapTol*colScale*(1+math.Abs(x[j])) {
			return fmt.Errorf("lp: certify: %s = %v has reduced cost %v", p.VariableName(Var(j)), x[j], dj)
		}
	}
	if gap := math.Abs(primal - dual); gap > certifyGapTol*(1+math.Abs(primal)) {
		return fmt.Errorf("lp: certify: primal objective %v, dual %v", primal, dual)
	}
	if math.Abs(sol.Objective-primal) > certifyGapTol*(1+math.Abs(primal)) {
		return fmt.Errorf("lp: certify: objective %v, the values give %v", sol.Objective, primal)
	}
	return nil
}
