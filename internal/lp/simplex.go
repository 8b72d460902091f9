package lp

import (
	"errors"
	"math"
)

// Errors returned by Solve. The returned *Solution carries the matching
// Status so callers can use either mechanism.
var (
	// ErrInfeasible indicates that the constraint system has no solution.
	ErrInfeasible = errors.New("lp: problem is infeasible")
	// ErrUnbounded indicates that the objective is unbounded in the
	// optimization direction.
	ErrUnbounded = errors.New("lp: problem is unbounded")
	// ErrIterationLimit indicates the pivot budget was exhausted.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
)

const (
	degenerateSwitch = 64  // consecutive degenerate pivots before Bland's rule
	refactorEvery    = 256 // pivots between refactorizations
)

// runPhase runs the simplex method with the given cost vector, excluding
// columns j >= excludeFrom from entering the basis. It returns the final
// status.
func (st *simplexState) runPhase(cost []float64, excludeFrom, maxIters int) (Status, error) {
	degenerate := 0
	useBland := false
	sincePivotRebuild := 0
	st.trivialDuals(cost)

	for st.iters < maxIters {
		y := st.btran(cost)
		d := st.price(cost, y)

		// Dantzig's rule, or Bland's first column that prices out. The
		// structural columns are priced in d, a slack or artificial column
		// through its one entry and only while nonbasic: most slacks are basic.
		enter, bestRC := -1, -tolerance
		for j, rc := range d {
			if rc < bestRC && !st.inB[j] {
				enter, bestRC = j, rc
				if useBland {
					break
				}
			}
		}
		if enter < 0 || !useBland {
			for k, basic := range st.inB[len(d):excludeFrom] {
				if basic {
					continue
				}
				j := len(d) + k
				if rc := st.sf.unitCost(cost, y, j); rc < bestRC {
					enter, bestRC = j, rc
					if useBland {
						break
					}
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		w := st.ftran(st.sf.col(enter))
		leave, theta := st.ratioTest(w, useBland)
		if leave < 0 {
			return Unbounded, ErrUnbounded
		}

		if theta <= tolerance {
			degenerate++
			if degenerate >= degenerateSwitch {
				useBland = true
			}
		} else {
			degenerate = 0
			useBland = false
		}

		if useBland {
			st.blandPivots++
		}
		st.pivot(enter, leave, w, theta)
		st.iters++
		sincePivotRebuild++
		if sincePivotRebuild >= refactorEvery {
			if err := st.factor(); err != nil {
				return IterationLimit, err
			}
			st.trivialDuals(cost)
			st.refactors++
			sincePivotRebuild = 0
		}
	}
	return IterationLimit, ErrIterationLimit
}

// ratioTest returns the row that leaves the basis when the column whose
// direction w = B^{-1}a the last ftran returned enters, and the step theta,
// or leave -1 where nothing bounds the step. It is a two-pass test: find the
// minimum ratio, then among rows whose ratio ties it (within tolerance) pick
// the one with the largest pivot element, the lowest row among equal ones;
// this keeps the basis well conditioned. Under Bland's rule the smallest
// basic index is used instead to guarantee termination. An entry at most
// tolerance·max(1, ‖w‖∞) bounds no step: that small against the column's
// largest it is rounding noise, and a pivot on it leaves a basis the next
// refactorization finds singular. Every pass visits the rows ftran wrote
// only: w is 0 in the others, which bound no step, and none of the picks
// depends on the order of the rows.
func (st *simplexState) ratioTest(w []float64, bland bool) (leave int, theta float64) {
	floor := 1.0
	for _, i := range st.touched {
		if v := w[i]; v > floor {
			floor = v
		} else if -v > floor {
			floor = -v
		}
	}
	floor *= tolerance
	theta = math.Inf(1)
	for _, i := range st.touched {
		if w[i] <= floor {
			continue
		}
		if ratio := st.xB[i] / w[i]; ratio < theta {
			theta = ratio
		}
	}
	if math.IsInf(theta, 1) {
		return -1, theta
	}
	if theta < 0 {
		theta = 0
	}
	leave = -1
	for _, i := range st.touched {
		wi := w[i]
		if wi <= floor || st.xB[i]/wi > theta+tolerance*(1+math.Abs(theta)) {
			continue
		}
		switch {
		case leave < 0:
			leave = int(i)
		case bland:
			if st.basis[i] < st.basis[leave] {
				leave = int(i)
			}
		case wi > w[leave] || wi == w[leave] && int(i) < leave:
			leave = int(i)
		}
	}
	return leave, theta
}

// price returns the reduced costs d_j = c_j - y'A_j of the structural columns,
// j < nOrig (basic ones too, which nobody reads). It goes row by row, over the
// rows whose dual is nonzero only, in ascending order: every column still
// meets its rows in ascending order, as a column-wise sum does, and a row it
// skips adds an exact zero. A slack or artificial column is priced through its
// one entry (unitCost).
func (st *simplexState) price(cost, y []float64) []float64 {
	sf := st.sf
	d := st.d
	copy(d, cost)
	negated := sf.negated
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		for len(negated) > 0 && int(negated[0]) < i {
			negated = negated[1:]
		}
		if len(negated) > 0 && int(negated[0]) == i {
			yi = -yi // exact: y*(-c) and (-y)*c round alike
		}
		for _, t := range sf.p.rowTerms(i) {
			d[t.Var] -= yi * t.Coef
		}
	}
	return d
}

// objective returns c_B' x_B for the given cost vector.
func (st *simplexState) objective(cost []float64) float64 {
	s := 0.0
	for i, j := range st.basis {
		s += cost[j] * st.xB[i]
	}
	return s
}

// driveOutArtificials removes artificial variables from the basis after
// phase 1 whenever a structural or slack column can replace them, so that
// phase 2 pivots can never make an artificial positive again. Rows whose
// artificial cannot be replaced are linearly dependent and keep a zero-valued
// basic artificial, which is harmless.
func (st *simplexState) driveOutArtificials() {
	for i := 0; i < st.sf.m; i++ {
		if int(st.basis[i]) < st.sf.artStart {
			continue
		}
		replaced := false
		for j := 0; j < st.sf.artStart && !replaced; j++ {
			if st.inB[j] {
				continue
			}
			w := st.ftran(st.sf.col(j))
			if math.Abs(w[i]) > 1e-7 {
				st.pivot(j, i, w, 0)
				st.drivenOut++
				replaced = true
			}
		}
	}
}

// solve runs the two-phase revised simplex and extracts the solution.
func (st *simplexState) solve(maxIter int) (*Solution, error) {
	sf := st.sf

	if sf.artStart < sf.n { // every artificial starts basic
		phase1Cost := make([]float64, sf.n)
		for j := sf.artStart; j < sf.n; j++ {
			phase1Cost[j] = 1
		}
		status, err := st.runPhase(phase1Cost, sf.n, maxIter)
		if status != Optimal {
			return &Solution{Status: status, Iterations: st.iters, Kernel: len(st.kern)}, err
		}
		// Allow a slightly looser tolerance for the infeasibility test:
		// phase-1 objective is a sum of m values each rounded at tolerance.
		if st.objective(phase1Cost) > tolerance*float64(sf.m+1)*100 {
			return &Solution{Status: Infeasible, Iterations: st.iters, Kernel: len(st.kern)}, ErrInfeasible
		}
		st.driveOutArtificials()
	}

	status, err := st.runPhase(sf.c, sf.artStart, maxIter)
	if status != Optimal {
		return &Solution{Status: status, Iterations: st.iters, Kernel: len(st.kern)}, err
	}

	// The values, then the duals of p's rows from the final btran, sign-fixed
	// where a row was negated.
	values := make([]float64, sf.nOrig+sf.m)
	values, duals := values[:sf.nOrig:sf.nOrig], values[sf.nOrig:]
	for i, j := range st.basis {
		if int(j) < sf.nOrig {
			values[j] += st.xB[i]
		}
	}
	copy(duals, st.y)
	for _, i := range sf.negated {
		duals[i] = -duals[i]
	}
	return &Solution{
		Status:     Optimal,
		Objective:  st.objective(sf.c),
		Iterations: st.iters,
		Kernel:     len(st.kern),
		values:     values,
		duals:      duals,
	}, nil
}
