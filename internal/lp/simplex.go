package lp

import (
	"errors"
	"fmt"
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

// standardForm is the computational form of a Problem:
//
//	minimize c'x  subject to  Ax = b, x >= 0, b >= 0
//
// where columns 0..nOrig-1 are (lower-bound shifted) original variables,
// followed by slack/surplus columns and finally artificial columns. A is held
// by column in one arena: column j's entries are rows[colStart[j]:colStart[j+1]]
// and the same range of vals, in ascending row order. Its rows are p's
// constraints, then one per finite upper bound, and pricing reads them by row
// (simplexState.price): constraint row i is p.rowTerms(i), negated where i is
// in negated, and upper-bound row nCons+q is a 1 in column ubVar[q].
type standardForm struct {
	m, n     int
	nOrig    int
	artStart int // first artificial column index; n if none

	colStart []int
	rows     []int
	vals     []float64
	c        []float64 // phase-2 costs (always minimization)
	b        []float64

	p       *Problem
	nCons   int   // p's constraints, the first nCons rows
	negated []int // the constraint rows whose right-hand side was negative, ascending
	ubVar   []int // per upper-bound row: its variable

	shift    []float64 // per original variable: lower bound added back on extraction
	objConst float64
	negate   bool // original problem was Maximize
}

// col returns column j of A: its rows and their values.
func (sf *standardForm) col(j int) ([]int, []float64) {
	lo, hi := sf.colStart[j], sf.colStart[j+1]
	return sf.rows[lo:hi], sf.vals[lo:hi]
}

// buildStandardForm converts p into equality standard form with nonnegative
// right-hand sides, adding rows for finite upper bounds, slack/surplus
// columns, and artificial columns where no natural unit column exists. It
// counts each column's entries first and then fills the arena row by row.
func buildStandardForm(p *Problem) *standardForm {
	nOrig, nCons := len(p.vars), len(p.cons)
	m := nCons
	for _, v := range p.vars {
		if !math.IsInf(v.ub, 1) {
			m++
		}
	}
	sf := &standardForm{
		m:      m,
		nOrig:  nOrig,
		b:      make([]float64, m),
		shift:  make([]float64, nOrig),
		negate: p.sense == Maximize,
		p:      p,
		nCons:  nCons,
	}
	for j, v := range p.vars {
		sf.shift[j] = v.lb
	}

	// Count: each structural column's entries, and the right-hand sides shifted
	// by the lower bounds, not yet sign-normalized. Rows are the constraints,
	// then one per finite upper bound.
	count := make([]int, nOrig)
	negated := 0
	for i, con := range p.cons {
		rhs := con.rhs
		for _, t := range p.rowTerms(i) {
			rhs -= t.Coef * sf.shift[t.Var]
			count[t.Var]++
		}
		sf.b[i] = rhs
		if rhs < 0 {
			negated++
		}
	}
	r := nCons
	for j, v := range p.vars {
		if !math.IsInf(v.ub, 1) {
			sf.b[r] = v.ub - v.lb
			count[j]++
			r++
		}
	}
	nSlack, nArt := 0, 0
	for i := 0; i < m; i++ {
		s := p.slackCoef(i, sf.b[i])
		if s != 0 {
			nSlack++
		}
		if s <= 0 {
			nArt++
		}
	}

	n := nOrig + nSlack + nArt
	sf.n = n
	sf.artStart = nOrig + nSlack
	// The row lists pricing reads share colStart's allocation.
	starts := make([]int, n+1+negated+m-nCons)
	sf.colStart, sf.negated, sf.ubVar = starts[:n+1:n+1], starts[n+1:n+1:n+1+negated], starts[n+1+negated:]
	for j := 0; j < n; j++ {
		entries := 1 // a slack or artificial column
		if j < nOrig {
			entries = count[j]
		}
		sf.colStart[j+1] = sf.colStart[j] + entries
	}
	sf.rows = make([]int, sf.colStart[n])
	sf.vals = make([]float64, sf.colStart[n])
	sf.c = make([]float64, n)
	for j, v := range p.vars {
		coef := v.obj
		if sf.negate {
			coef = -coef
		}
		sf.c[j] = coef
		sf.objConst += coef * v.lb
	}

	// Fill, row by row so that every column lists its rows in ascending order;
	// count[j] is now where column j's next entry goes. A row whose right-hand
	// side is negative is negated.
	copy(count, sf.colStart)
	for i := range p.cons {
		flip := 1.0
		if sf.b[i] < 0 {
			flip = -1
			sf.negated = append(sf.negated, i)
		}
		for _, t := range p.rowTerms(i) {
			k := count[t.Var]
			sf.rows[k], sf.vals[k] = i, t.Coef*flip
			count[t.Var]++
		}
	}
	r = nCons
	for j, v := range p.vars {
		if !math.IsInf(v.ub, 1) {
			sf.rows[count[j]], sf.vals[count[j]] = r, 1 // the column's last entry
			sf.ubVar[r-nCons] = j
			r++
		}
	}
	// A slack whose coefficient is +1 can serve as its row's initial basic
	// variable; every other row gets an artificial.
	slack, art := nOrig, sf.artStart
	for i := 0; i < m; i++ {
		s := p.slackCoef(i, sf.b[i])
		if s != 0 {
			sf.rows[sf.colStart[slack]], sf.vals[sf.colStart[slack]] = i, s
			slack++
		}
		if s <= 0 {
			sf.rows[sf.colStart[art]], sf.vals[sf.colStart[art]] = i, 1
			art++
		}
		if sf.b[i] < 0 {
			sf.b[i] = -sf.b[i]
		}
	}
	return sf
}

// slackCoef returns the coefficient of standard-form row i's slack once the
// row is negated where its shifted right-hand side rhs is negative: +1 for an
// LE row and -1 for a GE row before that (the upper-bound rows past p's
// constraints are LE rows), 0 for an equality, which has no slack.
func (p *Problem) slackCoef(i int, rhs float64) float64 {
	op := LE
	if i < len(p.cons) {
		op = p.cons[i].op
	}
	s := 0.0
	switch op {
	case LE:
		s = 1
	case GE:
		s = -1
	}
	if rhs < 0 {
		s = -s
	}
	return s
}

// simplexState holds the revised-simplex working set: the basis, the compact
// store of its inverse, and the current basic solution. All of it is allocated
// by newSimplexState and touch and dies with the solve.
type simplexState struct {
	sf    *standardForm
	basis []int  // basis[i] = column basic in row i
	inB   []bool // inB[j] = column j is basic
	// inv[s] is column touched[s] of the m x m basis inverse, m floats. The
	// inverse starts as the identity, and a pivot changes column k only
	// through its entry in row leave, which is 0 while column k is e_k and
	// leave != k: column k stays exactly e_k until row k first leaves the
	// basis. Such a column is not stored at all. multiplyColumn, duals and
	// pivot read it as e_k; every term they skip is an exact zero, so each
	// pivot is the one a dense m x m inverse takes. In the interval-indexed LPs
	// most rows are capacity rows whose slack never leaves: len(touched) stays
	// far below m, and a solve allocates m floats per touched column, not m x m.
	inv     [][]float64
	touched []int       // columns of the inverse that are stored, in first-touch order
	slot    []int32     // slot[k] = index of column k in touched, -1 while column k is e_k
	spare   [][]float64 // columns refactorize took out of inv, for touch to reuse
	xB      []float64   // basic variable values
	w, y, d []float64   // what multiplyColumn, duals and price return: scratch, valid until the next call
	visit   []int       // scratch of duals and pivot: the rows whose basic cost, or w entry, is nonzero
	tol     float64
	iters   int
}

func newSimplexState(sf *standardForm, tol float64) *simplexState {
	m := sf.m
	scratch := make([]float64, 2*m+sf.nOrig)
	st := &simplexState{
		sf:    sf,
		basis: make([]int, m),
		inB:   make([]bool, sf.n),
		slot:  make([]int32, m),
		xB:    make([]float64, m),
		w:     scratch[:m:m],
		y:     scratch[m : 2*m : 2*m],
		d:     scratch[2*m:],
		visit: make([]int, 0, m),
		tol:   tol,
	}
	for k := range st.slot {
		st.slot[k] = -1
	}
	copy(st.xB, sf.b)

	// Initial basis: for each row prefer its slack unit column, else its
	// artificial unit column. Both were constructed as +1 unit columns.
	assigned := make([]bool, m)
	for j := sf.nOrig; j < sf.n; j++ {
		rows, vals := sf.col(j)
		if len(rows) != 1 || vals[0] != 1 {
			continue
		}
		i := rows[0]
		if assigned[i] {
			continue
		}
		// Prefer slack over artificial: slacks come first, so first
		// assignment wins and artificial fills only uncovered rows.
		st.basis[i] = j
		st.inB[j] = true
		assigned[i] = true
	}
	for i := 0; i < m; i++ {
		if !assigned[i] {
			// Cannot happen by construction: every row has either a
			// usable slack or an artificial.
			panic(fmt.Sprintf("lp: row %d has no initial basic column", i))
		}
	}
	return st
}

// touch starts storing column k of the inverse, as e_k, in a spare column
// where refactorize left one (cleared first: it holds an old column) and in a
// new one otherwise.
func (st *simplexState) touch(k int) {
	if st.slot[k] >= 0 {
		return
	}
	var col []float64
	if n := len(st.spare); n > 0 {
		col, st.spare = st.spare[n-1], st.spare[:n-1]
		clear(col)
	} else {
		col = make([]float64, st.sf.m)
	}
	col[k] = 1
	st.slot[k] = int32(len(st.touched))
	st.touched = append(st.touched, k)
	st.inv = append(st.inv, col)
}

// multiplyColumn returns w = B^{-1} * A_j for column j.
func (st *simplexState) multiplyColumn(j int) []float64 {
	w := st.w
	clear(w)
	rows, vals := st.sf.col(j)
	for k, r := range rows {
		v := vals[k]
		if v == 0 {
			continue
		}
		s := st.slot[r]
		if s < 0 {
			w[r] += v // column r is e_r
			continue
		}
		for i, x := range st.inv[s] {
			w[i] += x * v
		}
	}
	return w
}

// duals returns y' = c_B' B^{-1} for the given cost vector. Only the rows whose
// basic cost is nonzero contribute; each stored column sums them in ascending
// row order, as a row-by-row sweep of the dense inverse does.
func (st *simplexState) duals(cost []float64) []float64 {
	y := st.y
	clear(y)
	rows := st.visit[:0]
	for i, j := range st.basis {
		if cb := cost[j]; cb != 0 {
			rows = append(rows, i)
			if st.slot[i] < 0 {
				y[i] = cb // the row's own unit entry; its other untouched entries are 0
			}
		}
	}
	for s, col := range st.inv {
		sum := 0.0
		for _, i := range rows {
			sum += cost[st.basis[i]] * col[i]
		}
		y[st.touched[s]] = sum
	}
	return y
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
		if i >= sf.nCons {
			d[sf.ubVar[i-sf.nCons]] -= yi // the row's one entry is a 1
			continue
		}
		for len(negated) > 0 && negated[0] < i {
			negated = negated[1:]
		}
		if len(negated) > 0 && negated[0] == i {
			yi = -yi // exact: y*(-c) and (-y)*c round alike
		}
		for _, t := range sf.p.rowTerms(i) {
			d[t.Var] -= yi * t.Coef
		}
	}
	return d
}

// unitCost returns the reduced cost of column j >= nOrig, a slack or an
// artificial: c_j less its one entry v, in row r, times y_r.
func (sf *standardForm) unitCost(cost, y []float64, j int) float64 {
	k := sf.colStart[j]
	return cost[j] - y[sf.rows[k]]*sf.vals[k]
}

// pivot performs the basis change: column enter becomes basic in row leave,
// using the precomputed direction w = B^{-1} A_enter and step theta.
func (st *simplexState) pivot(enter, leave int, w []float64, theta float64) {
	m := st.sf.m
	rows := st.visit[:0] // the rows the elimination changes: w nonzero, leave aside
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		st.xB[i] -= theta * w[i]
		if st.xB[i] < 0 && st.xB[i] > -st.tol {
			st.xB[i] = 0
		}
		if w[i] != 0 {
			rows = append(rows, i)
		}
	}
	st.xB[leave] = theta

	// Row leave is zero in every untouched column but its own, which joins
	// the set here; scaling and eliminating over the stored columns is the
	// whole update, and a stored column with a zero in row leave changes only
	// by exact zeros.
	st.touch(leave)
	inv := 1.0 / w[leave]
	for _, col := range st.inv {
		if col[leave] == 0 {
			continue
		}
		v := col[leave] * inv
		col[leave] = v
		for _, i := range rows {
			col[i] -= w[i] * v
		}
	}

	st.inB[st.basis[leave]] = false
	st.basis[leave] = enter
	st.inB[enter] = true
}

// refactorize recomputes the basis inverse and basic solution from scratch
// (Gauss-Jordan on the basis columns) to limit accumulated floating point
// error on long runs.
func (st *simplexState) refactorize() error {
	m := st.sf.m
	// Build dense basis matrix augmented with identity.
	a := make([][]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, 2*m)
		a[i][m+i] = 1
	}
	for i := 0; i < m; i++ {
		rows, vals := st.sf.col(st.basis[i])
		for k, r := range rows {
			a[r][i] = vals[k]
		}
	}
	// Gauss-Jordan with partial pivoting. The scaled pivot row is applied at
	// its nonzero positions only (nz): the rest would subtract exact zeros.
	nz := make([]int, 0, 2*m)
	for c := 0; c < m; c++ {
		p := c
		best := math.Abs(a[c][c])
		for r := c + 1; r < m; r++ {
			if v := math.Abs(a[r][c]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-12 {
			return fmt.Errorf("lp: singular basis during refactorization (column %d)", c)
		}
		a[c], a[p] = a[p], a[c]
		row := a[c]
		inv := 1.0 / row[c]
		nz = nz[:0]
		for k := c; k < 2*m; k++ {
			if row[k] != 0 {
				row[k] *= inv
				nz = append(nz, k)
			}
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := a[r][c]
			if f == 0 {
				continue
			}
			ar := a[r]
			for _, k := range nz {
				ar[k] -= f * row[k]
			}
		}
	}
	// Note the permutation: after Gauss-Jordan with row swaps applied to the
	// augmented identity, rows of the right block are B^{-1} rows in the
	// order that maps basis column i to row i.
	// The store is rebuilt from the recomputed inverse: a column stays out only
	// if it equals e_k exactly (no tolerance; a -0 counts as 0 and loses its
	// sign). Every stored column becomes spare first; touch takes them back
	// before it allocates, and the copy below overwrites each whole.
	for _, k := range st.touched {
		st.slot[k] = -1
	}
	st.spare = append(st.spare, st.inv...)
	st.inv, st.touched = st.inv[:0], st.touched[:0]
	for i := 0; i < m; i++ {
		for k, v := range a[i][m:] {
			if (k == i && v != 1) || (k != i && v != 0) {
				st.touch(k)
			}
		}
	}
	for s, k := range st.touched {
		col := st.inv[s]
		for i := range col {
			col[i] = a[i][m+k]
		}
	}
	// Recompute basic solution xB = B^{-1} b from the dense rows, in ascending
	// column order: summing the stored columns in first-touch order instead
	// would round differently.
	for i := 0; i < m; i++ {
		s := 0.0
		for k, v := range a[i][m:] {
			s += v * st.sf.b[k]
		}
		if s < 0 && s > -1e-7 {
			s = 0
		}
		st.xB[i] = s
	}
	return nil
}

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

	for st.iters < maxIters {
		y := st.duals(cost)
		d := st.price(cost, y)

		enter := -1
		bestRC := -st.tol
		for j := 0; j < excludeFrom; j++ {
			if st.inB[j] {
				continue
			}
			var rc float64
			if j < len(d) {
				rc = d[j]
			} else {
				rc = st.sf.unitCost(cost, y, j)
			}
			if rc < bestRC {
				enter = j
				if useBland {
					break // Bland's rule: the first column that prices out
				}
				bestRC = rc
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		w := st.multiplyColumn(enter)
		// Two-pass ratio test: find the minimum ratio, then among rows whose
		// ratio ties it (within tolerance) pick the one with the largest
		// pivot element; this keeps the basis well conditioned. Under Bland's
		// rule the smallest basic index is used instead to guarantee
		// termination.
		theta := math.Inf(1)
		for i := 0; i < st.sf.m; i++ {
			if w[i] <= st.tol {
				continue
			}
			if ratio := st.xB[i] / w[i]; ratio < theta {
				theta = ratio
			}
		}
		if math.IsInf(theta, 1) {
			return Unbounded, ErrUnbounded
		}
		if theta < 0 {
			theta = 0
		}
		leave := -1
		for i := 0; i < st.sf.m; i++ {
			if w[i] <= st.tol {
				continue
			}
			ratio := st.xB[i] / w[i]
			if ratio > theta+st.tol*(1+math.Abs(theta)) {
				continue
			}
			if leave < 0 {
				leave = i
				continue
			}
			if useBland {
				if st.basis[i] < st.basis[leave] {
					leave = i
				}
			} else if w[i] > w[leave] {
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded, ErrUnbounded
		}

		if theta <= st.tol {
			degenerate++
			if degenerate >= degenerateSwitch {
				useBland = true
			}
		} else {
			degenerate = 0
			useBland = false
		}

		st.pivot(enter, leave, w, theta)
		st.iters++
		sincePivotRebuild++
		if sincePivotRebuild >= refactorEvery {
			if err := st.refactorize(); err != nil {
				return IterationLimit, err
			}
			sincePivotRebuild = 0
		}
	}
	return IterationLimit, ErrIterationLimit
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
		if st.basis[i] < st.sf.artStart {
			continue
		}
		replaced := false
		for j := 0; j < st.sf.artStart && !replaced; j++ {
			if st.inB[j] {
				continue
			}
			w := st.multiplyColumn(j)
			if math.Abs(w[i]) > 1e-7 {
				st.pivot(j, i, w, 0)
				replaced = true
			}
		}
	}
}

// solve runs the two-phase revised simplex and extracts the solution.
func (st *simplexState) solve(o Options) (*Solution, error) {
	sf := st.sf

	hasArtificials := false
	for _, j := range st.basis {
		if j >= sf.artStart {
			hasArtificials = true
			break
		}
	}

	if hasArtificials {
		phase1Cost := make([]float64, sf.n)
		for j := sf.artStart; j < sf.n; j++ {
			phase1Cost[j] = 1
		}
		status, err := st.runPhase(phase1Cost, sf.n, o.MaxIterations)
		if status != Optimal {
			return &Solution{Status: status, Iterations: st.iters}, err
		}
		// Allow a slightly looser tolerance for the infeasibility test:
		// phase-1 objective is a sum of m values each rounded at tol.
		if st.objective(phase1Cost) > o.Tolerance*float64(sf.m+1)*100 {
			return &Solution{Status: Infeasible, Iterations: st.iters}, ErrInfeasible
		}
		st.driveOutArtificials()
	}

	status, err := st.runPhase(sf.c, sf.artStart, o.MaxIterations)
	if status != Optimal {
		return &Solution{Status: status, Iterations: st.iters}, err
	}

	values := make([]float64, sf.nOrig)
	copy(values, sf.shift)
	for i, j := range st.basis {
		if j < sf.nOrig {
			values[j] += st.xB[i]
		}
	}
	obj := st.objective(sf.c) + sf.objConst
	if sf.negate {
		obj = -obj
	}
	return &Solution{
		Status:     Optimal,
		Objective:  obj,
		Iterations: st.iters,
		values:     values,
	}, nil
}
