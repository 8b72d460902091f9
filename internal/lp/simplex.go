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

// sparseCol is one column of the standard-form constraint matrix.
type sparseCol struct {
	rows []int
	vals []float64
}

// standardForm is the computational form of a Problem:
//
//	minimize c'x  subject to  Ax = b, x >= 0, b >= 0
//
// where columns 0..nOrig-1 are (lower-bound shifted) original variables,
// followed by slack/surplus columns and finally artificial columns.
type standardForm struct {
	m, n     int
	nOrig    int
	artStart int // first artificial column index; n if none

	cols []sparseCol
	c    []float64 // phase-2 costs (always minimization)
	b    []float64

	shift    []float64 // per original variable: lower bound added back on extraction
	objConst float64
	negate   bool // original problem was Maximize
}

// buildStandardForm converts p into equality standard form with nonnegative
// right-hand sides, adding rows for finite upper bounds, slack/surplus
// columns, and artificial columns where no natural unit column exists.
func buildStandardForm(p *Problem) *standardForm {
	nOrig := len(p.vars)
	// Count rows: one per constraint plus one per finite upper bound.
	ubRows := 0
	for _, v := range p.vars {
		if !math.IsInf(v.ub, 1) {
			ubRows++
		}
	}
	m := len(p.cons) + ubRows

	sf := &standardForm{
		m:      m,
		nOrig:  nOrig,
		shift:  make([]float64, nOrig),
		negate: p.sense == Maximize,
	}

	// Row-major scratch representation built first, then transposed into
	// columns once signs are fixed.
	rowOp := make([]Op, m)
	rowRHS := make([]float64, m)
	type entry struct {
		col int
		val float64
	}
	rowEntries := make([][]entry, m)

	for j, v := range p.vars {
		sf.shift[j] = v.lb
	}

	for i, con := range p.cons {
		rowOp[i] = con.op
		rhs := con.rhs
		for _, t := range con.terms {
			rhs -= t.Coef * sf.shift[t.Var]
			rowEntries[i] = append(rowEntries[i], entry{col: int(t.Var), val: t.Coef})
		}
		rowRHS[i] = rhs
	}
	r := len(p.cons)
	for j, v := range p.vars {
		if math.IsInf(v.ub, 1) {
			continue
		}
		rowOp[r] = LE
		rowRHS[r] = v.ub - v.lb
		rowEntries[r] = append(rowEntries[r], entry{col: j, val: 1})
		r++
	}

	// Objective (always minimized internally).
	objConst := 0.0
	cOrig := make([]float64, nOrig)
	for j, v := range p.vars {
		coef := v.obj
		if sf.negate {
			coef = -coef
		}
		cOrig[j] = coef
		objConst += coef * v.lb
	}
	sf.objConst = objConst

	// Determine slack columns and row sign normalization. After adding a
	// slack (+1 for LE, -1 for GE) we flip rows with negative rhs so that
	// b >= 0; a slack whose post-flip coefficient is +1 can serve as the
	// initial basic variable for its row, otherwise an artificial is added.
	nSlack := 0
	slackRow := make([]int, 0, m)
	slackSign := make([]float64, 0, m)
	for i := 0; i < m; i++ {
		if rowOp[i] == EQ {
			continue
		}
		sign := 1.0
		if rowOp[i] == GE {
			sign = -1.0
		}
		slackRow = append(slackRow, i)
		slackSign = append(slackSign, sign)
		nSlack++
	}

	rowFlip := make([]float64, m)
	for i := 0; i < m; i++ {
		if rowRHS[i] < 0 {
			rowFlip[i] = -1
		} else {
			rowFlip[i] = 1
		}
	}

	// Decide which rows need artificials: a row is covered if it has a
	// slack column whose coefficient after flipping is +1.
	needsArtificial := make([]bool, m)
	for i := 0; i < m; i++ {
		needsArtificial[i] = true
	}
	for k, i := range slackRow {
		if slackSign[k]*rowFlip[i] > 0 {
			needsArtificial[i] = false
		}
	}
	nArt := 0
	for i := 0; i < m; i++ {
		if needsArtificial[i] {
			nArt++
		}
	}

	n := nOrig + nSlack + nArt
	sf.n = n
	sf.artStart = nOrig + nSlack
	sf.cols = make([]sparseCol, n)
	sf.c = make([]float64, n)
	sf.b = make([]float64, m)
	copy(sf.c, cOrig)

	for i := 0; i < m; i++ {
		sf.b[i] = rowRHS[i] * rowFlip[i]
	}
	// Structural columns.
	for i := 0; i < m; i++ {
		for _, e := range rowEntries[i] {
			col := &sf.cols[e.col]
			col.rows = append(col.rows, i)
			col.vals = append(col.vals, e.val*rowFlip[i])
		}
	}
	// Slack columns.
	for k, i := range slackRow {
		j := nOrig + k
		sf.cols[j] = sparseCol{rows: []int{i}, vals: []float64{slackSign[k] * rowFlip[i]}}
	}
	// Artificial columns.
	art := sf.artStart
	for i := 0; i < m; i++ {
		if !needsArtificial[i] {
			continue
		}
		sf.cols[art] = sparseCol{rows: []int{i}, vals: []float64{1}}
		art++
	}
	return sf
}

// simplexState holds the revised-simplex working set: the basis, the compact
// store of its inverse, and the current basic solution. All of it is allocated
// by newSimplexState (touch may regrow binv) and dies with the solve.
type simplexState struct {
	sf    *standardForm
	basis []int  // basis[i] = column basic in row i
	inB   []bool // inB[j] = column j is basic
	// binv holds the touched columns of the m x m basis inverse, row-major:
	// row i's entries for columns touched[0..nt) are binv[i*stride : i*stride+nt].
	// The inverse starts as the identity, and a pivot changes column k only
	// through its entry in row leave, which is 0 while column k is e_k and
	// leave != k: column k stays exactly e_k until row k first leaves the basis.
	// Such a column is not stored at all. multiplyColumn, duals and pivot read it
	// as e_k; every term they skip is an exact zero, so each pivot is the one a
	// dense m x m inverse takes. In the interval-indexed LPs most rows are
	// capacity rows whose slack never leaves: len(touched) stays far below m,
	// and a solve allocates m x stride, not m x m. Everything in binv past a
	// row's first len(touched) entries is zero.
	binv    []float64
	stride  int       // row pitch of binv: initialStride doubling up to m as touched grows
	touched []int     // columns of the inverse that are stored, in first-touch order
	slot    []int32   // slot[k] = index of column k in touched, -1 while column k is e_k
	xB      []float64 // basic variable values
	w, y    []float64 // what multiplyColumn and duals return: scratch, valid until the next call
	tol     float64
	iters   int
}

// initialStride is the number of touched columns binv has room for at first.
const initialStride = 32

func newSimplexState(sf *standardForm, tol float64) *simplexState {
	m := sf.m
	st := &simplexState{
		sf:      sf,
		basis:   make([]int, m),
		inB:     make([]bool, sf.n),
		stride:  min(initialStride, m),
		touched: make([]int, 0, m),
		slot:    make([]int32, m),
		xB:      make([]float64, m),
		w:       make([]float64, m),
		y:       make([]float64, m),
		tol:     tol,
	}
	st.binv = make([]float64, m*st.stride)
	for k := range st.slot {
		st.slot[k] = -1
	}
	copy(st.xB, sf.b)

	// Initial basis: for each row prefer its slack unit column, else its
	// artificial unit column. Both were constructed as +1 unit columns.
	assigned := make([]bool, m)
	for j := sf.nOrig; j < sf.n; j++ {
		col := sf.cols[j]
		if len(col.rows) != 1 || col.vals[0] != 1 {
			continue
		}
		i := col.rows[0]
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

// touch starts storing column k of the inverse, as e_k. It may move binv to a
// wider store: row slices taken before the call are stale after it.
func (st *simplexState) touch(k int) {
	if st.slot[k] >= 0 {
		return
	}
	nt := len(st.touched)
	if nt == st.stride {
		m := st.sf.m
		wider := min(2*st.stride, m)
		grown := make([]float64, m*wider)
		for i := 0; i < m; i++ {
			copy(grown[i*wider:i*wider+nt], st.binv[i*st.stride:])
		}
		st.binv, st.stride = grown, wider
	}
	st.slot[k] = int32(nt)
	st.touched = append(st.touched, k)
	st.binv[k*st.stride+nt] = 1 // the rest of the new slot is zero already
}

// multiplyColumn returns w = B^{-1} * A_j for column j.
func (st *simplexState) multiplyColumn(j int) []float64 {
	w := st.w
	clear(w)
	col := st.sf.cols[j]
	for k, r := range col.rows {
		v := col.vals[k]
		if v == 0 {
			continue
		}
		s := int(st.slot[r])
		if s < 0 {
			w[r] += v // column r is e_r
			continue
		}
		for i := range w {
			w[i] += st.binv[i*st.stride+s] * v
		}
	}
	return w
}

// duals returns y' = c_B' B^{-1} for the given cost vector.
func (st *simplexState) duals(cost []float64) []float64 {
	y := st.y
	clear(y)
	nt := len(st.touched)
	for i, j := range st.basis {
		cb := cost[j]
		if cb == 0 {
			continue
		}
		row := st.binv[i*st.stride : i*st.stride+nt]
		for s, k := range st.touched {
			y[k] += cb * row[s]
		}
		if st.slot[i] < 0 {
			y[i] += cb // the row's own unit entry; its other untouched entries are 0
		}
	}
	return y
}

// reducedCost computes c_j - y'A_j.
func (st *simplexState) reducedCost(cost, y []float64, j int) float64 {
	d := cost[j]
	col := st.sf.cols[j]
	for k, r := range col.rows {
		d -= y[r] * col.vals[k]
	}
	return d
}

// pivot performs the basis change: column enter becomes basic in row leave,
// using the precomputed direction w = B^{-1} A_enter and step theta.
func (st *simplexState) pivot(enter, leave int, w []float64, theta float64) {
	m := st.sf.m
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		st.xB[i] -= theta * w[i]
		if st.xB[i] < 0 && st.xB[i] > -st.tol {
			st.xB[i] = 0
		}
	}
	st.xB[leave] = theta

	// Row leave is zero in every untouched column but its own, which joins
	// the set here; scaling and eliminating over touched is the whole update.
	// touch may move the store, so row slices are taken after it.
	st.touch(leave)
	nt, stride := len(st.touched), st.stride
	pivotVal := w[leave]
	rowL := st.binv[leave*stride : leave*stride+nt]
	inv := 1.0 / pivotVal
	for s := range rowL {
		rowL[s] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := st.binv[i*stride : i*stride+nt]
		for s, v := range rowL {
			row[s] -= f * v
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
		col := st.sf.cols[st.basis[i]]
		for k, r := range col.rows {
			a[r][i] = col.vals[k]
		}
	}
	// Gauss-Jordan with partial pivoting.
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
		inv := 1.0 / a[c][c]
		for k := c; k < 2*m; k++ {
			a[c][k] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := a[r][c]
			if f == 0 {
				continue
			}
			for k := c; k < 2*m; k++ {
				a[r][k] -= f * a[c][k]
			}
		}
	}
	// Note the permutation: after Gauss-Jordan with row swaps applied to the
	// augmented identity, rows of the right block are B^{-1} rows in the
	// order that maps basis column i to row i.
	// The store is rebuilt from the recomputed inverse: a column stays out
	// only if it equals e_k exactly (no tolerance; a -0 counts as 0 and loses
	// its sign). Clearing first keeps everything past len(touched) zero.
	st.touched = st.touched[:0]
	for k := range st.slot {
		st.slot[k] = -1
	}
	clear(st.binv)
	for i := 0; i < m; i++ {
		for k, v := range a[i][m:] {
			if (k == i && v != 1) || (k != i && v != 0) {
				st.touch(k)
			}
		}
	}
	for i := 0; i < m; i++ {
		row := st.binv[i*st.stride:]
		for s, k := range st.touched {
			row[s] = a[i][m+k]
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

		enter := -1
		bestRC := -st.tol
		if useBland {
			for j := 0; j < excludeFrom; j++ {
				if st.inB[j] {
					continue
				}
				if st.reducedCost(cost, y, j) < -st.tol {
					enter = j
					break
				}
			}
		} else {
			for j := 0; j < excludeFrom; j++ {
				if st.inB[j] {
					continue
				}
				rc := st.reducedCost(cost, y, j)
				if rc < bestRC {
					bestRC = rc
					enter = j
				}
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
