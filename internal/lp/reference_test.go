package lp

// The dense revised-simplex kernel as it stood before the touched-column
// kernel (simplex.go at 4cf4ce6), kept verbatim as a test-only reference in
// the tradition of sim.Reference and graph/reference_test.go: multiplyColumn,
// duals and pivot sweep all m columns of the basis inverse, w and y are
// allocated per call, reducedCost prices one column at a time over all its
// entries, and refactorize knows nothing of a touched set or of zeros. Five
// things differ from that file: the names (simplexState -> refState), solve
// is a method on the state, a column is read through standardForm.col,
// runPhase hands every iteration's duals to onPrice when it is set, and solve
// extracts the values and objective as they are, with no lower bounds to add
// back and no maximization to negate.
// kernel_test.go holds the production kernel's outcome to it (status, error,
// optimal objective) and its pricing to reducedCost; the kernels' paths may
// part at a degenerate tie, so it is no longer a lock-step oracle.
// The row-major standard-form builder at the end of the file is the oracle of
// the column arena.

import (
	"fmt"
	"math"
)

// refState holds the revised-simplex working set: the basis, its dense
// inverse, and the current basic solution.
type refState struct {
	sf    *standardForm
	basis []int       // basis[i] = column basic in row i
	inB   []bool      // inB[j] = column j is basic
	binv  [][]float64 // dense basis inverse, m x m
	xB    []float64   // basic variable values
	iters int

	// onPrice, when set, sees the cost vector, the duals and the priced range
	// of every iteration before runPhase prices them: diffKernel prices the
	// same duals row-wise there. Not in the original.
	onPrice func(cost, y []float64, excludeFrom int)
}

func newRefState(sf *standardForm) *refState {
	m := sf.m
	st := &refState{
		sf:    sf,
		basis: make([]int, m),
		inB:   make([]bool, sf.n),
		binv:  make([][]float64, m),
		xB:    make([]float64, m),
	}
	for i := range st.binv {
		st.binv[i] = make([]float64, m)
		st.binv[i][i] = 1
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

// multiplyColumn returns w = B^{-1} * A_j for column j.
func (st *refState) multiplyColumn(j int) []float64 {
	m := st.sf.m
	w := make([]float64, m)
	rows, vals := st.sf.col(j)
	for k, r := range rows {
		v := vals[k]
		if v == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			w[i] += st.binv[i][r] * v
		}
	}
	return w
}

// duals returns y' = c_B' B^{-1} for the given cost vector.
func (st *refState) duals(cost []float64) []float64 {
	m := st.sf.m
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		cb := cost[st.basis[i]]
		if cb == 0 {
			continue
		}
		row := st.binv[i]
		for k := 0; k < m; k++ {
			y[k] += cb * row[k]
		}
	}
	return y
}

// reducedCost computes c_j - y'A_j.
func (st *refState) reducedCost(cost, y []float64, j int) float64 {
	d := cost[j]
	rows, vals := st.sf.col(j)
	for k, r := range rows {
		d -= y[r] * vals[k]
	}
	return d
}

// pivot performs the basis change: column enter becomes basic in row leave,
// using the precomputed direction w = B^{-1} A_enter and step theta.
func (st *refState) pivot(enter, leave int, w []float64, theta float64) {
	m := st.sf.m
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		st.xB[i] -= theta * w[i]
		if st.xB[i] < 0 && st.xB[i] > -tolerance {
			st.xB[i] = 0
		}
	}
	st.xB[leave] = theta

	pivotVal := w[leave]
	rowL := st.binv[leave]
	inv := 1.0 / pivotVal
	for k := 0; k < m; k++ {
		rowL[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := st.binv[i]
		for k := 0; k < m; k++ {
			row[k] -= f * rowL[k]
		}
	}

	st.inB[st.basis[leave]] = false
	st.basis[leave] = enter
	st.inB[enter] = true
}

// refactorize recomputes the basis inverse and basic solution from scratch
// (Gauss-Jordan on the basis columns) to limit accumulated floating point
// error on long runs.
func (st *refState) refactorize() error {
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
	for i := 0; i < m; i++ {
		copy(st.binv[i], a[i][m:])
	}
	// Recompute basic solution xB = B^{-1} b.
	for i := 0; i < m; i++ {
		s := 0.0
		row := st.binv[i]
		for k := 0; k < m; k++ {
			s += row[k] * st.sf.b[k]
		}
		if s < 0 && s > -1e-7 {
			s = 0
		}
		st.xB[i] = s
	}
	return nil
}

// runPhase runs the simplex method with the given cost vector, excluding
// columns j >= excludeFrom from entering the basis. It returns the final
// status.
func (st *refState) runPhase(cost []float64, excludeFrom, maxIters int) (Status, error) {
	degenerate := 0
	useBland := false
	sincePivotRebuild := 0

	for st.iters < maxIters {
		y := st.duals(cost)
		if st.onPrice != nil {
			st.onPrice(cost, y, excludeFrom)
		}

		enter := -1
		bestRC := -tolerance
		if useBland {
			for j := 0; j < excludeFrom; j++ {
				if st.inB[j] {
					continue
				}
				if st.reducedCost(cost, y, j) < -tolerance {
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
			if w[i] <= tolerance {
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
			if w[i] <= tolerance {
				continue
			}
			ratio := st.xB[i] / w[i]
			if ratio > theta+tolerance*(1+math.Abs(theta)) {
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

		if theta <= tolerance {
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
func (st *refState) objective(cost []float64) float64 {
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
func (st *refState) driveOutArtificials() {
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
func (st *refState) solve(maxIter int) (*Solution, error) {
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
		status, err := st.runPhase(phase1Cost, sf.n, maxIter)
		if status != Optimal {
			return &Solution{Status: status, Iterations: st.iters}, err
		}
		// Allow a slightly looser tolerance for the infeasibility test:
		// phase-1 objective is a sum of m values each rounded at tolerance.
		if st.objective(phase1Cost) > tolerance*float64(sf.m+1)*100 {
			return &Solution{Status: Infeasible, Iterations: st.iters}, ErrInfeasible
		}
		st.driveOutArtificials()
	}

	status, err := st.runPhase(sf.c, sf.artStart, maxIter)
	if status != Optimal {
		return &Solution{Status: status, Iterations: st.iters}, err
	}

	values := make([]float64, sf.nOrig)
	for i, j := range st.basis {
		if j < sf.nOrig {
			values[j] += st.xB[i]
		}
	}
	return &Solution{
		Status:     Optimal,
		Objective:  st.objective(sf.c),
		Iterations: st.iters,
		values:     values,
	}, nil
}

// referenceMergeTerms is mergeTerms as it stood before the stamp table (lp.go
// at d92c29a), kept verbatim: a map per row finds the duplicates, and every
// row is filtered for zeros whether or not anything merged.
func referenceMergeTerms(terms []Term) []Term {
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

// sparseCol is one column of the standard-form constraint matrix.
type sparseCol struct {
	rows []int32
	vals []float64
}

// refForm is a standard form the way referenceStandardForm lays it out: one
// sparseCol per column.
type refForm struct {
	m, n     int
	nOrig    int
	artStart int

	cols []sparseCol
	c    []float64
	b    []float64
}

// referenceStandardForm is buildStandardForm as it stood before the column
// arena (simplex.go at 8d32f4c), kept verbatim but for its result type,
// reading a row's terms through rowTerms, and the problem class: with every
// variable in [0, +Inf) and the objective minimized it has no lower bounds to
// shift, no upper-bound rows and no costs to negate. A row-major scratch copy
// of every row is built first and transposed into per-column slices once the
// signs are fixed.
func referenceStandardForm(p *Problem) *refForm {
	nOrig := len(p.obj)
	m := len(p.cons)

	sf := &refForm{
		m:     m,
		nOrig: nOrig,
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

	for i, con := range p.cons {
		rowOp[i] = con.op
		for _, t := range p.rowTerms(i) {
			rowEntries[i] = append(rowEntries[i], entry{col: int(t.Var), val: t.Coef})
		}
		rowRHS[i] = con.rhs
	}

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
	copy(sf.c, p.obj)

	for i := 0; i < m; i++ {
		sf.b[i] = rowRHS[i] * rowFlip[i]
	}
	// Structural columns.
	for i := 0; i < m; i++ {
		for _, e := range rowEntries[i] {
			col := &sf.cols[e.col]
			col.rows = append(col.rows, int32(i))
			col.vals = append(col.vals, e.val*rowFlip[i])
		}
	}
	// Slack columns.
	for k, i := range slackRow {
		j := nOrig + k
		sf.cols[j] = sparseCol{rows: []int32{int32(i)}, vals: []float64{slackSign[k] * rowFlip[i]}}
	}
	// Artificial columns.
	art := sf.artStart
	for i := 0; i < m; i++ {
		if !needsArtificial[i] {
			continue
		}
		sf.cols[art] = sparseCol{rows: []int32{int32(i)}, vals: []float64{1}}
		art++
	}
	return sf
}
