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

// simplexState holds the revised-simplex working set: the basis, the factored
// block of its inverse, and the current basic solution. All of it is
// allocated by newSimplexState, grow and factor and dies with the solve. The
// simplex driver reaches the inverse through four operations only: factor
// (rebuild it from the basis), ftran (B^{-1}a), btran (c'B^{-1}) and update
// (one column of the basis replaced).
//
// A row is trivial while its basic column is its own +1 unit column, a slack
// or an artificial; the other rows, T of them, are the kernel K. With K
// ordered first the basis is
//
//	B = [ B_KK  0 ]        B^{-1} = [ B_KK^{-1}          0 ]
//	    [ B_NK  I ]                 [ -B_NK B_KK^{-1}    I ]
//
// where B_KK and B_NK are the kernel's basic columns restricted to the kernel
// and the trivial rows. Only B_KK^{-1}, T x T, is stored; B_NK is read from
// the basic columns' own entries. The interval-indexed LPs start with every
// row trivial and most rows are capacity rows whose slack never leaves, so T
// stays far below m and a solve stores T x T floats, not m x m.
type simplexState struct {
	sf    *standardForm
	basis []int  // basis[i] = column basic in row i
	inB   []bool // inB[j] = column j is basic
	// kern lists the kernel rows, kidx inverts it. A row joins the kernel when
	// it first leaves the basis and stays until factor, which keeps only the
	// rows whose basic column is not their own unit column.
	kern []int
	kidx []int32 // kidx[i] = index of row i in kern, -1 while row i is trivial
	// inv holds B_KK^{-1} by column in one slab of stride x stride floats,
	// stride >= T: entry (p, q), for kernel indexes p and q, is
	// inv[q*stride+p]. grow doubles the slab when the kernel fills it.
	inv    []float64
	stride int
	xB     []float64 // basic variable values
	w      []float64 // what ftran returns: scratch, valid until the next call
	y      []float64 // what btran returns; trivialDuals keeps its trivial rows
	d      []float64 // what price returns, as w
	wk     []float64 // scratch by kernel index: ftran's w_K, btran's c_K - B_NK'y_N, update's w, join's r, factor's x_K
	visit  []int     // scratch of btran, update, join and factor: kernel indexes
	tol    float64
	iters  int
	// What the solve went through, for the tests that must show their LPs
	// reach each path: pivots under Bland's rule, refactorizations, and
	// artificials driven out after phase 1.
	blandPivots, refactors, drivenOut int
	onPivot                           func() // when set, runs after every pivot: tests check the inverse there
}

// initialStride is the kernel size the first slab holds.
const initialStride = 32

func newSimplexState(sf *standardForm, tol float64) *simplexState {
	m := sf.m
	scratch := make([]float64, 3*m+sf.nOrig)
	st := &simplexState{
		sf:    sf,
		basis: make([]int, m),
		inB:   make([]bool, sf.n),
		kern:  make([]int, 0, m),
		kidx:  make([]int32, m),
		xB:    make([]float64, m),
		w:     scratch[:m:m],
		y:     scratch[m : 2*m : 2*m],
		wk:    scratch[2*m : 3*m : 3*m],
		d:     scratch[3*m:],
		visit: make([]int, 0, m),
		tol:   tol,
	}
	for i := range st.kidx {
		st.kidx[i] = -1
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

// grow makes the slab hold a kernel of t rows, doubling its stride as often as
// that takes and copying the first keep columns, T floats each.
func (st *simplexState) grow(t, keep int) {
	if t <= st.stride {
		return
	}
	stride := max(st.stride, initialStride)
	for stride < t {
		stride *= 2
	}
	inv := make([]float64, stride*stride)
	for q := 0; q < keep; q++ {
		copy(inv[q*stride:q*stride+len(st.kern)], st.inv[q*st.stride:])
	}
	st.inv, st.stride = inv, stride
}

// kcol returns column q of B_KK^{-1}, T floats.
func (st *simplexState) kcol(q int) []float64 {
	return st.inv[q*st.stride : q*st.stride+len(st.kern)]
}

// ftran returns w = B^{-1} a for the column a with the given entries, as
// sf.col returns them: w_K = B_KK^{-1} a_K, summed over a's kernel entries,
// then w_N = a_N - B_NK w_K.
func (st *simplexState) ftran(rows []int, vals []float64) []float64 {
	w, wk := st.w, st.wk[:len(st.kern)]
	clear(w)
	clear(wk)
	for k, r := range rows {
		v := vals[k]
		if v == 0 {
			continue
		}
		q := st.kidx[r]
		if q < 0 {
			w[r] += v
			continue
		}
		for p, x := range st.kcol(int(q)) {
			wk[p] += x * v
		}
	}
	for p, i := range st.kern {
		wp := wk[p]
		w[i] = wp
		if wp == 0 {
			continue
		}
		rows, vals := st.sf.col(st.basis[i])
		for k, r := range rows {
			if st.kidx[r] < 0 {
				w[r] -= vals[k] * wp
			}
		}
	}
	return w
}

// trivialDuals sets y_N = c_N, the duals of the trivial rows, in y. They
// change only with the cost vector or with the trivial rows themselves, which
// a pivot only shrinks (the leaving row joins the kernel, whose y btran
// writes): runPhase calls it when it starts and after every factor.
func (st *simplexState) trivialDuals(cost []float64) {
	for i, j := range st.basis {
		if st.kidx[i] < 0 {
			st.y[i] = cost[j]
		}
	}
}

// btran returns y' = c_B' B^{-1} for the given cost vector: y_N = c_N, which
// trivialDuals left in y, and y_K = (c_K - B_NK' y_N)' B_KK^{-1}, each column
// of B_KK^{-1} summed over the kernel indexes whose reduced cost is nonzero.
func (st *simplexState) btran(cost []float64) []float64 {
	y := st.y
	ck, nz := st.wk[:len(st.kern)], st.visit[:0]
	for p, i := range st.kern {
		j := st.basis[i]
		c := cost[j]
		rows, vals := st.sf.col(j)
		for k, r := range rows {
			if st.kidx[r] < 0 && y[r] != 0 {
				c -= y[r] * vals[k]
			}
		}
		ck[p] = c
		if c != 0 {
			nz = append(nz, p)
		}
	}
	for q, i := range st.kern {
		col, sum := st.kcol(q), 0.0
		for _, p := range nz {
			sum += ck[p] * col[p]
		}
		y[i] = sum
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
	if theta != 0 { // a degenerate step moves nothing, and every xB is clamped already
		for i := range st.xB {
			if i == leave {
				continue
			}
			st.xB[i] -= theta * w[i]
			if st.xB[i] < 0 && st.xB[i] > -st.tol {
				st.xB[i] = 0
			}
		}
	}
	st.xB[leave] = theta
	st.update(leave, w)
	st.inB[st.basis[leave]] = false
	st.basis[leave] = enter
	st.inB[enter] = true
	if st.onPivot != nil {
		st.onPivot()
	}
}

// update changes B_KK^{-1} for the basis whose column in row leave is replaced
// by the one w = B^{-1} a stands for. A trivial row leave first joins the
// kernel (join); then the elimination runs over the kernel rows alone, the
// rank-1 update of the explicit inverse restricted to them: every other row of
// B^{-1} follows from B_NK.
func (st *simplexState) update(leave int, w []float64) {
	if st.kidx[leave] < 0 {
		st.join(leave)
	}
	t := int(st.kidx[leave])
	rows, wk := st.visit[:0], st.wk // the kernel indexes the elimination changes
	for p, i := range st.kern {
		if wi := w[i]; wi != 0 && p != t {
			rows = append(rows, p)
			wk[p] = wi
		}
	}
	inv := 1.0 / w[leave]
	for q := range st.kern {
		col := st.kcol(q)
		if col[t] == 0 {
			continue
		}
		v := col[t] * inv
		col[t] = v
		for _, p := range rows {
			col[p] -= wk[p] * v
		}
	}
}

// join moves the trivial row k into the kernel with its basis unchanged, by
// bordering: B_KK gains row k of B_NK, r, and column k, e_k, so its inverse
// gains the row -r B_KK^{-1} and the column e_k. r holds the entries of the
// kernel's basic columns in row k.
func (st *simplexState) join(k int) {
	t := len(st.kern)
	st.grow(t+1, t)
	r, at := st.wk[:t], st.visit[:0]
	for p, i := range st.kern {
		rows, vals := st.sf.col(st.basis[i])
		for n, row := range rows { // ascending, a few entries
			if row >= k {
				if row == k {
					r[p] = vals[n]
					at = append(at, p)
				}
				break
			}
		}
	}
	for q := 0; q < t; q++ {
		col, sum := st.inv[q*st.stride:q*st.stride+t+1], 0.0
		for _, p := range at {
			sum += r[p] * col[p]
		}
		col[t] = -sum
	}
	st.kern = append(st.kern, k)
	st.kidx[k] = int32(t)
	col := st.inv[t*st.stride : t*st.stride+t+1]
	clear(col)
	col[t] = 1
}

// factor recomputes B_KK^{-1} and the basic solution from scratch, to limit
// accumulated floating point error on long runs. The kernel becomes the rows
// whose basic column is not their own unit column, in ascending order, and
// B_KK is inverted in the slab itself: read by rows the slab holds the
// transpose of what it holds by columns, so Gauss-Jordan with row interchanges
// (partial pivoting) on B_KK' there leaves (B_KK')^{-1}, which is B_KK^{-1} by
// columns. Then xB = [x_K; x_N] with x_K = B_KK^{-1} b_K and
// x_N = b_N - B_NK x_K.
func (st *simplexState) factor() error {
	sf := st.sf
	st.kern = st.kern[:0]
	for i, j := range st.basis {
		st.kidx[i] = -1
		if rows, vals := sf.col(j); len(rows) != 1 || rows[0] != i || vals[0] != 1 {
			st.kidx[i] = int32(len(st.kern))
			st.kern = append(st.kern, i)
		}
	}
	t := len(st.kern)
	st.grow(t, 0)
	// Row c of a is kernel column c restricted to the kernel rows.
	a := make([][]float64, t)
	for c, i := range st.kern {
		a[c] = st.kcol(c)
		clear(a[c])
		rows, vals := sf.col(st.basis[i])
		for k, r := range rows {
			if q := st.kidx[r]; q >= 0 {
				a[c][q] = vals[k]
			}
		}
	}
	// In-place Gauss-Jordan: step c scales the pivot row, whose entry c becomes
	// the inverse's, and eliminates column c from the other rows at the pivot
	// row's nonzero positions only (nz): the rest would subtract exact zeros.
	// swapped[c] is the row step c swapped in, undone on the columns at the end.
	swapped := st.visit[:t]
	nz := make([]int, 0, t)
	for c := 0; c < t; c++ {
		p := c
		best := math.Abs(a[c][c])
		for r := c + 1; r < t; r++ {
			if v := math.Abs(a[r][c]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-12 {
			return fmt.Errorf("lp: singular basis during refactorization (row %d)", st.kern[c])
		}
		swapped[c] = p
		if p != c {
			for k := range a[c] {
				a[c][k], a[p][k] = a[p][k], a[c][k]
			}
		}
		row := a[c]
		inv := 1.0 / row[c]
		row[c] = 1
		nz = nz[:0]
		for k, v := range row {
			if v != 0 {
				row[k] = v * inv
				nz = append(nz, k)
			}
		}
		for r := 0; r < t; r++ {
			f := a[r][c]
			if r == c || f == 0 {
				continue
			}
			ar := a[r]
			ar[c] = 0
			for _, k := range nz {
				ar[k] -= f * row[k]
			}
		}
	}
	for c := t - 1; c >= 0; c-- {
		if p := swapped[c]; p != c {
			for _, row := range a {
				row[c], row[p] = row[p], row[c]
			}
		}
	}
	// xB: the kernel rows by B_KK^{-1}'s columns in ascending order, then the
	// trivial rows less B_NK x_K.
	copy(st.xB, sf.b)
	xK := st.wk[:t]
	clear(xK)
	for q, row := range a {
		if bq := sf.b[st.kern[q]]; bq != 0 {
			for c, v := range row {
				xK[c] += v * bq
			}
		}
	}
	for c, i := range st.kern {
		st.xB[i] = xK[c]
		rows, vals := sf.col(st.basis[i])
		for k, r := range rows {
			if st.kidx[r] < 0 {
				st.xB[r] -= vals[k] * xK[c]
			}
		}
	}
	for i, s := range st.xB {
		if s < 0 && s > -1e-7 {
			st.xB[i] = 0
		}
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
	st.trivialDuals(cost)

	for st.iters < maxIters {
		y := st.btran(cost)
		d := st.price(cost, y)

		enter := -1
		bestRC := -st.tol
		for j := 0; j < excludeFrom; j++ {
			var rc float64
			if j < len(d) {
				rc = d[j]
			} else if st.inB[j] {
				continue // most slacks are basic: skip their pricing
			} else {
				rc = st.sf.unitCost(cost, y, j)
			}
			if rc < bestRC && !st.inB[j] {
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

		w := st.ftran(st.sf.col(enter))
		// Two-pass ratio test: find the minimum ratio, then among rows whose
		// ratio ties it (within tolerance) pick the one with the largest
		// pivot element; this keeps the basis well conditioned. Under Bland's
		// rule the smallest basic index is used instead to guarantee
		// termination. An entry at most tol·max(1, ‖w‖∞) bounds no step: that
		// small against the column's largest it is rounding noise, and a
		// pivot on it leaves a basis the next refactorization finds singular.
		floor := 1.0
		for _, v := range w {
			if v > floor {
				floor = v
			} else if -v > floor {
				floor = -v
			}
		}
		floor *= st.tol
		theta := math.Inf(1)
		for i := 0; i < st.sf.m; i++ {
			if w[i] <= floor {
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
			if w[i] <= floor {
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
			return &Solution{Status: status, Iterations: st.iters, Kernel: len(st.kern)}, err
		}
		// Allow a slightly looser tolerance for the infeasibility test:
		// phase-1 objective is a sum of m values each rounded at tol.
		if st.objective(phase1Cost) > o.Tolerance*float64(sf.m+1)*100 {
			return &Solution{Status: Infeasible, Iterations: st.iters, Kernel: len(st.kern)}, ErrInfeasible
		}
		st.driveOutArtificials()
	}

	status, err := st.runPhase(sf.c, sf.artStart, o.MaxIterations)
	if status != Optimal {
		return &Solution{Status: status, Iterations: st.iters, Kernel: len(st.kern)}, err
	}

	// The values, then the duals of p's rows from the final btran, sign-fixed
	// where a row was negated.
	values := make([]float64, sf.nOrig+sf.nCons)
	values, duals := values[:sf.nOrig:sf.nOrig], values[sf.nOrig:]
	copy(values, sf.shift)
	for i, j := range st.basis {
		if j < sf.nOrig {
			values[j] += st.xB[i]
		}
	}
	copy(duals, st.y)
	for _, i := range sf.negated {
		duals[i] = -duals[i]
	}
	obj := st.objective(sf.c) + sf.objConst
	if sf.negate {
		obj = -obj
	}
	return &Solution{
		Status:     Optimal,
		Objective:  obj,
		Iterations: st.iters,
		Kernel:     len(st.kern),
		values:     values,
		duals:      duals,
	}, nil
}
