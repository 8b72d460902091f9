package lp

import (
	"fmt"
	"math"
)

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
	basis []int32 // basis[i] = column basic in row i
	inB   []bool  // inB[j] = column j is basic
	// kern lists the kernel rows, kidx inverts it. A row joins the kernel when
	// it first leaves the basis and stays until factor, which keeps only the
	// rows whose basic column is not their own unit column.
	kern []int32
	kidx []int32 // kidx[i] = index of row i in kern, -1 while row i is trivial
	// inv holds B_KK^{-1} by column in one slab of stride x stride floats,
	// stride >= T: entry (p, q), for kernel indexes p and q, is
	// inv[q*stride+p]. grow widens the stride by half when the kernel fills it.
	inv    []float64
	stride int
	xB     []float64 // basic variable values
	w      []float64 // what ftran returns: scratch, valid until the next call
	y      []float64 // what btran returns; trivialDuals keeps its trivial rows
	d      []float64 // what price returns, as w
	wk     []float64 // scratch by kernel index: ftran's w_K, btran's c_K - B_NK'y_N, update's w, join's r, factor's x_K
	visit  []int32   // scratch of btran, update, join and factor: kernel indexes
	// touched lists the rows of w the last ftran wrote, each once: w is
	// exactly 0 in every other row. seen marks the trivial rows among them.
	// The ratio test, pivot's step and the next ftran's clear visit these rows
	// only, not all m.
	touched []int32
	seen    []bool
	iters   int
	// What the solve went through, for the tests that must show their LPs
	// reach each path: pivots under Bland's rule, refactorizations, and
	// artificials driven out after phase 1.
	blandPivots, refactors, drivenOut int
	onPivot                           func() // when set, runs after every pivot: tests check the inverse there
}

// initialStride is the kernel size the first slab holds.
const initialStride = 16

func newSimplexState(sf *standardForm) *simplexState {
	m := sf.m
	scratch := make([]float64, 4*m+sf.nOrig)
	idx := make([]int32, 5*m)
	flags := make([]bool, sf.n+m)
	st := &simplexState{
		sf:      sf,
		basis:   idx[:m:m],
		inB:     flags[:sf.n:sf.n],
		kern:    idx[m : m : 2*m],
		kidx:    idx[2*m : 3*m : 3*m],
		xB:      scratch[:m:m],
		w:       scratch[m : 2*m : 2*m],
		y:       scratch[2*m : 3*m : 3*m],
		wk:      scratch[3*m : 4*m : 4*m],
		d:       scratch[4*m:],
		visit:   idx[3*m : 3*m : 4*m],
		touched: idx[4*m : 4*m : 5*m],
		seen:    flags[sf.n:],
	}
	for i := range st.kidx {
		st.kidx[i] = -1
	}
	copy(st.xB, sf.b)
	copy(st.basis, sf.basis0)
	for _, j := range st.basis {
		st.inB[j] = true
	}
	return st
}

// grow makes the slab hold a kernel of t rows, widening its stride by half,
// rounded up to a multiple of 8, as often as that takes, and copying the
// first keep columns, T floats each. The slab starts at initialStride: the
// kernel of most LPs stays far below m, so no bound known before the solve
// sizes it better (only m bounds T).
func (st *simplexState) grow(t, keep int) {
	if t <= st.stride {
		return
	}
	stride := max(st.stride, initialStride)
	for stride < t {
		stride = (stride + stride/2 + 7) &^ 7
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
// then w_N = a_N - B_NK w_K. It lists the rows it writes in touched: a's
// trivial rows, the kernel rows where w_K is nonzero and the trivial rows
// their basic columns meet. It clears only the rows the last call listed.
func (st *simplexState) ftran(rows []int32, vals []float64) []float64 {
	w, wk, seen := st.w, st.wk[:len(st.kern)], st.seen
	for _, i := range st.touched {
		w[i], seen[i] = 0, false
	}
	touched := st.touched[:0]
	clear(wk)
	for k, r := range rows {
		v := vals[k]
		if v == 0 {
			continue
		}
		q := st.kidx[r]
		if q < 0 {
			if !seen[r] {
				seen[r] = true
				touched = append(touched, r)
			}
			w[r] += v
			continue
		}
		for p, x := range st.kcol(int(q)) {
			wk[p] += x * v
		}
	}
	for p, i := range st.kern {
		wp := wk[p]
		if wp == 0 {
			continue
		}
		w[i] = wp
		touched = append(touched, i)
		rows, vals := st.sf.col(int(st.basis[i]))
		for k, r := range rows {
			if st.kidx[r] < 0 {
				if !seen[r] {
					seen[r] = true
					touched = append(touched, r)
				}
				w[r] -= vals[k] * wp
			}
		}
	}
	st.touched = touched
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
		j := int(st.basis[i])
		c := cost[j]
		rows, vals := st.sf.col(j)
		for k, r := range rows {
			if st.kidx[r] < 0 && y[r] != 0 {
				c -= y[r] * vals[k]
			}
		}
		ck[p] = c
		if c != 0 {
			nz = append(nz, int32(p))
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

// pivot performs the basis change: column enter becomes basic in row leave,
// using the direction w = B^{-1} A_enter the last ftran returned and step
// theta. Only the rows ftran wrote move: w is 0 in the others.
func (st *simplexState) pivot(enter, leave int, w []float64, theta float64) {
	if theta != 0 { // a degenerate step moves nothing, and every xB is clamped already
		for _, i := range st.touched {
			if int(i) == leave {
				continue
			}
			st.xB[i] -= theta * w[i]
			if st.xB[i] < 0 && st.xB[i] > -tolerance {
				st.xB[i] = 0
			}
		}
	}
	st.xB[leave] = theta
	st.update(leave, w)
	st.inB[st.basis[leave]] = false
	st.basis[leave] = int32(enter)
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
			rows = append(rows, int32(p))
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
		rows, vals := st.sf.col(int(st.basis[i]))
		for n, row := range rows { // ascending, a few entries
			if int(row) >= k {
				if int(row) == k {
					r[p] = vals[n]
					at = append(at, int32(p))
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
	st.kern = append(st.kern, int32(k))
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
		if rows, vals := sf.col(int(j)); len(rows) != 1 || int(rows[0]) != i || vals[0] != 1 {
			st.kidx[i] = int32(len(st.kern))
			st.kern = append(st.kern, int32(i))
		}
	}
	t := len(st.kern)
	st.grow(t, 0)
	// Row c of a is kernel column c restricted to the kernel rows.
	a := make([][]float64, t)
	for c, i := range st.kern {
		a[c] = st.kcol(c)
		clear(a[c])
		rows, vals := sf.col(int(st.basis[i]))
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
		swapped[c] = int32(p)
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
		if p := int(swapped[c]); p != c {
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
		rows, vals := sf.col(int(st.basis[i]))
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
