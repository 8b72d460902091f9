package lp

import (
	"fmt"
	"math"
)

// standardForm is the computational form of a Problem:
//
//	minimize c'x  subject to  Ax = b, x >= 0, b >= 0
//
// where columns 0..nOrig-1 are the original variables, followed by
// slack/surplus columns and finally artificial columns. A is held by column in
// one arena: column j's entries are rows[colStart[j]:colStart[j+1]] and the
// same range of vals, in ascending row order. Its rows are p's constraints,
// and pricing reads them by row (simplexState.price): row i is p.rowTerms(i),
// negated where i is in negated. Row and column indexes are 32-bit, which
// bounds the arena at math.MaxInt32 entries.
type standardForm struct {
	m, n     int
	nOrig    int
	artStart int // first artificial column index; n if none

	colStart []int32
	rows     []int32
	vals     []float64
	c        []float64 // phase-2 costs
	b        []float64
	basis0   []int32 // basis0[i] = row i's initial basic column, its slack or its artificial

	p       *Problem
	negated []int32 // the rows whose right-hand side was negative, ascending
}

// col returns column j of A: its rows and their values.
func (sf *standardForm) col(j int) ([]int32, []float64) {
	lo, hi := sf.colStart[j], sf.colStart[j+1]
	return sf.rows[lo:hi], sf.vals[lo:hi]
}

// buildStandardForm converts p into equality standard form with nonnegative
// right-hand sides, adding slack/surplus columns, and artificial columns where
// no natural unit column exists. It counts each column's entries first and
// then fills the arena row by row.
func buildStandardForm(p *Problem) *standardForm {
	nOrig, m := len(p.obj), len(p.cons)
	sf := &standardForm{
		m:     m,
		nOrig: nOrig,
		b:     make([]float64, m),
		p:     p,
	}

	// Count: each structural column's entries, and the right-hand sides, not
	// yet sign-normalized.
	count := make([]int32, nOrig)
	negated := 0
	for i, con := range p.cons {
		for _, t := range p.rowTerms(i) {
			count[t.Var]++
		}
		sf.b[i] = con.rhs
		if con.rhs < 0 {
			negated++
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
	if nnz := len(p.terms) + nSlack + nArt; nnz > math.MaxInt32 {
		panic(fmt.Sprintf("lp: %d nonzeros in the standard form, more than its 32-bit indexes hold", nnz))
	}
	sf.n = n
	sf.artStart = nOrig + nSlack
	// The row lists pricing reads and the initial basis share colStart's
	// allocation.
	starts := make([]int32, n+1+negated+m)
	sf.colStart, sf.negated, sf.basis0 = starts[:n+1:n+1], starts[n+1:n+1:n+1+negated], starts[n+1+negated:]
	for j := 0; j < n; j++ {
		entries := int32(1) // a slack or artificial column
		if j < nOrig {
			entries = count[j]
		}
		sf.colStart[j+1] = sf.colStart[j] + entries
	}
	sf.rows = make([]int32, sf.colStart[n])
	sf.vals = make([]float64, sf.colStart[n])
	sf.c = make([]float64, n)
	copy(sf.c, p.obj)

	// Fill, row by row so that every column lists its rows in ascending order;
	// count[j] is now where column j's next entry goes. A row whose right-hand
	// side is negative is negated.
	copy(count, sf.colStart)
	for i := range p.cons {
		flip := 1.0
		if sf.b[i] < 0 {
			flip = -1
			sf.negated = append(sf.negated, int32(i))
		}
		for _, t := range p.rowTerms(i) {
			k := count[t.Var]
			sf.rows[k], sf.vals[k] = int32(i), t.Coef*flip
			count[t.Var]++
		}
	}
	// A slack whose coefficient is +1 is its row's initial basic variable;
	// every other row gets an artificial, which starts basic.
	slack, art := int32(nOrig), int32(sf.artStart)
	for i := 0; i < m; i++ {
		s := p.slackCoef(i, sf.b[i])
		if s != 0 {
			sf.rows[sf.colStart[slack]], sf.vals[sf.colStart[slack]] = int32(i), s
			if s > 0 {
				sf.basis0[i] = slack
			}
			slack++
		}
		if s <= 0 {
			sf.rows[sf.colStart[art]], sf.vals[sf.colStart[art]] = int32(i), 1
			sf.basis0[i] = art
			art++
		}
		if sf.b[i] < 0 {
			sf.b[i] = -sf.b[i]
		}
	}
	return sf
}

// slackCoef returns the coefficient of standard-form row i's slack once the
// row is negated where its right-hand side rhs is negative: +1 for an LE row
// and -1 for a GE row before that, 0 for an equality, which has no slack.
func (p *Problem) slackCoef(i int, rhs float64) float64 {
	s := 0.0
	switch p.cons[i].op {
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

// unitCost returns the reduced cost of column j >= nOrig, a slack or an
// artificial: c_j less its one entry v, in row r, times y_r.
func (sf *standardForm) unitCost(cost, y []float64, j int) float64 {
	k := sf.colStart[j]
	return cost[j] - y[sf.rows[k]]*sf.vals[k]
}
