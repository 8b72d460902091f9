package core

import (
	"coflowsched/internal/graph"
	"coflowsched/internal/lp"
)

// arcRouting is the routing block of the exact arc-flow LP (15)–(23): besides
// one delivery variable per interval a flow has a bandwidth variable per edge
// and interval, tied to its delivery by flow conservation, so routing is
// unrestricted. The LP has Θ(|F| · |E| · L) variables.
type arcRouting struct {
	// y[i][l][e] is the bandwidth flow i takes on edge e during interval l
	// (none before the flow's release interval).
	y [][][]lp.Var
}

// size counts 1 + |E| variables per interval from the release on, and the
// rows that rows visits with their terms: a capacity row has one per flow
// released by its interval, a conservation row one per edge at its node and,
// at the flow's two ends, its delivery variable.
func (r *arcRouting) size(m *intervalLP) (vars, rows, terms int) {
	g, L := m.inst.Network, m.grid.NumIntervals()
	for i := range m.refs {
		vars += (L - m.rel[i]) * (1 + g.NumEdges())
	}
	r.rows(m, func(kind string, _, l, x int) {
		rows++
		if kind == "cap" {
			for i := range m.refs {
				if l >= m.rel[i] {
					terms++
				}
			}
			return
		}
		terms += len(g.Out(graph.NodeID(x))) + len(g.In(graph.NodeID(x)))
		if kind != "cons" {
			terms++
		}
	})
	return vars, rows, terms
}

func (r *arcRouting) flowVars(m *intervalLP, i, rel int) [][]lp.Var {
	L, E := m.grid.NumIntervals(), m.inst.Network.NumEdges()
	deliver, ys := make([][]lp.Var, L), make([][]lp.Var, L)
	for l := rel; l < L; l++ {
		deliver[l] = []lp.Var{m.prob.AddVariable(0)}
		ys[l] = make([]lp.Var, E)
		for e := range ys[l] {
			ys[l][e] = m.prob.AddVariable(0)
		}
	}
	if r.y == nil {
		r.y = make([][][]lp.Var, len(m.refs))
	}
	r.y[i] = ys
	return deliver
}

// rows calls visit for every row of the block in LP order: flow conservation
// (18)–(20) per flow i and interval l — at its destination ("dest"), at its
// source ("src") and at every other node x that has an edge ("cons") — and
// then capacity (21) per interval, from the earliest release on, and edge x
// ("cap"). addRows fills the rows in and rowName names them.
func (r *arcRouting) rows(m *intervalLP, visit func(kind string, i, l, x int)) {
	g, L := m.inst.Network, m.grid.NumIntervals()
	first := L
	for i, ref := range m.refs {
		f := m.inst.Flow(ref)
		first = min(first, m.rel[i])
		for l := m.rel[i]; l < L; l++ {
			visit("dest", i, l, int(f.Dest))
			visit("src", i, l, int(f.Source))
			for v := 0; v < g.NumNodes(); v++ {
				if node := graph.NodeID(v); node != f.Source && node != f.Dest && len(g.Out(node))+len(g.In(node)) > 0 {
					visit("cons", i, l, v)
				}
			}
		}
	}
	for l := first; l < L; l++ {
		for e := 0; e < g.NumEdges(); e++ {
			visit("cap", -1, l, e)
		}
	}
}

func (r *arcRouting) addRows(m *intervalLP) {
	g := m.inst.Network
	var terms []lp.Term // reused: AddConstraint copies a row's terms
	r.rows(m, func(kind string, i, l, x int) {
		terms = terms[:0]
		if kind == "cap" {
			for i := range m.refs {
				if l >= m.rel[i] {
					terms = append(terms, lp.Term{Var: r.y[i][l][x], Coef: 1})
				}
			}
			m.prob.AddConstraint(lp.LE, g.Capacity(graph.EdgeID(x)), terms...)
			return
		}
		// Net flow out of the node — into it at the destination — is zero, or
		// at the flow's two ends the bandwidth σ x / len(ℓ) of what the interval
		// delivers.
		plus, minus := g.Out(graph.NodeID(x)), g.In(graph.NodeID(x))
		if kind == "dest" {
			plus, minus = minus, plus
		}
		for _, e := range plus {
			terms = append(terms, lp.Term{Var: r.y[i][l][e], Coef: 1})
		}
		for _, e := range minus {
			terms = append(terms, lp.Term{Var: r.y[i][l][e], Coef: -1})
		}
		if kind != "cons" {
			terms = append(terms, lp.Term{Var: m.deliver[i][l][0], Coef: -m.inst.Flow(m.refs[i]).Size / m.grid.Length(l)})
		}
		m.prob.AddConstraint(lp.EQ, 0, terms...)
	})
}

// routes aggregates flow i's fractional routing over all intervals into the
// volume (bandwidth × interval length) it sends over each edge and applies
// the flow decomposition theorem to it.
func (r *arcRouting) routes(m *intervalLP, i int) []graph.WeightedPath {
	vol := make([]float64, m.inst.Network.NumEdges())
	for l := m.rel[i]; l < m.grid.NumIntervals(); l++ {
		for e, y := range r.y[i][l] {
			if v := m.sol.Value(y); v > 1e-12 {
				vol[e] += v * m.grid.Length(l)
			}
		}
	}
	f := m.inst.Flow(m.refs[i])
	return m.inst.Network.DecomposeFlow(f.Source, f.Dest, vol)
}

// fallback is a shortest path: the LP routed nothing detectable.
func (r *arcRouting) fallback(m *intervalLP, i int) graph.Path {
	f := m.inst.Flow(m.refs[i])
	return m.inst.Network.ShortestPath(f.Source, f.Dest)
}
