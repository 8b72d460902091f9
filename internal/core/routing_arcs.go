package core

import (
	"fmt"

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

func (r *arcRouting) flowVars(m *intervalLP, i, rel int) [][]lp.Var {
	L, E := m.grid.NumIntervals(), m.inst.Network.NumEdges()
	deliver, ys := make([][]lp.Var, L), make([][]lp.Var, L)
	for l := rel; l < L; l++ {
		deliver[l] = []lp.Var{m.prob.AddVariable(fmt.Sprintf("x_%s_l%d", m.refs[i], l), 0, lp.Inf, 0)}
		ys[l] = make([]lp.Var, E)
		for e := range ys[l] {
			ys[l][e] = m.prob.AddVariable(fmt.Sprintf("y_%s_l%d_e%d", m.refs[i], l, e), 0, lp.Inf, 0)
		}
	}
	if r.y == nil {
		r.y = make([][][]lp.Var, len(m.refs))
	}
	r.y[i] = ys
	return deliver
}

// addRows adds flow conservation (18)–(20), per flow and interval, and
// capacity (21), per edge and interval.
func (r *arcRouting) addRows(m *intervalLP) {
	g := m.inst.Network
	L := m.grid.NumIntervals()
	for i, ref := range m.refs {
		f := m.inst.Flow(ref)
		for l := m.rel[i]; l < L; l++ {
			ys := r.y[i][l]
			// net is Σ y over plus minus Σ y over minus.
			net := func(plus, minus []graph.EdgeID) []lp.Term {
				var terms []lp.Term
				for _, e := range plus {
					terms = append(terms, lp.Term{Var: ys[e], Coef: 1})
				}
				for _, e := range minus {
					terms = append(terms, lp.Term{Var: ys[e], Coef: -1})
				}
				return terms
			}
			// Net flow into the destination, and out of the source, equals the
			// bandwidth σ x / len(ℓ) of what the interval delivers.
			delivered := lp.Term{Var: m.deliver[i][l][0], Coef: -f.Size / m.grid.Length(l)}
			m.prob.AddConstraint(fmt.Sprintf("dest_%s_l%d", ref, l), lp.EQ, 0,
				append(net(g.In(f.Dest), g.Out(f.Dest)), delivered)...)
			m.prob.AddConstraint(fmt.Sprintf("src_%s_l%d", ref, l), lp.EQ, 0,
				append(net(g.Out(f.Source), g.In(f.Source)), delivered)...)
			// Conservation at every other node.
			for v := 0; v < g.NumNodes(); v++ {
				node := graph.NodeID(v)
				if node == f.Source || node == f.Dest {
					continue
				}
				if terms := net(g.Out(node), g.In(node)); len(terms) > 0 {
					m.prob.AddConstraint(fmt.Sprintf("cons_%s_l%d_v%d", ref, l, v), lp.EQ, 0, terms...)
				}
			}
		}
	}
	for l := 0; l < L; l++ {
		for e := 0; e < g.NumEdges(); e++ {
			var terms []lp.Term
			for i := range m.refs {
				if l >= m.rel[i] {
					terms = append(terms, lp.Term{Var: r.y[i][l][e], Coef: 1})
				}
			}
			if len(terms) > 0 {
				m.prob.AddConstraint(fmt.Sprintf("cap_e%d_l%d", e, l), lp.LE, g.Capacity(graph.EdgeID(e)), terms...)
			}
		}
	}
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
