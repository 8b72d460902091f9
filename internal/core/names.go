package core

import (
	"fmt"
	"sort"

	"coflowsched/internal/lp"
)

// VariableName implements lp.Names: C_<c> for the coflows' completion times,
// then what the routing block calls the variable within its flow's block (a
// flow's first variable is its first delivery variable, in both blocks).
func (m *intervalLP) VariableName(v lp.Var) string {
	if int(v) < len(m.coflowVar) {
		return fmt.Sprintf("C_%d", v)
	}
	first := func(i int) lp.Var { return m.deliver[i][m.rel[i]][0] }
	i := sort.Search(len(m.refs), func(i int) bool { return first(i) > v }) - 1
	return m.routing.varName(m, i, int(v-first(i)))
}

// ConstraintName implements lp.Names: deliver_ and complete_ flow by flow,
// then the routing block's rows.
func (m *intervalLP) ConstraintName(k int) string {
	if i := k / 2; i < len(m.refs) {
		return [2]string{"deliver_", "complete_"}[k%2] + m.refs[i].String()
	}
	return m.routing.rowName(m, k-2*len(m.refs))
}

// varName: candidate by candidate, each over the intervals from the release on.
func (r *candidateRouting) varName(m *intervalLP, i, k int) string {
	span := m.grid.NumIntervals() - m.rel[i]
	return fmt.Sprintf("x_%s_p%d_l%d", m.refs[i], k/span, m.rel[i]+k%span)
}

// rowName: the capacity rows addRows recorded.
func (r *candidateRouting) rowName(m *intervalLP, k int) string {
	return r.capRows[k].name()
}

// varName: interval by interval, the delivery variable and then one bandwidth
// variable per edge.
func (r *arcRouting) varName(m *intervalLP, i, k int) string {
	per := 1 + m.inst.Network.NumEdges()
	if k%per == 0 {
		return fmt.Sprintf("x_%s_l%d", m.refs[i], m.rel[i]+k/per)
	}
	return fmt.Sprintf("y_%s_l%d_e%d", m.refs[i], m.rel[i]+k/per, k%per-1)
}

func (r *arcRouting) rowName(m *intervalLP, k int) (name string) {
	r.rows(m, func(kind string, i, l, x int) {
		if k--; k != -1 {
			return
		}
		switch kind {
		case "cap":
			name = fmt.Sprintf("cap_e%d_l%d", x, l)
		case "cons":
			name = fmt.Sprintf("cons_%s_l%d_v%d", m.refs[i], l, x)
		default:
			name = fmt.Sprintf("%s_%s_l%d", kind, m.refs[i], l)
		}
	})
	return name
}
