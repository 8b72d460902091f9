package core

import (
	"fmt"
	"slices"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/lp"
)

// candidateRouting is the routing block of the candidate-path LP: a flow
// routes over a fixed set of candidate paths and has one delivery variable
// per candidate and interval, which doubles as the bandwidth it takes on the
// candidate's edges. A single candidate per flow is the given-paths LP of
// §2.1; several are the restricted (scalable) variant of §2.2.
type candidateRouting struct {
	// cands[i] are flow i's candidate paths.
	cands [][]graph.Path
	// everyRow keeps the capacity rows that can never bind too. Only tests
	// set it: the LP with every row is the presolve's differential oracle
	// (withEveryRow). The zero value leaves those rows out (kept).
	everyRow bool
	// The crossings size counts the capacity rows over and addRows fills them
	// from, edge e's being crossings[start[e]:start[e+1]].
	start     []int
	crossings []crossing
	// capRows are the capacity rows addRows added, in LP order; rowName reads
	// a row's name off it.
	capRows []capRow
}

// crossing is one crossing of an edge by candidate cand of flow flow.
type crossing struct{ flow, cand int }

// capRow is the capacity row of edge e in interval l.
type capRow struct {
	e graph.EdgeID
	l int
}

// name is the row's name in the candidate-path LP.
func (r capRow) name() string { return fmt.Sprintf("cap_e%d_l%d", r.e, r.l) }

// candidateLP builds the candidate-path LP of inst, validated as packets or as
// circuits, without the capacity rows that can never bind (kept). A flow's
// candidates are its pre-assigned path alone where it has one. With free set,
// a flow without a path gets opts.CandidatePaths shortest candidates; without
// it every flow must carry its path.
func candidateLP(inst *coflow.Instance, opts Options, packet, free bool) (*intervalLP, error) {
	if err := inst.Validate(packet); err != nil {
		return nil, err
	}
	refs, k := inst.FlowRefs(), opts.withDefaults().CandidatePaths
	cands := make([][]graph.Path, len(refs))
	for i, ref := range refs {
		f := inst.Flow(ref)
		switch {
		case f.Path != nil:
			cands[i] = []graph.Path{f.Path}
		case !free:
			return nil, fmt.Errorf("core: flow %s carries no path, and this scheduler takes paths as given", ref)
		default:
			cands[i] = inst.Network.KShortestPathsCached(f.Source, f.Dest, k)
		}
		if len(cands[i]) == 0 {
			return nil, fmt.Errorf("core: no path from %d to %d for flow %s", f.Source, f.Dest, ref)
		}
	}
	return buildIntervalLP(inst, refs, opts, &candidateRouting{cands: cands}), nil
}

func (r *candidateRouting) flowVars(m *intervalLP, i, rel int) [][]lp.Var {
	L, P := m.grid.NumIntervals(), len(r.cands[i])
	deliver := make([][]lp.Var, L)
	vars := make([]lp.Var, (L-rel)*P)
	for l := rel; l < L; l++ {
		deliver[l] = vars[(l-rel)*P : (l-rel+1)*P]
	}
	for p := 0; p < P; p++ {
		for l := rel; l < L; l++ {
			deliver[l][p] = m.prob.AddVariable(0)
		}
	}
	return deliver
}

// slackRowMargin is how far below capacity the most a capacity row can ever
// carry must stay for addRows to leave the row out. Every flow delivers
// Σx = 1 with x >= 0 — and Σx + artificial = 1 in phase 1 — so in every basic
// feasible solution of either phase row (e, ℓ) carries at most demand[e] / |ℓ|
// (edgeDemand). Where that is at most capacity·(1 - margin) the row's slack is
// basic and at least margin·capacity throughout the solve: it cannot reach
// zero, so the row never attains the ratio test's minimum; its slack costs
// nothing, so its dual is exactly 0 and every reduced cost gains an exact zero
// from it; its column of the basis inverse stays e_k, so it changes no other
// row's arithmetic; and taking rows and slack columns out keeps the relative
// order of the rest, which is all that Dantzig's, Bland's and the
// largest-pivot tie-breaks read. The simplex therefore takes the same pivots
// (enter, leave, theta) with and without the row, bit for bit, and ends on the
// same optimum, refactorizations included: a refactorization inverts only the
// kernel, the rows whose basic column is not their own unit column, which
// the row with its slack basic never joins. The margin is there for the ratio
// test's tie window, 1e-9·(1+theta): the step leaves the row's slack at least
// 1e-6·capacity, so its ratio ties the minimum only if its direction entry w
// has w·(1+theta) above 1 000 capacities. TestRowPresolveMatchesFullLP,
// TestGivenPathPresolveMatchesFullLP, FuzzRowPresolve and FuzzResidualLP hold
// the argument to what the solver does.
const slackRowMargin = 1e-6

// edgeDemand returns the most size the flows can ever send over edge e: each
// flow counts once, however many of its candidates cross the edge, at the most
// crossings any single candidate makes (one, unless a pre-assigned path
// revisits the edge). It reads the edge's crossings, whose runs are one
// (flow, candidate) each, in flow and candidate order.
func (r *candidateRouting) edgeDemand(m *intervalLP, e int) float64 {
	edge := r.crossings[r.start[e]:r.start[e+1]]
	// charged crossings of e are already in demand for the run's flow.
	demand, charged := 0.0, 0
	for k := 0; k < len(edge); {
		c, n := edge[k], 1
		for k+n < len(edge) && edge[k+n] == c {
			n++
		}
		if k == 0 || edge[k-1].flow != c.flow {
			charged = 0
		}
		if n > charged {
			demand += m.inst.Flow(m.refs[c.flow]).Size * float64(n-charged)
			charged = n
		}
		k += n
	}
	return demand
}

// size counts P variables per interval from the release on for a flow of P
// candidates, and the capacity rows addRows adds with their terms: row (e, ℓ),
// unless it cannot bind, has a term per crossing of e by a flow released by ℓ,
// and is added if it has any. It indexes the crossings of every edge —
// (flow, candidate) once per time the candidate crosses it — counted first and
// then filled in flow, candidate and path order, which is the order of a row's
// terms.
func (r *candidateRouting) size(m *intervalLP) (vars, rows, terms int) {
	g, L := m.inst.Network, m.grid.NumIntervals()
	for i, paths := range r.cands {
		vars += (L - m.rel[i]) * len(paths)
	}
	r.start = make([]int, g.NumEdges()+1)
	for _, paths := range r.cands {
		for _, path := range paths {
			for _, e := range path {
				r.start[e+1]++
			}
		}
	}
	for e := range g.NumEdges() {
		r.start[e+1] += r.start[e]
	}
	r.crossings = make([]crossing, r.start[g.NumEdges()])
	next := slices.Clone(r.start[:g.NumEdges()])
	for i, paths := range r.cands {
		for p, path := range paths {
			for _, e := range path {
				r.crossings[next[e]] = crossing{i, p}
				next[e]++
			}
		}
	}
	// released[ℓ] is how many of an edge's crossings belong to flows released
	// at ℓ; summed over ℓ it is the row's term count.
	released := make([]int, L)
	for e := range g.NumEdges() {
		clear(released)
		for _, c := range r.crossings[r.start[e]:r.start[e+1]] {
			released[m.rel[c.flow]]++
		}
		demand, n := r.edgeDemand(m, e), 0
		for l := range L {
			n += released[l]
			if n > 0 && r.kept(m, e, l, demand) {
				rows++
				terms += n
			}
		}
	}
	r.capRows = make([]capRow, 0, rows)
	return vars, rows, terms
}

// kept reports whether the capacity row of edge e in interval l goes in, given
// the edge's demand: it is left out where it can never bind (slackRowMargin),
// unless everyRow.
func (r *candidateRouting) kept(m *intervalLP, e, l int, demand float64) bool {
	return r.everyRow || !(demand/m.grid.Length(l) <= m.inst.Network.Capacity(graph.EdgeID(e))*(1-slackRowMargin))
}

// addRows adds (8)/(21): per-edge, per-interval capacity. Only edges appearing
// in some candidate path need a constraint. The bandwidth used by x over
// interval ℓ is σ · x / len(ℓ) (Lemma 1). Rows go in edge order and, per edge,
// interval order: row order steers simplex pivoting.
func (r *candidateRouting) addRows(m *intervalLP) {
	g, L := m.inst.Network, m.grid.NumIntervals()
	widest := 0
	for e := range g.NumEdges() {
		widest = max(widest, r.start[e+1]-r.start[e])
	}
	terms := make([]lp.Term, 0, widest)
	for e := range g.NumEdges() {
		edge := graph.EdgeID(e)
		capacity, demand := g.Capacity(edge), r.edgeDemand(m, e)
		for l := range L {
			if !r.kept(m, e, l, demand) {
				continue // the row cannot bind: it is not added
			}
			terms = terms[:0]
			for _, c := range r.crossings[r.start[e]:r.start[e+1]] {
				if l >= m.rel[c.flow] {
					coef := m.inst.Flow(m.refs[c.flow]).Size / m.grid.Length(l)
					terms = append(terms, lp.Term{Var: m.deliver[c.flow][l][c.cand], Coef: coef})
				}
			}
			if len(terms) > 0 {
				r.capRows = append(r.capRows, capRow{edge, l})
				m.prob.AddConstraint(lp.LE, capacity, terms...)
			}
		}
	}
}

// routes returns flow i's candidates, each with its total LP mass.
func (r *candidateRouting) routes(m *intervalLP, i int) []graph.WeightedPath {
	wps := make([]graph.WeightedPath, len(r.cands[i]))
	for p, path := range r.cands[i] {
		wps[p].Path = path
		for l := m.rel[i]; l < m.grid.NumIntervals(); l++ {
			wps[p].Amount += m.value(m.deliver[i][l][p])
		}
	}
	return wps
}

func (r *candidateRouting) fallback(_ *intervalLP, i int) graph.Path { return r.cands[i][0] }
