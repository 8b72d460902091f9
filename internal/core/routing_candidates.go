package core

import (
	"fmt"
	"sort"

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
	// dropSlackRows leaves out the capacity rows that can never bind
	// (slackRowMargin).
	dropSlackRows bool
	// edgeTerms is what addRows gathered: per edge some candidate crosses and
	// per interval, the capacity row's terms (none: no row). rowName reads the
	// rows' order off it.
	edgeTerms map[graph.EdgeID][][]lp.Term
}

// candidateLP builds the candidate-path LP of inst, validated as packets or as
// circuits. A flow's candidates are its pre-assigned path alone where it has
// one. With free set, a flow without a path gets opts.CandidatePaths shortest
// candidates and the capacity rows that can never bind are left out; without
// it every flow must carry its path and every row is kept (ROADMAP queued gain
// (e) has what the row presolve would move there).
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
	return buildIntervalLP(inst, refs, opts, &candidateRouting{cands: cands, dropSlackRows: free}), nil
}

func (r *candidateRouting) flowVars(m *intervalLP, i, rel int) [][]lp.Var {
	L := m.grid.NumIntervals()
	deliver := make([][]lp.Var, L)
	for l := rel; l < L; l++ {
		deliver[l] = make([]lp.Var, len(r.cands[i]))
	}
	for p := range r.cands[i] {
		for l := rel; l < L; l++ {
			deliver[l][p] = m.prob.AddVariable(0, lp.Inf, 0)
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
// (enter, leave, theta) with and without the row, bit for bit, up to its first
// refactorization — whose Gauss-Jordan arithmetic depends on m — and ends on
// the same optimum to rounding after it. The margin is there for the ratio
// test's tie window, 1e-9·(1+theta): the step leaves the row's slack at least
// 1e-6·capacity, so its ratio ties the minimum only if its direction entry w
// has w·(1+theta) above 1 000 capacities. TestRowPresolveMatchesFullLP and
// FuzzRowPresolve hold the argument to what the solver does.
const slackRowMargin = 1e-6

// edgeDemand returns, per edge, the most size the flows can ever send over it:
// each flow counts once, however many of its candidates cross the edge, at the
// most crossings any single candidate makes (one, unless a pre-assigned path
// revisits the edge).
func edgeDemand(inst *coflow.Instance, refs []coflow.FlowRef, cands [][]graph.Path) []float64 {
	numEdges := inst.Network.NumEdges()
	demand := make([]float64, numEdges)
	// charged[e] crossings of e are already in demand[e] for flow owner[e]-1.
	charged, owner := make([]int, numEdges), make([]int, numEdges)
	for i, ref := range refs {
		size := inst.Flow(ref).Size
		for _, path := range cands[i] {
			for _, e := range path {
				if owner[e] != i+1 {
					owner[e], charged[e] = i+1, 0
				}
				crossings := 0
				for _, other := range path {
					if other == e {
						crossings++
					}
				}
				if crossings > charged[e] {
					demand[e] += size * float64(crossings-charged[e])
					charged[e] = crossings
				}
			}
		}
	}
	return demand
}

// addRows adds (8)/(21): per-edge, per-interval capacity. Only edges appearing
// in some candidate path need a constraint. The bandwidth used by x over
// interval ℓ is σ · x / len(ℓ) (Lemma 1).
func (r *candidateRouting) addRows(m *intervalLP) {
	L := m.grid.NumIntervals()
	var demand []float64
	if r.dropSlackRows {
		demand = edgeDemand(m.inst, m.refs, r.cands)
	}
	edgeTerms := make(map[graph.EdgeID][][]lp.Term) // edge -> interval -> terms
	for i, ref := range m.refs {
		size := m.inst.Flow(ref).Size
		for p, path := range r.cands[i] {
			for _, e := range path {
				if edgeTerms[e] == nil {
					edgeTerms[e] = make([][]lp.Term, L)
				}
				for l := m.rel[i]; l < L; l++ {
					if r.dropSlackRows && demand[e]/m.grid.Length(l) <= m.inst.Network.Capacity(e)*(1-slackRowMargin) {
						continue // the row cannot bind: it gets no terms and is not added
					}
					coef := size / m.grid.Length(l)
					edgeTerms[e][l] = append(edgeTerms[e][l], lp.Term{Var: m.deliver[i][l][p], Coef: coef})
				}
			}
		}
	}
	// Add capacity constraints in edge order: constraint order steers simplex
	// pivoting, and ranging over the map directly would make tied LP optima —
	// and thus the rounded schedule — vary from run to run.
	edges := make([]graph.EdgeID, 0, len(edgeTerms))
	for e := range edgeTerms {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	r.edgeTerms = edgeTerms
	for _, e := range edges {
		capacity := m.inst.Network.Capacity(e)
		for _, terms := range edgeTerms[e] {
			if len(terms) == 0 {
				continue
			}
			m.prob.AddConstraint(lp.LE, capacity, terms...)
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
