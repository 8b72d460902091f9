package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/intervals"
	"coflowsched/internal/lp"
)

// Result carries a schedule together with the LP evidence produced while
// computing it.
type Result struct {
	// Schedule is the feasible circuit schedule.
	Schedule *coflow.CircuitSchedule
	// LPObjective is the optimal value of the interval-indexed LP.
	LPObjective float64
	// LowerBound is a certified lower bound on the optimal total weighted
	// coflow completion time: LPObjective / (1+ε) for formulations whose LP
	// relaxes every schedule (given paths and the exact arc-flow LP); for the
	// restricted candidate-path LP it lower-bounds the optimum over those
	// candidate routes.
	LowerBound float64
	// LPIterations is the number of simplex pivots used.
	LPIterations int
	// PathsPerFlow records, for every flow, how many distinct paths carried
	// positive LP mass (the paper's §4.3 observation is that this is 1 on
	// fat-trees).
	PathsPerFlow map[coflow.FlowRef]int
	// FlowOrder is the LP-derived priority order (coflows by LP completion,
	// flows within a coflow by their LP completion), used by practical mode.
	FlowOrder []coflow.FlowRef
	// ChosenPaths are the routes selected for each flow.
	ChosenPaths map[coflow.FlowRef]graph.Path
}

// Objective returns the schedule's total weighted coflow completion time.
func (r *Result) Objective(inst *coflow.Instance) float64 {
	return r.Schedule.Objective(inst)
}

// ApproximationRatio returns Objective / LowerBound (infinite when the lower
// bound is zero).
func (r *Result) ApproximationRatio(inst *coflow.Instance) float64 {
	if r.LowerBound <= 0 {
		return math.Inf(1)
	}
	return r.Objective(inst) / r.LowerBound
}

// circuitLP is the interval-indexed LP over a candidate path set per flow.
// Setting a single candidate per flow recovers the given-paths LP of §2.1;
// several candidates give the restricted (scalable) variant of §2.2.
type circuitLP struct {
	inst  *coflow.Instance
	opts  Options
	grid  *intervals.Grid
	refs  []coflow.FlowRef
	cands map[coflow.FlowRef][]graph.Path
	// relIdx is the earliest interval each flow may run in.
	relIdx map[coflow.FlowRef]int

	prob *lp.Problem
	// xvar[ref][p][ℓ] is the LP variable for the fraction of the flow
	// delivered over candidate p during interval ℓ (only ℓ >= relIdx).
	xvar map[coflow.FlowRef][][]lp.Var
	// coflowVar[i] is the completion-time variable of coflow i's dummy flow.
	coflowVar []lp.Var

	sol *lp.Solution
}

// slackRowMargin is how far below capacity the most a capacity row can ever
// carry must stay for buildCircuitLP to leave the row out. Every flow delivers
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
func edgeDemand(inst *coflow.Instance, refs []coflow.FlowRef, cands map[coflow.FlowRef][]graph.Path) []float64 {
	numEdges := inst.Network.NumEdges()
	demand := make([]float64, numEdges)
	// charged[e] crossings of e are already in demand[e] for flow owner[e]-1.
	charged, owner := make([]int, numEdges), make([]int, numEdges)
	for i, ref := range refs {
		size := inst.Flow(ref).Size
		for _, path := range cands[ref] {
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

// buildCircuitLP constructs (but does not solve) the LP. With dropSlackRows it
// leaves out the capacity rows that can never bind (slackRowMargin).
func buildCircuitLP(inst *coflow.Instance, cands map[coflow.FlowRef][]graph.Path, opts Options, dropSlackRows bool) (*circuitLP, error) {
	opts = opts.withDefaults()
	horizon := inst.TimeHorizon() * math.Pow(1+opts.Epsilon, float64(opts.Displacement+2))
	grid := intervals.New(opts.Epsilon, horizon)
	L := grid.NumIntervals()

	c := &circuitLP{
		inst:   inst,
		opts:   opts,
		grid:   grid,
		refs:   inst.FlowRefs(),
		cands:  cands,
		relIdx: make(map[coflow.FlowRef]int),
		prob:   lp.NewProblem(lp.Minimize),
		xvar:   make(map[coflow.FlowRef][][]lp.Var),
	}

	// Completion variable per coflow (the dummy flow f_{i0} of the
	// reformulation), carrying the coflow weight in the objective.
	c.coflowVar = make([]lp.Var, len(inst.Coflows))
	for i, cf := range inst.Coflows {
		c.coflowVar[i] = c.prob.AddVariable(fmt.Sprintf("C_%d", i), 0, lp.Inf, cf.Weight)
	}

	// x variables.
	for _, ref := range c.refs {
		f := inst.Flow(ref)
		paths := cands[ref]
		if len(paths) == 0 {
			return nil, fmt.Errorf("core: flow %s has no candidate paths", ref)
		}
		rel := grid.RoundUpRelease(f.Release)
		c.relIdx[ref] = rel
		perPath := make([][]lp.Var, len(paths))
		for p := range paths {
			perPath[p] = make([]lp.Var, L)
			for l := rel; l < L; l++ {
				perPath[p][l] = c.prob.AddVariable(
					fmt.Sprintf("x_%s_p%d_l%d", ref, p, l), 0, lp.Inf, 0)
			}
			for l := 0; l < rel; l++ {
				perPath[p][l] = -1 // not a variable: release constraint (9)/(22)
			}
		}
		c.xvar[ref] = perPath
	}

	// (4)/(15): every flow fully delivered; (5)+(6)/(16)+(17): completion of
	// the coflow dominates Σ τ_ℓ x of each of its flows.
	for _, ref := range c.refs {
		var sumTerms, timeTerms []lp.Term
		for p := range c.cands[ref] {
			for l := c.relIdx[ref]; l < L; l++ {
				v := c.xvar[ref][p][l]
				sumTerms = append(sumTerms, lp.Term{Var: v, Coef: 1})
				if lower := grid.Lower(l); lower > 0 {
					timeTerms = append(timeTerms, lp.Term{Var: v, Coef: lower})
				}
			}
		}
		c.prob.AddConstraint(fmt.Sprintf("deliver_%s", ref), lp.EQ, 1, sumTerms...)
		timeTerms = append(timeTerms, lp.Term{Var: c.coflowVar[ref.Coflow], Coef: -1})
		c.prob.AddConstraint(fmt.Sprintf("complete_%s", ref), lp.LE, 0, timeTerms...)
	}

	// (8)/(21): per-edge, per-interval capacity. Only edges appearing in some
	// candidate path need a constraint. The bandwidth used by x over interval
	// ℓ is σ · x / len(ℓ) (Lemma 1).
	var demand []float64
	if dropSlackRows {
		demand = edgeDemand(inst, c.refs, cands)
	}
	edgeTerms := make(map[graph.EdgeID][][]lp.Term) // edge -> interval -> terms
	for _, ref := range c.refs {
		f := inst.Flow(ref)
		for p, path := range c.cands[ref] {
			for _, e := range path {
				if edgeTerms[e] == nil {
					edgeTerms[e] = make([][]lp.Term, L)
				}
				for l := c.relIdx[ref]; l < L; l++ {
					if dropSlackRows && demand[e]/grid.Length(l) <= inst.Network.Capacity(e)*(1-slackRowMargin) {
						continue // the row cannot bind: it gets no terms and is not added
					}
					coef := f.Size / grid.Length(l)
					edgeTerms[e][l] = append(edgeTerms[e][l], lp.Term{Var: c.xvar[ref][p][l], Coef: coef})
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
	for _, e := range edges {
		perInterval := edgeTerms[e]
		capacity := inst.Network.Capacity(e)
		for l, terms := range perInterval {
			if len(terms) == 0 {
				continue
			}
			c.prob.AddConstraint(fmt.Sprintf("cap_e%d_l%d", e, l), lp.LE, capacity, terms...)
		}
	}
	return c, nil
}

// solve optimizes the LP.
func (c *circuitLP) solve() error {
	sol, err := c.prob.Solve(c.opts.LP)
	if err != nil {
		return fmt.Errorf("core: LP solve failed: %w", err)
	}
	c.sol = sol
	return nil
}

// value returns the LP value of x[ref][p][ℓ] (0 for pre-release intervals).
func (c *circuitLP) value(ref coflow.FlowRef, p, l int) float64 {
	v := c.xvar[ref][p][l]
	if v < 0 {
		return 0
	}
	x := c.sol.Value(v)
	if x < 0 {
		return 0
	}
	return x
}

// pathMass returns the total LP mass per candidate path of a flow.
func (c *circuitLP) pathMass(ref coflow.FlowRef) []float64 {
	masses := make([]float64, len(c.cands[ref]))
	for p := range c.cands[ref] {
		for l := 0; l < c.grid.NumIntervals(); l++ {
			masses[p] += c.value(ref, p, l)
		}
	}
	return masses
}

// alphaInterval returns the α-interval h of a flow: the earliest interval by
// whose end a cumulative α fraction of the flow is delivered in the LP.
func (c *circuitLP) alphaInterval(ref coflow.FlowRef, alpha float64) int {
	cum := 0.0
	for l := 0; l < c.grid.NumIntervals(); l++ {
		for p := range c.cands[ref] {
			cum += c.value(ref, p, l)
		}
		if cum >= alpha-1e-9 {
			return l
		}
	}
	return c.grid.NumIntervals() - 1
}

// flowLPCompletion returns Σ_ℓ τ_ℓ x of a flow — its fractional completion
// time in the LP.
func (c *circuitLP) flowLPCompletion(ref coflow.FlowRef) float64 {
	s := 0.0
	for l := 0; l < c.grid.NumIntervals(); l++ {
		for p := range c.cands[ref] {
			s += c.grid.Lower(l) * c.value(ref, p, l)
		}
	}
	return s
}

// lpOrder returns the LP-derived priority order: coflows sorted by their LP
// completion time (ties by index), flows within a coflow by their own LP
// completion time.
func (c *circuitLP) lpOrder() []coflow.FlowRef {
	type coflowKey struct {
		idx int
		c   float64
	}
	keys := make([]coflowKey, len(c.inst.Coflows))
	for i := range c.inst.Coflows {
		keys[i] = coflowKey{idx: i, c: c.sol.Value(c.coflowVar[i])}
	}
	sort.SliceStable(keys, func(a, b int) bool { return keys[a].c < keys[b].c })

	type flowKey struct {
		ref coflow.FlowRef
		c   float64
	}
	var order []coflow.FlowRef
	for _, k := range keys {
		cf := c.inst.Coflows[k.idx]
		flows := make([]flowKey, len(cf.Flows))
		for j := range cf.Flows {
			ref := coflow.FlowRef{Coflow: k.idx, Index: j}
			flows[j] = flowKey{ref: ref, c: c.flowLPCompletion(ref)}
		}
		sort.SliceStable(flows, func(a, b int) bool { return flows[a].c < flows[b].c })
		for _, f := range flows {
			order = append(order, f.ref)
		}
	}
	return order
}

// choosePath selects one path for a flow. In provable mode the choice is
// Raghavan–Thompson randomized rounding (probability proportional to LP
// mass); in thickest mode the path with the largest mass wins (the paper's
// practical implementation note).
func (c *circuitLP) choosePath(ref coflow.FlowRef, rng *rand.Rand, thickest bool) (graph.Path, int) {
	masses := c.pathMass(ref)
	total := 0.0
	positive := 0
	for _, m := range masses {
		if m > 1e-9 {
			positive++
		}
		total += m
	}
	if positive == 0 {
		return c.cands[ref][0], 1
	}
	if thickest || rng == nil {
		best := 0
		for p, m := range masses {
			if m > masses[best] {
				best = p
			}
		}
		return c.cands[ref][best], positive
	}
	r := rng.Float64() * total
	for p, m := range masses {
		r -= m
		if r <= 0 {
			return c.cands[ref][p], positive
		}
	}
	return c.cands[ref][len(masses)-1], positive
}

// roundProvable builds the interval-placed schedule of the paper's rounding
// step: every flow runs entirely within interval h_α + D of the grid at the
// constant rate needed to deliver its full size, on its chosen path. If the
// randomized path choices overload an edge (possible only in the free-path
// case), the whole schedule is stretched by the overload factor, mirroring
// the final scaling of §2.2.
func (c *circuitLP) roundProvable(rng *rand.Rand, thickest bool) (*coflow.CircuitSchedule, map[coflow.FlowRef]graph.Path, map[coflow.FlowRef]int) {
	cs := coflow.NewCircuitSchedule()
	chosen := make(map[coflow.FlowRef]graph.Path)
	pathsPerFlow := make(map[coflow.FlowRef]int)
	L := c.grid.NumIntervals()
	for _, ref := range c.refs {
		f := c.inst.Flow(ref)
		path, numPos := c.choosePath(ref, rng, thickest)
		chosen[ref] = path
		pathsPerFlow[ref] = numPos
		h := c.alphaInterval(ref, c.opts.Alpha)
		k := h + c.opts.Displacement
		if k >= L {
			k = L - 1
		}
		start, end := c.grid.Lower(k), c.grid.Upper(k)
		rate := f.Size / (end - start)
		cs.Set(ref, &coflow.FlowSchedule{
			Path:     path,
			Segments: []coflow.BandwidthSegment{{Start: start, End: end, Rate: rate}},
		})
	}
	if util := cs.MaxEdgeUtilization(c.inst); util > 1+1e-9 {
		cs.ScaleTime(util)
	}
	return cs, chosen, pathsPerFlow
}

// buildResult assembles a Result from a rounded schedule.
func (c *circuitLP) buildResult(cs *coflow.CircuitSchedule, chosen map[coflow.FlowRef]graph.Path, paths map[coflow.FlowRef]int) *Result {
	return &Result{
		Schedule:     cs,
		LPObjective:  c.sol.Objective,
		LowerBound:   c.sol.Objective / (1 + c.opts.Epsilon),
		LPIterations: c.sol.Iterations,
		PathsPerFlow: paths,
		FlowOrder:    c.lpOrder(),
		ChosenPaths:  chosen,
	}
}
