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
	"coflowsched/internal/sim"
)

// massTol is the LP mass below which a route counts as numerical noise of the
// solve (graph.DecomposeFlow extracts nothing thinner either).
const massTol = 1e-9

// routing is the part of an interval-indexed LP a formulation keeps to itself:
// how a flow's fractional delivery is tied to the network's edges. Everything
// else — grid, completion variables, delivery and completion rows, solve,
// α-points, LP order, path choice, placement, the ASAP pipeline — is
// intervalLP's and is written once.
type routing interface {
	// size returns how many variables flowVars adds over all flows, and how
	// many rows addRows adds and terms it passes them, so that the LP's arrays
	// are made once, at their final size. It runs once m.rel is set, before
	// any variable is added.
	size(m *intervalLP) (vars, rows, terms int)
	// flowVars adds flow i's variables for the intervals from rel on and
	// returns its delivery variables: the fraction of the flow delivered in
	// interval l is the sum of the variables at [l] (none before rel). Every
	// interval from rel on has the same number of them.
	flowVars(m *intervalLP, i, rel int) [][]lp.Var
	// addRows adds the routing and capacity rows; intervalLP has added every
	// flow's deliver_ and complete_ row by then.
	addRows(m *intervalLP)
	// routes returns, once the LP is solved, the routes it sent flow i over
	// and the mass on each.
	routes(m *intervalLP, i int) []graph.WeightedPath
	// fallback is the route for a flow whose routes all carry less than
	// massTol.
	fallback(m *intervalLP, i int) graph.Path
	// varName names the k-th variable flowVars added for flow i, rowName the
	// k-th row addRows added (names.go).
	varName(m *intervalLP, i, k int) string
	rowName(m *intervalLP, k int) string
}

// intervalLP is the paper's interval-indexed LP in every form the schedulers
// use it, and once solved the source of everything the roundings read off it.
type intervalLP struct {
	inst *coflow.Instance
	opts Options
	grid *intervals.Grid
	// refs are the flows in instance order; the per-flow slices below share
	// their index.
	refs []coflow.FlowRef
	// rel[i] is the earliest interval flow i may run in: release constraints
	// (9)/(22) hold because earlier intervals get no variables.
	rel []int

	prob *lp.Problem
	// coflowVar[c] is the completion-time variable of coflow c's dummy flow.
	coflowVar []lp.Var
	// deliver[i][l] are flow i's delivery variables in interval l.
	deliver [][][]lp.Var
	routing routing

	sol *lp.Solution
}

// buildIntervalLP constructs (but does not solve) the LP of inst, whose flows
// in instance order are refs, over r's routing block. Variables go in as
// completion times, then flow by flow; rows as delivery and completion flow by
// flow, then the block's own. Row and column order steer the simplex's
// pivoting, so they are part of the pinned output; names.go reads the names
// off them. The problem's arrays are grown once to the counts of the
// variables, and then of the rows and terms, before they fill.
func buildIntervalLP(inst *coflow.Instance, refs []coflow.FlowRef, opts Options, r routing) *intervalLP {
	opts = opts.withDefaults()
	horizon := inst.TimeHorizon() * math.Pow(1+opts.Epsilon, float64(opts.Displacement+2))
	m := &intervalLP{
		inst:    inst,
		opts:    opts,
		grid:    intervals.New(opts.Epsilon, horizon),
		refs:    refs,
		prob:    lp.NewProblem(),
		routing: r,
	}
	m.prob.SetNames(m)
	L := m.grid.NumIntervals()

	m.rel = make([]int, len(m.refs))
	for i, ref := range m.refs {
		m.rel[i] = m.grid.RoundUpRelease(inst.Flow(ref).Release)
	}
	vars, rows, terms := r.size(m)
	m.prob.Grow(len(inst.Coflows)+vars, 0, 0)

	// Completion variable per coflow (the dummy flow f_{i0} of the
	// reformulation), carrying the coflow weight in the objective.
	m.coflowVar = make([]lp.Var, len(inst.Coflows))
	for c, cf := range inst.Coflows {
		m.coflowVar[c] = m.prob.AddVariable(cf.Weight)
	}
	m.deliver = make([][][]lp.Var, len(m.refs))
	for i := range m.refs {
		m.deliver[i] = r.flowVars(m, i, m.rel[i])
	}

	// (4)/(15): every flow fully delivered; (5)+(6)/(16)+(17): completion of
	// the coflow dominates Σ τ_ℓ x of each of its flows. The delivery row has
	// every delivery variable, the completion row those of the intervals that
	// start after 0 and the coflow's.
	for i := range m.refs {
		timed := 0
		for l := m.rel[i]; l < L; l++ {
			if m.grid.Lower(l) > 0 {
				timed++
			}
		}
		terms += len(m.deliver[i][m.rel[i]])*(L-m.rel[i]+timed) + 1
	}
	m.prob.Grow(0, 2*len(m.refs)+rows, terms)
	var sumTerms, timeTerms []lp.Term // reused: AddConstraint copies a row's terms
	for i, ref := range m.refs {
		sumTerms, timeTerms = sumTerms[:0], timeTerms[:0]
		for p := range m.deliver[i][m.rel[i]] {
			for l := m.rel[i]; l < L; l++ {
				v := m.deliver[i][l][p]
				sumTerms = append(sumTerms, lp.Term{Var: v, Coef: 1})
				if lower := m.grid.Lower(l); lower > 0 {
					timeTerms = append(timeTerms, lp.Term{Var: v, Coef: lower})
				}
			}
		}
		m.prob.AddConstraint(lp.EQ, 1, sumTerms...)
		timeTerms = append(timeTerms, lp.Term{Var: m.coflowVar[ref.Coflow], Coef: -1})
		m.prob.AddConstraint(lp.LE, 0, timeTerms...)
	}

	r.addRows(m)
	return m
}

// solved optimizes a freshly built LP; it takes a builder's two results so
// that a scheduler reads build → solve → round.
func solved(m *intervalLP, err error) (*intervalLP, error) {
	if err != nil {
		return nil, err
	}
	sol, err := m.prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("core: LP solve failed: %w", err)
	}
	m.sol = sol
	return m, nil
}

// value returns the LP value of v, with the solver's negative noise cut off.
func (m *intervalLP) value(v lp.Var) float64 {
	x := m.sol.Value(v)
	if x < 0 {
		return 0
	}
	return x
}

// evidence returns what every result reports of the LP: its optimum, the
// lower bound that follows from it — LPObjective / (1+ε), the price of
// rounding release times up to the grid — and the simplex's pivot count.
func (m *intervalLP) evidence() (objective, lowerBound float64, pivots int) {
	return m.sol.Objective, m.sol.Objective / (1 + m.opts.Epsilon), m.sol.Iterations
}

// alphaInterval returns the α-interval h of flow i: the earliest interval by
// whose end a cumulative α fraction of the flow is delivered in the LP.
func (m *intervalLP) alphaInterval(i int) int {
	cum := 0.0
	for l, vars := range m.deliver[i] {
		for _, v := range vars {
			cum += m.value(v)
		}
		if cum >= m.opts.Alpha-1e-9 {
			return l
		}
	}
	return m.grid.NumIntervals() - 1
}

// flowLPCompletion returns Σ_ℓ τ_ℓ x of flow i — its fractional completion
// time in the LP.
func (m *intervalLP) flowLPCompletion(i int) float64 {
	s := 0.0
	for l, vars := range m.deliver[i] {
		for _, v := range vars {
			s += m.grid.Lower(l) * m.value(v)
		}
	}
	return s
}

// lpOrder returns the LP-derived priority order: coflows sorted by their LP
// completion time (ties by index), flows within a coflow by their own LP
// completion time.
func (m *intervalLP) lpOrder() []coflow.FlowRef {
	type key struct {
		idx int
		c   float64
	}
	byCompletion := func(keys []key) {
		sort.SliceStable(keys, func(a, b int) bool { return keys[a].c < keys[b].c })
	}
	coflows := make([]key, len(m.inst.Coflows))
	first := make([]int, len(coflows)) // first[c] indexes coflow c's first flow in refs
	for c := range coflows {
		coflows[c] = key{idx: c, c: m.sol.Value(m.coflowVar[c])}
		if c > 0 {
			first[c] = first[c-1] + len(m.inst.Coflows[c-1].Flows)
		}
	}
	byCompletion(coflows)

	order := make([]coflow.FlowRef, 0, len(m.refs))
	for _, k := range coflows {
		flows := make([]key, len(m.inst.Coflows[k.idx].Flows))
		for j := range flows {
			i := first[k.idx] + j
			flows[j] = key{idx: i, c: m.flowLPCompletion(i)}
		}
		byCompletion(flows)
		for _, f := range flows {
			order = append(order, m.refs[f.idx])
		}
	}
	return order
}

// fallbackRoute is flow i's route when the solution shows none.
func (m *intervalLP) fallbackRoute(i int) (graph.Path, error) {
	if p := m.routing.fallback(m, i); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("core: no path recovered for flow %s", m.refs[i])
}

// choosePath selects one route for flow i and reports how many of its routes
// carry LP mass: by Raghavan–Thompson randomized rounding (probability
// proportional to mass) when given an rng, else the route with the largest
// mass (the paper's practical implementation note).
func (m *intervalLP) choosePath(i int, rng *rand.Rand) (graph.Path, int, error) {
	routes := m.routing.routes(m, i)
	total := 0.0
	positive, best := 0, 0
	for p, wp := range routes {
		if wp.Amount > massTol {
			positive++
		}
		if wp.Amount > routes[best].Amount {
			best = p
		}
		total += wp.Amount
	}
	if positive == 0 {
		path, err := m.fallbackRoute(i)
		return path, 1, err
	}
	if rng == nil {
		return routes[best].Path, positive, nil
	}
	r := rng.Float64() * total
	for _, wp := range routes {
		r -= wp.Amount
		if r <= 0 {
			return wp.Path, positive, nil
		}
	}
	return routes[len(routes)-1].Path, positive, nil
}

// roundProvable is the paper's rounding step: every flow runs entirely within
// interval h_α + D of the grid at the constant rate that delivers its full
// size, on its chosen path. If the path choices overload an edge (possible
// only when the LP routed a flow over several), the whole schedule is
// stretched by the overload factor, mirroring the final scaling of §2.2.
func (m *intervalLP) roundProvable(rng *rand.Rand) (*Result, error) {
	cs := coflow.NewCircuitSchedule()
	chosen := make(map[coflow.FlowRef]graph.Path)
	pathsPerFlow := make(map[coflow.FlowRef]int)
	for i, ref := range m.refs {
		path, positive, err := m.choosePath(i, rng)
		if err != nil {
			return nil, err
		}
		chosen[ref] = path
		pathsPerFlow[ref] = positive
		k := min(m.alphaInterval(i)+m.opts.Displacement, m.grid.NumIntervals()-1)
		start, end := m.grid.Lower(k), m.grid.Upper(k)
		cs.Set(ref, &coflow.FlowSchedule{
			Path:     path,
			Segments: []coflow.BandwidthSegment{{Start: start, End: end, Rate: m.inst.Flow(ref).Size / (end - start)}},
		})
	}
	if util := cs.MaxEdgeUtilization(m.inst); util > 1+1e-9 {
		cs.ScaleTime(util)
	}
	return m.buildResult(cs, m.lpOrder(), chosen, pathsPerFlow), nil
}

// scheduleASAP is the practical mode of §4.2: flows are ordered by their LP
// completion times, each flow picks one of its LP-supported routes (load-aware
// among near-tied masses, so symmetric fat-tree paths spread out instead of
// colliding), and the flow-level simulator starts every flow as early as it
// can.
func (m *intervalLP) scheduleASAP() (*Result, error) {
	order := m.lpOrder()
	candidates := make(map[coflow.FlowRef][]graph.WeightedPath)
	pathsPerFlow := make(map[coflow.FlowRef]int)
	for i, ref := range m.refs {
		var wps []graph.WeightedPath
		for _, wp := range m.routing.routes(m, i) {
			if wp.Amount > massTol {
				wps = append(wps, wp)
			}
		}
		if len(wps) == 0 {
			path, err := m.fallbackRoute(i)
			if err != nil {
				return nil, err
			}
			wps = []graph.WeightedPath{{Path: path, Amount: 1}}
		}
		candidates[ref] = wps
		pathsPerFlow[ref] = len(wps)
	}
	chosen := loadAwareSelect(m.inst, order, candidates)
	cs, err := sim.Run(m.inst, sim.Config{Paths: chosen, Order: order, Policy: sim.Priority})
	if err != nil {
		return nil, fmt.Errorf("core: simulating ASAP schedule: %w", err)
	}
	return m.buildResult(cs, order, chosen, pathsPerFlow), nil
}

// buildResult assembles a Result from a rounded schedule.
func (m *intervalLP) buildResult(cs *coflow.CircuitSchedule, order []coflow.FlowRef, chosen map[coflow.FlowRef]graph.Path, paths map[coflow.FlowRef]int) *Result {
	res := &Result{Schedule: cs, PathsPerFlow: paths, FlowOrder: order, ChosenPaths: chosen}
	res.LPObjective, res.LowerBound, res.LPIterations = m.evidence()
	return res
}

// loadAwareSelect fixes one path per flow from its LP-supported candidates.
// Flows are processed in priority order; each takes the candidate that
// minimizes the resulting bottleneck load (size-weighted, relative to edge
// capacity), breaking ties toward larger LP mass and then fewer hops. This is
// the integral counterpart of the LP's fractional load balancing: when the LP
// splits a flow across symmetric equal-cost paths, successive flows fan out
// across them instead of piling onto the first.
func loadAwareSelect(inst *coflow.Instance, order []coflow.FlowRef, candidates map[coflow.FlowRef][]graph.WeightedPath) map[coflow.FlowRef]graph.Path {
	load := make([]float64, inst.Network.NumEdges())
	chosen := make(map[coflow.FlowRef]graph.Path, len(order))
	for _, ref := range order {
		f := inst.Flow(ref)
		cands := candidates[ref]
		bestIdx := 0
		bestMax, bestSum, bestMass := math.Inf(1), math.Inf(1), -1.0
		for i, wp := range cands {
			maxLoad, sumLoad := 0.0, 0.0
			for _, e := range wp.Path {
				l := (load[e] + f.Size) / inst.Network.Capacity(e)
				sumLoad += l
				if l > maxLoad {
					maxLoad = l
				}
			}
			better := false
			switch {
			case maxLoad < bestMax-1e-12:
				better = true
			case maxLoad < bestMax+1e-12 && wp.Amount > bestMass+1e-12:
				better = true
			case maxLoad < bestMax+1e-12 && wp.Amount > bestMass-1e-12 && sumLoad < bestSum-1e-12:
				better = true
			}
			if better {
				bestIdx, bestMax, bestSum, bestMass = i, maxLoad, sumLoad, wp.Amount
			}
		}
		p := cands[bestIdx].Path
		chosen[ref] = p
		for _, e := range p {
			load[e] += f.Size
		}
	}
	return chosen
}
