// Package baselines implements the competing heuristics the paper evaluates
// against in §4.3, plus one extension:
//
//   - Baseline: flows are routed and ordered randomly.
//   - ScheduleOnly: flows are routed randomly; ordering is by minimum
//     completion time (flow size divided by the bandwidth of its path).
//   - RouteOnly: flows are routed for load balance and edge utilization;
//     ordering is arbitrary (instance order).
//   - SEBF: an extension baseline in the spirit of Varys' Smallest Effective
//     Bottleneck First, ordering coflows by their bottleneck completion time.
//
// Every heuristic picks a path and a priority order per flow and hands both
// to the flow-level simulator (internal/sim), exactly as in the paper's
// experimental methodology.
package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
)

// candidatePaths is the number of shortest paths considered per flow when
// choosing a route.
const candidatePaths = 4

// Baseline routes and orders flows uniformly at random.
type Baseline struct{}

// Name implements the scheduler naming convention used by the experiment
// harness.
func (Baseline) Name() string { return "Baseline" }

// Schedule picks a random candidate path and a random order for every flow
// and simulates the result.
func (Baseline) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	paths, err := randomRoutes(inst, rng)
	if err != nil {
		return nil, err
	}
	order := inst.FlowRefs()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return sim.Run(inst, sim.Config{Paths: paths, Order: order, Policy: sim.Priority})
}

// ScheduleOnly routes randomly but orders flows by their minimum completion
// time (size over path bottleneck bandwidth), shortest first.
type ScheduleOnly struct{}

// Name identifies the heuristic.
func (ScheduleOnly) Name() string { return "Schedule-only" }

// Schedule implements the heuristic.
func (ScheduleOnly) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	paths, err := randomRoutes(inst, rng)
	if err != nil {
		return nil, err
	}
	order := inst.FlowRefs()
	mct := make(map[coflow.FlowRef]float64, len(order))
	for _, ref := range order {
		f := inst.Flow(ref)
		bw := paths[ref].MinCapacity(inst.Network)
		if bw <= 0 {
			bw = 1
		}
		mct[ref] = f.Size / bw
	}
	sort.SliceStable(order, func(i, j int) bool { return mct[order[i]] < mct[order[j]] })
	return sim.Run(inst, sim.Config{Paths: paths, Order: order, Policy: sim.Priority})
}

// RouteOnly routes flows to balance load across links (greedy minimum
// marginal congestion over a candidate path set) but keeps an arbitrary
// (instance) order.
type RouteOnly struct{}

// Name identifies the heuristic.
func (RouteOnly) Name() string { return "Route-only" }

// Schedule implements the heuristic.
func (RouteOnly) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	paths, err := loadBalancedRoutes(inst)
	if err != nil {
		return nil, err
	}
	order := inst.FlowRefs()
	return sim.Run(inst, sim.Config{Paths: paths, Order: order, Policy: sim.Priority})
}

// SEBF orders coflows by smallest effective bottleneck (the load each coflow
// places on its most congested link, divided by coflow weight) and routes
// flows for load balance. It is not part of the paper's comparison but is a
// natural Varys-style reference point for general topologies.
type SEBF struct{}

// Name identifies the heuristic.
func (SEBF) Name() string { return "SEBF" }

// Schedule implements the heuristic.
func (SEBF) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	paths, err := loadBalancedRoutes(inst)
	if err != nil {
		return nil, err
	}
	// Effective bottleneck per coflow: load it places on its busiest edge.
	gamma := make([]float64, len(inst.Coflows))
	for i, cf := range inst.Coflows {
		loads := make([]graph.PathLoad, len(cf.Flows))
		for j := range cf.Flows {
			loads[j] = graph.PathLoad{Path: paths[coflow.FlowRef{Coflow: i, Index: j}], Volume: cf.Flows[j].Size}
		}
		gamma[i] = inst.Network.BottleneckTime(loads)
		if cf.Weight > 0 {
			gamma[i] /= cf.Weight
		}
	}
	coflowOrder := make([]int, len(inst.Coflows))
	for i := range coflowOrder {
		coflowOrder[i] = i
	}
	sort.SliceStable(coflowOrder, func(a, b int) bool { return gamma[coflowOrder[a]] < gamma[coflowOrder[b]] })
	var order []coflow.FlowRef
	for _, ci := range coflowOrder {
		for j := range inst.Coflows[ci].Flows {
			order = append(order, coflow.FlowRef{Coflow: ci, Index: j})
		}
	}
	return sim.Run(inst, sim.Config{Paths: paths, Order: order, Policy: sim.Priority})
}

// FairSharing gives every flow its max-min fair share with shortest-path
// routing; it reproduces the "everything shares fairly" strawman of the
// paper's Figure 1 (s1) and serves as an additional reference point.
type FairSharing struct{}

// Name identifies the heuristic.
func (FairSharing) Name() string { return "Fair-sharing" }

// Schedule implements the heuristic.
func (FairSharing) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	paths := make(map[coflow.FlowRef]graph.Path)
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		p := f.Path
		if p == nil {
			p = inst.Network.ShortestPath(f.Source, f.Dest)
		}
		if p == nil {
			return nil, fmt.Errorf("baselines: no path for flow %s", ref)
		}
		paths[ref] = p
	}
	return sim.Run(inst, sim.Config{Paths: paths, Policy: sim.FairShare})
}

// randomRoutes picks, for every flow, one of its shortest candidate paths
// uniformly at random (or the flow's pre-assigned path when present —
// "routing" is then a no-op, matching the paths-given problem variant).
func randomRoutes(inst *coflow.Instance, rng *rand.Rand) (map[coflow.FlowRef]graph.Path, error) {
	paths := make(map[coflow.FlowRef]graph.Path)
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		if f.Path != nil {
			paths[ref] = f.Path
			continue
		}
		cands := inst.Network.KShortestPathsCached(f.Source, f.Dest, candidatePaths)
		if len(cands) == 0 {
			return nil, fmt.Errorf("baselines: no path from %d to %d", f.Source, f.Dest)
		}
		paths[ref] = cands[rng.Intn(len(cands))]
	}
	return paths, nil
}

// loadBalancedRoutes assigns each flow the candidate path that minimizes the
// resulting maximum edge load (size-weighted), processing flows in
// decreasing-size order as is usual for greedy load balancing.
func loadBalancedRoutes(inst *coflow.Instance) (map[coflow.FlowRef]graph.Path, error) {
	refs := inst.FlowRefs()
	sort.SliceStable(refs, func(i, j int) bool {
		return inst.Flow(refs[i]).Size > inst.Flow(refs[j]).Size
	})
	load := make([]float64, inst.Network.NumEdges())
	paths := make(map[coflow.FlowRef]graph.Path)
	for _, ref := range refs {
		f := inst.Flow(ref)
		var cands []graph.Path
		if f.Path != nil {
			cands = []graph.Path{f.Path}
		} else {
			cands = inst.Network.KShortestPathsCached(f.Source, f.Dest, candidatePaths)
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("baselines: no path from %d to %d", f.Source, f.Dest)
		}
		bestIdx := 0
		bestMax, bestSum := -1.0, 0.0
		for i, p := range cands {
			maxLoad, sumLoad := 0.0, 0.0
			for _, e := range p {
				l := (load[e] + f.Size) / inst.Network.Capacity(e)
				sumLoad += l
				if l > maxLoad {
					maxLoad = l
				}
			}
			// Minimize the bottleneck utilization; break ties by total load so
			// equal-cost multipaths spread out instead of piling onto the
			// first candidate.
			if bestMax < 0 || maxLoad < bestMax-1e-12 ||
				(maxLoad < bestMax+1e-12 && sumLoad < bestSum-1e-12) {
				bestMax, bestSum = maxLoad, sumLoad
				bestIdx = i
			}
		}
		chosen := cands[bestIdx]
		for _, e := range chosen {
			load[e] += f.Size
		}
		paths[ref] = chosen
	}
	return paths, nil
}
