package core

import (
	"fmt"
	"math"
	"math/rand"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
)

// CircuitGivenPaths is the §2.1 scheduler: circuit-based coflows whose flows
// come with fixed paths. It builds the interval-indexed LP (4)–(10), rounds
// by α-points, and returns a feasible bandwidth schedule together with the
// LP lower bound.
type CircuitGivenPaths struct {
	Opts Options
}

// Name identifies the scheduler in experiment output.
func (CircuitGivenPaths) Name() string { return "LP-Circuit-GivenPaths" }

// ScheduleProvable runs the LP and the paper's interval-placement rounding.
// Every flow must carry a pre-assigned path.
func (s CircuitGivenPaths) ScheduleProvable(inst *coflow.Instance) (*Result, error) {
	clp, err := s.buildLP(inst)
	if err != nil {
		return nil, err
	}
	if err := clp.solve(); err != nil {
		return nil, err
	}
	cs, chosen, paths := clp.roundProvable(nil, true)
	return clp.buildResult(cs, chosen, paths), nil
}

// ScheduleASAP runs the LP and then the paper's §4.2 practical mode: flows
// are ordered by LP completion times and started as early as possible by the
// flow-level simulator.
func (s CircuitGivenPaths) ScheduleASAP(inst *coflow.Instance) (*Result, error) {
	clp, err := s.buildLP(inst)
	if err != nil {
		return nil, err
	}
	if err := clp.solve(); err != nil {
		return nil, err
	}
	return scheduleASAP(clp, inst, nil)
}

// Schedule satisfies the common scheduler signature used by the experiment
// harness; it runs the practical mode (as the paper's own experiments do).
func (s CircuitGivenPaths) Schedule(inst *coflow.Instance, _ *rand.Rand) (*coflow.CircuitSchedule, error) {
	res, err := s.ScheduleASAP(inst)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func (s CircuitGivenPaths) buildLP(inst *coflow.Instance) (*circuitLP, error) {
	if err := inst.Validate(false); err != nil {
		return nil, err
	}
	if !inst.HasPaths() {
		return nil, fmt.Errorf("core: CircuitGivenPaths requires every flow to carry a path")
	}
	cands := make(map[coflow.FlowRef][]graph.Path)
	for _, ref := range inst.FlowRefs() {
		cands[ref] = []graph.Path{inst.Flow(ref).Path}
	}
	return buildCircuitLP(inst, cands, s.Opts, false)
}

// CircuitFreePaths is the §2.2 scheduler in its scalable form: circuit-based
// coflows that need both routing and bandwidth assignment. Routing decisions
// are made over a per-flow set of shortest candidate paths (Options.
// CandidatePaths); the LP chooses a fractional routing and schedule, and the
// rounding step picks a single path per flow by Raghavan–Thompson randomized
// rounding. For the exact arc-flow formulation of §2.2 (no candidate
// restriction, O(log|E|/log log|E|) guarantee) see CircuitFreePathsExact.
type CircuitFreePaths struct {
	Opts Options
}

// Name identifies the scheduler; the experiments call this scheme "LP-Based".
func (CircuitFreePaths) Name() string { return "LP-Based" }

// ScheduleProvable runs the LP, randomized path rounding and interval
// placement, and returns the schedule plus LP evidence. rng drives the
// randomized rounding.
func (s CircuitFreePaths) ScheduleProvable(inst *coflow.Instance, rng *rand.Rand) (*Result, error) {
	clp, err := s.buildLP(inst)
	if err != nil {
		return nil, err
	}
	if err := clp.solve(); err != nil {
		return nil, err
	}
	cs, chosen, paths := clp.roundProvable(rng, false)
	return clp.buildResult(cs, chosen, paths), nil
}

// ScheduleASAP runs the LP, picks the thickest path per flow, orders flows by
// LP completion times and starts each as early as possible in the simulator
// (the paper's experimental configuration).
func (s CircuitFreePaths) ScheduleASAP(inst *coflow.Instance, rng *rand.Rand) (*Result, error) {
	clp, err := s.buildLP(inst)
	if err != nil {
		return nil, err
	}
	if err := clp.solve(); err != nil {
		return nil, err
	}
	return scheduleASAP(clp, inst, rng)
}

// Schedule satisfies the common scheduler signature; practical mode.
func (s CircuitFreePaths) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	res, err := s.ScheduleASAP(inst, rng)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func (s CircuitFreePaths) buildLP(inst *coflow.Instance) (*circuitLP, error) {
	if err := inst.Validate(false); err != nil {
		return nil, err
	}
	opts := s.Opts.withDefaults()
	cands := make(map[coflow.FlowRef][]graph.Path)
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		if f.Path != nil {
			cands[ref] = []graph.Path{f.Path}
			continue
		}
		paths := inst.Network.KShortestPathsCached(f.Source, f.Dest, opts.CandidatePaths)
		if len(paths) == 0 {
			return nil, fmt.Errorf("core: no path from %d to %d for flow %s", f.Source, f.Dest, ref)
		}
		cands[ref] = paths
	}
	return buildCircuitLP(inst, cands, opts, true)
}

// scheduleASAP implements the practical mode shared by both circuit
// schedulers: flows are ordered by their LP completion times, each flow picks
// one of its LP-supported paths (load-aware among near-tied masses, so
// symmetric fat-tree paths spread out instead of colliding), and the
// flow-level simulator starts every flow as early as it can.
func scheduleASAP(clp *circuitLP, inst *coflow.Instance, rng *rand.Rand) (*Result, error) {
	order := clp.lpOrder()
	candidates := make(map[coflow.FlowRef][]graph.WeightedPath)
	pathsPerFlow := make(map[coflow.FlowRef]int)
	for _, ref := range clp.refs {
		masses := clp.pathMass(ref)
		var wps []graph.WeightedPath
		positive := 0
		for p, m := range masses {
			if m > 1e-9 {
				positive++
				wps = append(wps, graph.WeightedPath{Path: clp.cands[ref][p], Amount: m})
			}
		}
		if len(wps) == 0 {
			wps = []graph.WeightedPath{{Path: clp.cands[ref][0], Amount: 1}}
			positive = 1
		}
		candidates[ref] = wps
		pathsPerFlow[ref] = positive
	}
	chosen := loadAwareSelect(inst, order, candidates)
	cs, err := sim.Run(inst, sim.Config{Paths: chosen, Order: order, Policy: sim.Priority})
	if err != nil {
		return nil, fmt.Errorf("core: simulating ASAP schedule: %w", err)
	}
	res := clp.buildResult(cs, chosen, pathsPerFlow)
	res.FlowOrder = order
	_ = rng
	return res, nil
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
