package core

import (
	"math"
	"math/rand"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
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

// CircuitGivenPaths is the §2.1 scheduler: circuit-based coflows whose flows
// come with fixed paths. It builds the interval-indexed LP (4)–(10), rounds
// by α-points, and returns a feasible bandwidth schedule together with the
// LP lower bound.
type CircuitGivenPaths struct {
	Opts Options
}

func (s CircuitGivenPaths) buildLP(inst *coflow.Instance) (*intervalLP, error) {
	return candidateLP(inst, s.Opts, false, false)
}

// ScheduleProvable runs the LP and the paper's interval-placement rounding.
// Every flow must carry a pre-assigned path.
func (s CircuitGivenPaths) ScheduleProvable(inst *coflow.Instance) (*Result, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.roundProvable(nil)
}

// ScheduleASAP runs the LP and then the paper's §4.2 practical mode: flows
// are ordered by LP completion times and started as early as possible by the
// flow-level simulator.
func (s CircuitGivenPaths) ScheduleASAP(inst *coflow.Instance) (*Result, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.scheduleASAP()
}

// Order runs the LP and returns only its priority order — Result.FlowOrder of
// either mode, without the rounding that an online policy would throw away.
func (s CircuitGivenPaths) Order(inst *coflow.Instance) ([]coflow.FlowRef, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.lpOrder(), nil
}

// scheduleOf keeps a result's schedule.
func scheduleOf(res *Result, err error) (*coflow.CircuitSchedule, error) {
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
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

func (s CircuitFreePaths) buildLP(inst *coflow.Instance) (*intervalLP, error) {
	return candidateLP(inst, s.Opts, false, true)
}

// ScheduleProvable runs the LP, randomized path rounding and interval
// placement, and returns the schedule plus LP evidence. rng drives the
// randomized rounding.
func (s CircuitFreePaths) ScheduleProvable(inst *coflow.Instance, rng *rand.Rand) (*Result, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.roundProvable(rng)
}

// ScheduleASAP runs the LP, picks among each flow's LP-supported paths, orders
// flows by LP completion times and starts each as early as possible in the
// simulator (the paper's experimental configuration). It draws nothing from
// rng.
func (s CircuitFreePaths) ScheduleASAP(inst *coflow.Instance, _ *rand.Rand) (*Result, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.scheduleASAP()
}

// Schedule satisfies the common scheduler signature; practical mode.
func (s CircuitFreePaths) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	return scheduleOf(s.ScheduleASAP(inst, rng))
}

// CircuitFreePathsExact is the paper's §2.2 algorithm in its exact form: the
// interval-indexed LP (15)–(23) carries one flow variable per (flow, edge,
// interval), so routing is unrestricted. The rounding step aggregates and
// scales each flow's fractional routing, applies the flow decomposition
// theorem, and picks a single path by Raghavan–Thompson randomized rounding;
// overloaded edges are repaired by stretching the schedule, giving the
// O(log |E| / log log |E|) guarantee.
//
// The LP has Θ(|F| · |E| · L) variables, so this formulation is intended for
// small networks (it is the reference implementation used by tests and the
// Table 1 experiment); CircuitFreePaths is the scalable variant.
type CircuitFreePathsExact struct {
	Opts Options
}

// Name identifies the scheduler.
func (CircuitFreePathsExact) Name() string { return "LP-Based-Exact" }

func (s CircuitFreePathsExact) buildLP(inst *coflow.Instance) (*intervalLP, error) {
	if err := inst.Validate(false); err != nil {
		return nil, err
	}
	return buildIntervalLP(inst, inst.FlowRefs(), s.Opts, &arcRouting{}), nil
}

// ScheduleProvable runs the exact LP, flow decomposition and randomized
// rounding, placing every flow in interval h_α + D; overloads are repaired by
// stretching the schedule.
func (s CircuitFreePathsExact) ScheduleProvable(inst *coflow.Instance, rng *rand.Rand) (*Result, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.roundProvable(rng)
}

// ScheduleASAP runs the exact LP and the practical start-as-soon-as-possible
// mode: the decomposed paths of each flow, LP priority order, greedy
// simulation. It draws nothing from rng.
func (s CircuitFreePathsExact) ScheduleASAP(inst *coflow.Instance, _ *rand.Rand) (*Result, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	return m.scheduleASAP()
}

// Schedule satisfies the common scheduler signature; practical mode.
func (s CircuitFreePathsExact) Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error) {
	return scheduleOf(s.ScheduleASAP(inst, rng))
}
