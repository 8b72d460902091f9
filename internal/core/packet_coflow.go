package core

import (
	"math"
	"math/rand"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/packet"
)

// PacketResult carries a packet schedule together with its LP evidence.
type PacketResult struct {
	// Schedule is the feasible packet schedule (unit edge capacities, one
	// packet per edge per step).
	Schedule *coflow.PacketSchedule
	// LPObjective and LowerBound mirror Result: the interval-indexed LP value
	// and the implied lower bound on the optimal total weighted coflow
	// completion time.
	LPObjective float64
	LowerBound  float64
	// LPIterations is the number of simplex pivots used.
	LPIterations int
	// FlowOrder is the LP-derived packet priority order.
	FlowOrder []coflow.FlowRef
}

// Objective returns the schedule's total weighted coflow completion time.
func (r *PacketResult) Objective(inst *coflow.Instance) float64 {
	return r.Schedule.Objective(inst)
}

// ApproximationRatio returns Objective / LowerBound.
func (r *PacketResult) ApproximationRatio(inst *coflow.Instance) float64 {
	if r.LowerBound <= 0 {
		return math.Inf(1)
	}
	return r.Objective(inst) / r.LowerBound
}

// PacketGivenPaths is the §3.1 scheduler: packet-based coflows whose packets
// come with fixed paths. The problem is an instance of unit-time job-shop
// scheduling with a min-sum objective; we solve the interval-indexed LP
// relaxation (the fractional circuit LP restricted to the given paths is a
// valid relaxation of the integral packet problem) and list-schedule packets
// in LP priority order, the Queyranne–Sviridenko-style constant-factor
// recipe.
type PacketGivenPaths struct {
	Opts Options
}

func (s PacketGivenPaths) buildLP(inst *coflow.Instance) (*intervalLP, error) {
	return candidateLP(inst, s.Opts, true, false)
}

// Schedule computes the packet schedule and LP evidence.
func (s PacketGivenPaths) Schedule(inst *coflow.Instance) (*PacketResult, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	paths := make(map[coflow.FlowRef]graph.Path, len(m.refs))
	for _, ref := range m.refs {
		paths[ref] = inst.Flow(ref).Path
	}
	order := m.lpOrder()
	ps, err := packet.ListSchedule(inst, paths, order, 0)
	if err != nil {
		return nil, err
	}
	return m.packetResult(ps, order), nil
}

// PacketFreePaths is the §3.2 scheduler: packet-based coflows that need both
// routing and scheduling. The interval-indexed LP over candidate paths
// stands in for the time-expanded-graph LP (25)–(32): it bounds, per
// interval, the congestion each packet group may place on any edge and the
// completion interval of every coflow. Packets are then assigned to their
// half-intervals and routed + scheduled group by group with earliest-arrival
// routing over the time-expanded graph (the Srinivasan–Teo step), or — in
// practical ASAP mode — all at once in LP priority order.
type PacketFreePaths struct {
	Opts Options
}

func (s PacketFreePaths) buildLP(inst *coflow.Instance) (*intervalLP, error) {
	return candidateLP(inst, s.Opts, true, true)
}

// ScheduleASAP routes and schedules every packet in LP priority order using
// earliest-arrival routing over the time-expanded graph.
func (s PacketFreePaths) ScheduleASAP(inst *coflow.Instance, _ *rand.Rand) (*PacketResult, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	order := m.lpOrder()
	ps, err := packet.EarliestArrivalSchedule(inst, order, 0)
	if err != nil {
		return nil, err
	}
	return m.packetResult(ps, order), nil
}

// SchedulePhased mirrors the paper's rounding: packets are grouped by their
// half-interval in the LP and the groups are routed and scheduled one after
// another (group ℓ starts only after group ℓ-1 has been fully delivered).
// This is the provable-structure mode; its objective is typically larger
// than ASAP mode but its per-group makespans follow the O(C+D) bound of the
// underlying routing primitive.
func (s PacketFreePaths) SchedulePhased(inst *coflow.Instance, _ *rand.Rand) (*PacketResult, error) {
	m, err := solved(s.buildLP(inst))
	if err != nil {
		return nil, err
	}
	// Group packets by half-interval.
	groups := map[int][]coflow.FlowRef{}
	maxInterval := 0
	for i, ref := range m.refs {
		h := m.alphaInterval(i)
		groups[h] = append(groups[h], ref)
		if h > maxInterval {
			maxInterval = h
		}
	}
	order := m.lpOrder()
	rank := make(map[coflow.FlowRef]int, len(order))
	for i, ref := range order {
		rank[ref] = i
	}

	merged := coflow.NewPacketSchedule()
	startAt := 0
	for h := 0; h <= maxInterval; h++ {
		batch := groups[h]
		if len(batch) == 0 {
			continue
		}
		// Within a batch, keep the LP order.
		sortByRank(batch, rank)
		ps, err := packet.EarliestArrivalSchedule(inst, batch, startAt)
		if err != nil {
			return nil, err
		}
		for _, ref := range batch {
			merged.Set(ref, ps.Get(ref))
		}
		if m := int(ps.Makespan()); m > startAt {
			startAt = m
		}
	}
	return m.packetResult(merged, order), nil
}

// packetResult assembles a PacketResult from a packet schedule.
func (m *intervalLP) packetResult(ps *coflow.PacketSchedule, order []coflow.FlowRef) *PacketResult {
	res := &PacketResult{Schedule: ps, FlowOrder: order}
	res.LPObjective, res.LowerBound, res.LPIterations = m.evidence()
	return res
}

// sortByRank orders refs by their position in the LP order.
func sortByRank(refs []coflow.FlowRef, rank map[coflow.FlowRef]int) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && rank[refs[j]] < rank[refs[j-1]]; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}
