package coflow

import (
	"fmt"

	"coflowsched/internal/graph"
)

// PacketMove records that a packet crosses Edge during discrete time step
// Time (it occupies the edge for the whole step and arrives at the edge's
// head at Time+1).
type PacketMove struct {
	Time int          `json:"time"`
	Edge graph.EdgeID `json:"edge"`
}

// PacketFlowSchedule is the schedule of a single packet: the ordered list of
// edge traversals. Steps between consecutive moves are spent queued at the
// intermediate node.
type PacketFlowSchedule struct {
	Moves []PacketMove `json:"moves"`
}

// CompletionTime returns the discrete time at which the packet reaches its
// destination: one step after its last move. An empty schedule returns 0.
func (ps *PacketFlowSchedule) CompletionTime() float64 {
	if len(ps.Moves) == 0 {
		return 0
	}
	return float64(ps.Moves[len(ps.Moves)-1].Time + 1)
}

// Path returns the sequence of edges traversed.
func (ps *PacketFlowSchedule) Path() graph.Path {
	p := make(graph.Path, len(ps.Moves))
	for i, m := range ps.Moves {
		p[i] = m.Edge
	}
	return p
}

// PacketSchedule is a complete schedule for a packet-based coflow instance.
type PacketSchedule struct {
	Flows map[FlowRef]*PacketFlowSchedule
}

// NewPacketSchedule returns an empty packet schedule.
func NewPacketSchedule() *PacketSchedule {
	return &PacketSchedule{Flows: make(map[FlowRef]*PacketFlowSchedule)}
}

// Set records the schedule of one packet.
func (ps *PacketSchedule) Set(r FlowRef, s *PacketFlowSchedule) { ps.Flows[r] = s }

// Get returns the schedule of one packet, or nil.
func (ps *PacketSchedule) Get(r FlowRef) *PacketFlowSchedule { return ps.Flows[r] }

// CompletionTimes returns the completion time of every packet.
func (ps *PacketSchedule) CompletionTimes() map[FlowRef]float64 {
	out := make(map[FlowRef]float64, len(ps.Flows))
	for r, s := range ps.Flows {
		out[r] = s.CompletionTime()
	}
	return out
}

// Objective returns the total weighted coflow completion time.
func (ps *PacketSchedule) Objective(inst *Instance) float64 {
	return inst.ObjectiveFromCompletionTimes(ps.CompletionTimes())
}

// Makespan returns the completion time of the last packet.
func (ps *PacketSchedule) Makespan() float64 {
	m := 0.0
	for _, s := range ps.Flows {
		if c := s.CompletionTime(); c > m {
			m = c
		}
	}
	return m
}

// Validate checks feasibility of the packet schedule:
//
//   - every packet has a schedule whose edge sequence forms a walk from its
//     source to its destination,
//   - the first move happens no earlier than the packet's release time and
//     moves are strictly increasing in time (a packet crosses at most one
//     edge per step),
//   - consecutive moves are contiguous in space (the packet waits in a queue
//     between them),
//   - no two packets cross the same directed edge during the same step
//     (unit edge capacities), and
//   - if a packet's flow has a pre-assigned Path, the schedule follows it.
func (ps *PacketSchedule) Validate(inst *Instance) error {
	type slot struct {
		t int
		e graph.EdgeID
	}
	occupied := make(map[slot]FlowRef)
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		s := ps.Flows[ref]
		if s == nil {
			return fmt.Errorf("packet schedule: packet %s has no schedule", ref)
		}
		if len(s.Moves) == 0 {
			return fmt.Errorf("packet schedule: packet %s never moves (source != dest)", ref)
		}
		if float64(s.Moves[0].Time) < f.Release {
			return fmt.Errorf("packet schedule: packet %s moves at %d before release %v", ref, s.Moves[0].Time, f.Release)
		}
		path := s.Path()
		if err := path.Validate(inst.Network, f.Source, f.Dest); err != nil {
			return fmt.Errorf("packet schedule: packet %s: %v", ref, err)
		}
		if f.Path != nil {
			if len(f.Path) != len(path) {
				return fmt.Errorf("packet schedule: packet %s does not follow its assigned path", ref)
			}
			for i := range path {
				if f.Path[i] != path[i] {
					return fmt.Errorf("packet schedule: packet %s deviates from its assigned path at hop %d", ref, i)
				}
			}
		}
		prev := -1
		for i, m := range s.Moves {
			if m.Time <= prev {
				return fmt.Errorf("packet schedule: packet %s move %d not after previous move", ref, i)
			}
			prev = m.Time
			key := slot{t: m.Time, e: m.Edge}
			if other, ok := occupied[key]; ok {
				return fmt.Errorf("packet schedule: edge %d used by both %s and %s at step %d", m.Edge, other, ref, m.Time)
			}
			occupied[key] = ref
		}
	}
	return nil
}
