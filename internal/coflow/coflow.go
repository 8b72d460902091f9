// Package coflow defines the problem model shared by every scheduler in this
// repository: networks of flows grouped into coflows, the two schedule
// representations (circuit bandwidth schedules and packet move schedules),
// the total weighted coflow completion time objective, and feasibility
// validation.
//
// Terminology follows the paper: a flow is a single data transfer (circuit
// model) or packet (packet model) with a source, destination, size and
// release time; a coflow is a weighted set of flows that completes when its
// last flow completes.
package coflow

import (
	"fmt"
	"math"

	"coflowsched/internal/graph"
)

// Flow is a single connection request (circuit model) or packet (packet
// model, Size == 1).
type Flow struct {
	// Source and Dest are host nodes of the instance network.
	Source graph.NodeID `json:"source"`
	Dest   graph.NodeID `json:"dest"`
	// Size is the data volume to transfer. In the packet model it must be 1.
	Size float64 `json:"size"`
	// Release is the earliest time at which the flow may start. The paper
	// supports per-flow release times (more general than per-coflow).
	Release float64 `json:"release"`
	// Path, when non-nil, fixes the route of the flow ("paths given"
	// variants). When nil the scheduler must pick a path.
	Path graph.Path `json:"path,omitempty"`
}

// Coflow is a weighted collection of flows sharing a completion semantics:
// the coflow completes when all of its flows complete.
type Coflow struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Flows  []Flow  `json:"flows"`
}

// Instance is a complete coflow scheduling problem: a capacitated network
// plus a set of coflows.
type Instance struct {
	Network *graph.Graph
	Coflows []Coflow
}

// FlowRef identifies a flow within an instance by coflow index and position.
type FlowRef struct {
	Coflow int
	Index  int
}

// String formats a flow reference as "c<i>.f<j>".
func (r FlowRef) String() string { return fmt.Sprintf("c%d.f%d", r.Coflow, r.Index) }

// Flow returns the referenced flow.
func (inst *Instance) Flow(r FlowRef) *Flow {
	return &inst.Coflows[r.Coflow].Flows[r.Index]
}

// NumFlows returns the total number of flows across all coflows.
func (inst *Instance) NumFlows() int {
	n := 0
	for _, cf := range inst.Coflows {
		n += len(cf.Flows)
	}
	return n
}

// FlowRefs returns references to every flow, in coflow order.
func (inst *Instance) FlowRefs() []FlowRef {
	refs := make([]FlowRef, 0, inst.NumFlows())
	for i, cf := range inst.Coflows {
		for j := range cf.Flows {
			refs = append(refs, FlowRef{Coflow: i, Index: j})
		}
	}
	return refs
}

// MaxRelease returns the latest release time of any flow (0 for an empty
// instance).
func (inst *Instance) MaxRelease() float64 {
	max := 0.0
	for _, cf := range inst.Coflows {
		for _, f := range cf.Flows {
			if f.Release > max {
				max = f.Release
			}
		}
	}
	return max
}

// TotalSize returns the sum of all flow sizes.
func (inst *Instance) TotalSize() float64 {
	s := 0.0
	for _, cf := range inst.Coflows {
		for _, f := range cf.Flows {
			s += f.Size
		}
	}
	return s
}

// HasPaths reports whether every flow carries a pre-assigned path.
func (inst *Instance) HasPaths() bool {
	for _, cf := range inst.Coflows {
		for _, f := range cf.Flows {
			if f.Path == nil {
				return false
			}
		}
	}
	return true
}

// TimeHorizon returns a crude upper bound on the completion time of any
// reasonable schedule: the latest release plus the time to ship every byte
// sequentially over the slowest link. It is used to size interval-indexed
// LPs.
func (inst *Instance) TimeHorizon() float64 {
	minCap := inst.Network.MinCapacity()
	if minCap <= 0 {
		minCap = 1
	}
	return inst.MaxRelease() + inst.TotalSize()/minCap + 1
}

// Validate checks structural sanity of the instance: the network exists,
// every flow endpoint is a valid node, sizes are positive, weights
// nonnegative, release times nonnegative and finite, pre-assigned paths (if
// any) connect the right endpoints, and the packet model restriction
// Size == 1 when packet is true.
func (inst *Instance) Validate(packet bool) error {
	if inst.Network == nil {
		return fmt.Errorf("coflow: instance has no network")
	}
	if len(inst.Coflows) == 0 {
		return fmt.Errorf("coflow: instance has no coflows")
	}
	n := inst.Network.NumNodes()
	for i, cf := range inst.Coflows {
		if cf.Weight < 0 || math.IsNaN(cf.Weight) {
			return fmt.Errorf("coflow: coflow %d has invalid weight %v", i, cf.Weight)
		}
		if len(cf.Flows) == 0 {
			return fmt.Errorf("coflow: coflow %d has no flows", i)
		}
		for j, f := range cf.Flows {
			ref := FlowRef{i, j}
			if int(f.Source) < 0 || int(f.Source) >= n || int(f.Dest) < 0 || int(f.Dest) >= n {
				return fmt.Errorf("coflow: %s has endpoints outside the network", ref)
			}
			if f.Source == f.Dest {
				return fmt.Errorf("coflow: %s has identical source and destination", ref)
			}
			if f.Size <= 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
				return fmt.Errorf("coflow: %s has invalid size %v", ref, f.Size)
			}
			if packet && f.Size != 1 {
				return fmt.Errorf("coflow: %s has size %v but packet flows must have size 1", ref, f.Size)
			}
			if f.Release < 0 || math.IsNaN(f.Release) || math.IsInf(f.Release, 1) {
				return fmt.Errorf("coflow: %s has invalid release time %v", ref, f.Release)
			}
			if f.Path != nil {
				if err := f.Path.Validate(inst.Network, f.Source, f.Dest); err != nil {
					return fmt.Errorf("coflow: %s pre-assigned path invalid: %v", ref, err)
				}
			}
			if !inst.Network.Reachable(f.Source, f.Dest) {
				return fmt.Errorf("coflow: %s destination unreachable from source", ref)
			}
		}
	}
	return nil
}

// AssignShortestPaths fills in Path for every flow that lacks one, using a
// minimum-hop route. It converts a "paths not given" instance into a "paths
// given" instance, which is how tree-like and switch topologies (with unique
// routes) are modelled.
func (inst *Instance) AssignShortestPaths() error {
	for i := range inst.Coflows {
		for j := range inst.Coflows[i].Flows {
			f := &inst.Coflows[i].Flows[j]
			if f.Path != nil {
				continue
			}
			p := inst.Network.ShortestPath(f.Source, f.Dest)
			if p == nil {
				return fmt.Errorf("coflow: no path from %d to %d", f.Source, f.Dest)
			}
			f.Path = p
		}
	}
	return nil
}

// Clone returns a deep copy of the instance sharing the (immutable) network.
func (inst *Instance) Clone() *Instance {
	out := &Instance{Network: inst.Network, Coflows: make([]Coflow, len(inst.Coflows))}
	for i, cf := range inst.Coflows {
		nc := Coflow{Name: cf.Name, Weight: cf.Weight, Flows: make([]Flow, len(cf.Flows))}
		copy(nc.Flows, cf.Flows)
		for j := range nc.Flows {
			if cf.Flows[j].Path != nil {
				nc.Flows[j].Path = append(graph.Path(nil), cf.Flows[j].Path...)
			}
		}
		out.Coflows[i] = nc
	}
	return out
}

// ObjectiveFromCompletionTimes computes the total weighted coflow completion
// time given per-flow completion times indexed by FlowRef. A coflow's
// completion time is the maximum over its flows.
func (inst *Instance) ObjectiveFromCompletionTimes(completion map[FlowRef]float64) float64 {
	total := 0.0
	for i, cf := range inst.Coflows {
		cmax := 0.0
		for j := range cf.Flows {
			c := completion[FlowRef{i, j}]
			if c > cmax {
				cmax = c
			}
		}
		total += cf.Weight * cmax
	}
	return total
}

// CoflowCompletionTimes aggregates per-flow completion times into per-coflow
// completion times (max over flows).
func (inst *Instance) CoflowCompletionTimes(completion map[FlowRef]float64) []float64 {
	out := make([]float64, len(inst.Coflows))
	for i, cf := range inst.Coflows {
		for j := range cf.Flows {
			if c := completion[FlowRef{i, j}]; c > out[i] {
				out[i] = c
			}
		}
	}
	return out
}
