package coflow

import (
	"fmt"
	"sort"

	"coflowsched/internal/graph"
)

// BandwidthSegment is one piece of a piece-wise constant bandwidth function:
// the flow transmits at Rate during [Start, End).
type BandwidthSegment struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Rate  float64 `json:"rate"`
}

// Volume returns the amount of data transferred during the segment.
func (s BandwidthSegment) Volume() float64 { return (s.End - s.Start) * s.Rate }

// FlowSchedule is the schedule of a single circuit flow: the path it uses and
// its piece-wise constant bandwidth function. Lemma 1 of the paper shows that
// piece-wise constant bandwidths lose no generality.
type FlowSchedule struct {
	Path     graph.Path         `json:"path"`
	Segments []BandwidthSegment `json:"segments"`
}

// CompletionTime returns the end of the last segment with positive rate, or
// 0 for an empty schedule.
func (fs *FlowSchedule) CompletionTime() float64 {
	c := 0.0
	for _, s := range fs.Segments {
		if s.Rate > 0 && s.End > c {
			c = s.End
		}
	}
	return c
}

// Delivered returns the total volume transferred by the schedule.
func (fs *FlowSchedule) Delivered() float64 {
	v := 0.0
	for _, s := range fs.Segments {
		v += s.Volume()
	}
	return v
}

// CircuitSchedule is a complete schedule for a circuit-based coflow instance:
// one FlowSchedule per flow, indexed parallel to Instance.Coflows.
type CircuitSchedule struct {
	Flows map[FlowRef]*FlowSchedule
}

// NewCircuitSchedule returns an empty schedule.
func NewCircuitSchedule() *CircuitSchedule {
	return &CircuitSchedule{Flows: make(map[FlowRef]*FlowSchedule)}
}

// Set records the schedule of one flow.
func (cs *CircuitSchedule) Set(r FlowRef, fs *FlowSchedule) { cs.Flows[r] = fs }

// Get returns the schedule of one flow, or nil.
func (cs *CircuitSchedule) Get(r FlowRef) *FlowSchedule { return cs.Flows[r] }

// CompletionTimes returns the completion time of every flow.
func (cs *CircuitSchedule) CompletionTimes() map[FlowRef]float64 {
	out := make(map[FlowRef]float64, len(cs.Flows))
	for r, fs := range cs.Flows {
		out[r] = fs.CompletionTime()
	}
	return out
}

// Objective returns the total weighted coflow completion time of the schedule
// on the given instance.
func (cs *CircuitSchedule) Objective(inst *Instance) float64 {
	return inst.ObjectiveFromCompletionTimes(cs.CompletionTimes())
}

// Makespan returns the completion time of the last flow.
func (cs *CircuitSchedule) Makespan() float64 {
	m := 0.0
	for _, fs := range cs.Flows {
		if c := fs.CompletionTime(); c > m {
			m = c
		}
	}
	return m
}

// validationTol is the relative tolerance used when checking schedules
// produced from LP solutions.
const validationTol = 1e-6

// Validate checks that the schedule is feasible for the instance:
//
//   - every flow has a schedule whose path connects its endpoints,
//   - no segment starts before the flow's release time,
//   - every flow delivers its full size,
//   - at every point in time, the total bandwidth reserved on each edge does
//     not exceed the edge capacity.
//
// The capacity check evaluates every maximal interval between segment
// breakpoints, which is exact for piece-wise constant bandwidth functions.
func (cs *CircuitSchedule) Validate(inst *Instance) error {
	// Per-flow checks.
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		fs := cs.Flows[ref]
		if fs == nil {
			return fmt.Errorf("schedule: flow %s has no schedule", ref)
		}
		if err := fs.Path.Validate(inst.Network, f.Source, f.Dest); err != nil {
			return fmt.Errorf("schedule: flow %s path: %v", ref, err)
		}
		delivered := 0.0
		for _, seg := range fs.Segments {
			if seg.End < seg.Start {
				return fmt.Errorf("schedule: flow %s has segment ending before it starts: %+v", ref, seg)
			}
			if seg.Rate < -validationTol {
				return fmt.Errorf("schedule: flow %s has negative rate %v", ref, seg.Rate)
			}
			if seg.Rate > 0 && seg.Start < f.Release-validationTol {
				return fmt.Errorf("schedule: flow %s transmits at %v before release %v", ref, seg.Start, f.Release)
			}
			delivered += seg.Volume()
		}
		if delivered < f.Size*(1-validationTol)-validationTol {
			return fmt.Errorf("schedule: flow %s delivers %v of %v", ref, delivered, f.Size)
		}
	}

	// Capacity checks: gather all breakpoints, then for each elementary
	// interval sum the per-edge usage.
	type usage struct {
		ref  FlowRef
		seg  BandwidthSegment
		path graph.Path
	}
	var usages []usage
	breakSet := map[float64]struct{}{}
	for ref, fs := range cs.Flows {
		for _, seg := range fs.Segments {
			if seg.Rate <= 0 || seg.End <= seg.Start {
				continue
			}
			usages = append(usages, usage{ref: ref, seg: seg, path: fs.Path})
			breakSet[seg.Start] = struct{}{}
			breakSet[seg.End] = struct{}{}
		}
	}
	breaks := make([]float64, 0, len(breakSet))
	for t := range breakSet {
		breaks = append(breaks, t)
	}
	sort.Float64s(breaks)

	for i := 0; i+1 < len(breaks); i++ {
		lo, hi := breaks[i], breaks[i+1]
		if hi-lo <= 1e-12 {
			continue
		}
		mid := (lo + hi) / 2
		load := make(map[graph.EdgeID]float64)
		for _, u := range usages {
			if u.seg.Start <= mid && mid < u.seg.End {
				for _, e := range u.path {
					load[e] += u.seg.Rate
				}
			}
		}
		for e, l := range load {
			c := inst.Network.Capacity(e)
			if l > c*(1+validationTol)+validationTol {
				return fmt.Errorf("schedule: edge %d over capacity during [%v,%v): load %v > %v", e, lo, hi, l, c)
			}
		}
	}
	return nil
}

// ScaleTime stretches the whole schedule in time by factor >= 1 while scaling
// bandwidths down by the same factor; the delivered volumes are unchanged and
// edge loads can only decrease. Used by the randomized-rounding step, which
// may need to scale down bandwidth by the congestion overflow factor.
func (cs *CircuitSchedule) ScaleTime(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("schedule: ScaleTime factor %v < 1", factor))
	}
	for _, fs := range cs.Flows {
		for i := range fs.Segments {
			fs.Segments[i].Start *= factor
			fs.Segments[i].End *= factor
			fs.Segments[i].Rate /= factor
		}
	}
}

// MaxEdgeUtilization returns the maximum, over edges and elementary time
// intervals, of load divided by capacity. A feasible schedule has value <= 1
// (up to tolerance). Useful for tests and for the congestion analysis of the
// randomized rounding step.
func (cs *CircuitSchedule) MaxEdgeUtilization(inst *Instance) float64 {
	breakSet := map[float64]struct{}{}
	for _, fs := range cs.Flows {
		for _, seg := range fs.Segments {
			if seg.Rate > 0 {
				breakSet[seg.Start] = struct{}{}
				breakSet[seg.End] = struct{}{}
			}
		}
	}
	breaks := make([]float64, 0, len(breakSet))
	for t := range breakSet {
		breaks = append(breaks, t)
	}
	sort.Float64s(breaks)
	maxUtil := 0.0
	for i := 0; i+1 < len(breaks); i++ {
		mid := (breaks[i] + breaks[i+1]) / 2
		load := make(map[graph.EdgeID]float64)
		for _, fs := range cs.Flows {
			for _, seg := range fs.Segments {
				if seg.Rate > 0 && seg.Start <= mid && mid < seg.End {
					for _, e := range fs.Path {
						load[e] += seg.Rate
					}
				}
			}
		}
		for e, l := range load {
			if u := l / inst.Network.Capacity(e); u > maxUtil {
				maxUtil = u
			}
		}
	}
	return maxUtil
}
