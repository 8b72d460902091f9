package sim

// This file retains the naive allocator the incremental event loop in sim.go
// replaced. It recomputes everything from scratch at every event — full
// active-set scan and sort, fresh residual capacities, one bandwidth segment
// per flow per event — which makes it slow (O(F log F) per event) but easy
// to audit. It is the oracle for the differential tests in
// differential_test.go, which assert the incremental allocator produces
// identical completion times (to 1e-9) and transmitted volumes across
// randomized workloads, including mid-run AddFlow/SetOrder/ForgetCoflow. It
// lives in a test file, as graph/ and lp/ keep their oracles, since nothing
// outside the tests runs it.
//
// Semantics must never drift from Simulator's. Fix bugs in both or neither.

import (
	"fmt"
	"math"
	"sort"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// refFlow is the reference simulator's working record for one flow.
type refFlow struct {
	ref        coflow.FlowRef
	path       graph.Path
	release    float64
	remaining  float64
	size       float64
	rank       int
	schedule   *coflow.FlowSchedule
	done       bool
	completion float64
}

// refEventHeap is a binary min-heap of pending event times. Unlike the
// incremental simulator's release heap it stores bare times, so duplicate
// pushes are possible; Pop drains equal-time duplicates so no event time is
// ever processed twice.
type refEventHeap struct{ ts []float64 }

func (h *refEventHeap) Len() int      { return len(h.ts) }
func (h *refEventHeap) Peek() float64 { return h.ts[0] }

func (h *refEventHeap) Push(t float64) {
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ts[p] <= h.ts[i] {
			break
		}
		h.ts[p], h.ts[i] = h.ts[i], h.ts[p]
		i = p
	}
}

// Pop removes and returns the earliest time, dropping any duplicates of it:
// equal-time pushes (two flows released together, or the same time pushed by
// both New and AddFlow) collapse into a single event.
func (h *refEventHeap) Pop() float64 {
	top := h.popOne()
	for h.Len() > 0 && h.ts[0] == top {
		h.popOne()
	}
	return top
}

func (h *refEventHeap) popOne() float64 {
	top := h.ts[0]
	n := len(h.ts) - 1
	h.ts[0] = h.ts[n]
	h.ts = h.ts[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.ts[l] < h.ts[small] {
			small = l
		}
		if r < n && h.ts[r] < h.ts[small] {
			small = r
		}
		if small == i {
			break
		}
		h.ts[i], h.ts[small] = h.ts[small], h.ts[i]
		i = small
	}
	return top
}

// Reference is the naive counterpart of Simulator: same API, same semantics,
// O(F log F) work per event. Use it only as a test oracle or benchmark
// baseline.
type Reference struct {
	inst   *coflow.Instance
	policy Policy
	states map[coflow.FlowRef]*refFlow
	eq     refEventHeap
	now    float64
	guard  int
	budget int
}

// NewReference builds a resumable naive simulator. See New for the contract.
func NewReference(inst *coflow.Instance, cfg Config) (*Reference, error) {
	refs := inst.FlowRefs()
	s := &Reference{
		inst:   inst,
		policy: cfg.Policy,
		states: make(map[coflow.FlowRef]*refFlow, len(refs)),
		budget: stepBudget(len(refs)),
	}
	for _, r := range refs {
		f := inst.Flow(r)
		path := f.Path
		if p, ok := cfg.Paths[r]; ok {
			path = p
		}
		if path == nil {
			return nil, fmt.Errorf("sim: flow %s has no path", r)
		}
		if err := path.Validate(inst.Network, f.Source, f.Dest); err != nil {
			return nil, fmt.Errorf("sim: flow %s: %v", r, err)
		}
		s.states[r] = &refFlow{
			ref:       r,
			path:      path,
			release:   f.Release,
			remaining: f.Size,
			size:      f.Size,
			schedule:  &coflow.FlowSchedule{Path: path},
		}
	}
	if err := s.SetOrder(cfg.Order); err != nil {
		return nil, err
	}
	for _, st := range s.states {
		s.eq.Push(st.release)
	}
	if s.eq.Len() > 0 {
		s.now = s.eq.Peek()
	}
	return s, nil
}

// Now returns the current simulation time.
func (s *Reference) Now() float64 { return s.now }

// Done reports whether every flow has completed.
func (s *Reference) Done() bool {
	for _, st := range s.states {
		if !st.done {
			return false
		}
	}
	return true
}

// SetOrder installs a new priority order. See Simulator.SetOrder.
func (s *Reference) SetOrder(order []coflow.FlowRef) error {
	rank := make(map[coflow.FlowRef]int, len(order))
	for i, r := range order {
		if _, dup := rank[r]; dup {
			return fmt.Errorf("sim: flow %s appears twice in the priority order", r)
		}
		if _, ok := s.states[r]; !ok {
			return fmt.Errorf("sim: priority order names unknown flow %s", r)
		}
		rank[r] = i
	}
	for r, st := range s.states {
		if rk, ok := rank[r]; ok {
			st.rank = rk
		} else {
			st.rank = len(order)
		}
	}
	return nil
}

// AddFlow registers a new flow mid-run. See Simulator.AddFlow.
func (s *Reference) AddFlow(ref coflow.FlowRef, f coflow.Flow, path graph.Path) error {
	if _, exists := s.states[ref]; exists {
		return fmt.Errorf("sim: flow %s is already registered", ref)
	}
	if f.Size <= 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
		return fmt.Errorf("sim: flow %s has invalid size %v", ref, f.Size)
	}
	if f.Release < s.now-timeTol {
		return fmt.Errorf("sim: flow %s released at %v, in the past of the simulation clock %v", ref, f.Release, s.now)
	}
	if path == nil {
		path = f.Path
	}
	if path == nil {
		return fmt.Errorf("sim: flow %s has no path", ref)
	}
	if err := path.Validate(s.inst.Network, f.Source, f.Dest); err != nil {
		return fmt.Errorf("sim: flow %s: %v", ref, err)
	}
	s.states[ref] = &refFlow{
		ref:       ref,
		path:      path,
		release:   f.Release,
		remaining: f.Size,
		size:      f.Size,
		rank:      admittedRank,
		schedule:  &coflow.FlowSchedule{Path: path},
	}
	s.eq.Push(f.Release)
	return nil
}

// ForgetCoflow removes a finished coflow's flow states. See
// Simulator.ForgetCoflow.
func (s *Reference) ForgetCoflow(id int) error {
	n := 0
	for r, st := range s.states {
		if r.Coflow != id {
			continue
		}
		if !st.done {
			return fmt.Errorf("sim: cannot forget coflow %d: flow %s is unfinished", id, r)
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("sim: cannot forget unknown coflow %d", id)
	}
	for r := range s.states {
		if r.Coflow == id {
			delete(s.states, r)
		}
	}
	return nil
}

// Status reports the residual state of a single flow.
func (s *Reference) Status(ref coflow.FlowRef) (FlowStatus, bool) {
	st, ok := s.states[ref]
	if !ok {
		return FlowStatus{}, false
	}
	return FlowStatus{
		Ref:        st.ref,
		Path:       st.path,
		Release:    st.release,
		Size:       st.size,
		Remaining:  st.remaining,
		Done:       st.done,
		Completion: st.completion,
	}, true
}

// Residuals reports the per-flow residual state, sorted by flow reference.
func (s *Reference) Residuals() []FlowStatus {
	out := make([]FlowStatus, 0, len(s.states))
	for _, st := range s.states {
		fs, _ := s.Status(st.ref)
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ref.Coflow != out[j].Ref.Coflow {
			return out[i].Ref.Coflow < out[j].Ref.Coflow
		}
		return out[i].Ref.Index < out[j].Ref.Index
	})
	return out
}

// RunUntil advances the simulation to time `until`. See Simulator.RunUntil.
func (s *Reference) RunUntil(until float64) error {
	s.budget += stepBudget(len(s.states))
	for {
		if s.Done() {
			return nil
		}
		if s.now >= until-timeTol {
			return nil
		}
		s.guard++
		if s.guard > s.budget {
			return fmt.Errorf("sim: event budget exhausted (likely a starving flow)")
		}

		active := refActiveFlows(s.states, s.now)
		if len(active) == 0 {
			if s.eq.Len() == 0 {
				s.now = until
				return nil
			}
			t := s.eq.Peek()
			if t > until {
				if !math.IsInf(until, 1) {
					s.now = until
				}
				return nil
			}
			s.now = s.eq.Pop()
			continue
		}

		rates := refAllocate(s.inst.Network, active, s.policy)

		next := until
		if s.eq.Len() > 0 && s.eq.Peek() < next {
			next = s.eq.Peek()
		}
		anyRate := false
		for i, st := range active {
			if rates[i] > 0 {
				anyRate = true
				if t := s.now + st.remaining/rates[i]; t < next {
					next = t
				}
			}
		}
		if !anyRate && s.eq.Len() == 0 {
			return fmt.Errorf("sim: no progress possible at time %v", s.now)
		}
		dt := next - s.now
		if dt > 0 {
			for i, st := range active {
				if rates[i] <= 0 {
					continue
				}
				st.schedule.Segments = append(st.schedule.Segments, coflow.BandwidthSegment{
					Start: s.now, End: next, Rate: rates[i],
				})
				st.remaining -= rates[i] * dt
				if st.remaining <= completionTol*st.size {
					st.remaining = 0
					st.done = true
					st.completion = next
				}
			}
		}
		for s.eq.Len() > 0 && s.eq.Peek() <= next+timeTol {
			s.eq.Pop()
		}
		s.now = next
	}
}

// Schedule assembles the circuit schedule accumulated so far.
func (s *Reference) Schedule() *coflow.CircuitSchedule {
	cs := coflow.NewCircuitSchedule()
	for r, st := range s.states {
		fs := &coflow.FlowSchedule{
			Path:     st.path,
			Segments: append([]coflow.BandwidthSegment(nil), st.schedule.Segments...),
		}
		mergeSegments(fs)
		cs.Set(r, fs)
	}
	return cs
}

// RunReference simulates the instance to completion with the naive
// allocator. It is the oracle counterpart of Run.
func RunReference(inst *coflow.Instance, cfg Config) (*coflow.CircuitSchedule, error) {
	if cfg.Policy == Priority {
		if len(cfg.Order) != inst.NumFlows() {
			return nil, fmt.Errorf("sim: priority order has %d flows, instance has %d", len(cfg.Order), inst.NumFlows())
		}
	}
	s, err := NewReference(inst, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		return nil, err
	}
	return s.Schedule(), nil
}

// refActiveFlows returns released, unfinished flows sorted by priority rank
// (then by reference for determinism).
func refActiveFlows(states map[coflow.FlowRef]*refFlow, now float64) []*refFlow {
	var active []*refFlow
	for _, st := range states {
		if !st.done && st.release <= now+timeTol {
			active = append(active, st)
		}
	}
	sort.Slice(active, func(i, j int) bool {
		if active[i].rank != active[j].rank {
			return active[i].rank < active[j].rank
		}
		if active[i].ref.Coflow != active[j].ref.Coflow {
			return active[i].ref.Coflow < active[j].ref.Coflow
		}
		return active[i].ref.Index < active[j].ref.Index
	})
	return active
}

// refAllocate computes the instantaneous rate of each active flow.
func refAllocate(g *graph.Graph, active []*refFlow, policy Policy) []float64 {
	switch policy {
	case FairShare:
		return refAllocateFairShare(g, active)
	default:
		return refAllocatePriority(g, active)
	}
}

// refAllocatePriority serves flows in order, each grabbing the bottleneck
// residual capacity of its path.
func refAllocatePriority(g *graph.Graph, active []*refFlow) []float64 {
	residual := make([]float64, g.NumEdges())
	for i := range residual {
		residual[i] = g.Capacity(graph.EdgeID(i))
	}
	rates := make([]float64, len(active))
	for i, st := range active {
		r := math.Inf(1)
		for _, e := range st.path {
			if residual[e] < r {
				r = residual[e]
			}
		}
		if r < minRate || math.IsInf(r, 1) {
			r = 0
		}
		rates[i] = r
		for _, e := range st.path {
			residual[e] -= r
		}
	}
	return rates
}

// refAllocateFairShare computes a max-min fair allocation by progressive
// filling, rebuilding its edge→flows map at every call.
func refAllocateFairShare(g *graph.Graph, active []*refFlow) []float64 {
	residual := make([]float64, g.NumEdges())
	for i := range residual {
		residual[i] = g.Capacity(graph.EdgeID(i))
	}
	rates := make([]float64, len(active))
	fixed := make([]bool, len(active))
	remaining := len(active)

	flowsOnEdge := make(map[graph.EdgeID][]int)
	var usedEdges []graph.EdgeID
	for i, st := range active {
		for _, e := range st.path {
			if _, ok := flowsOnEdge[e]; !ok {
				usedEdges = append(usedEdges, e)
			}
			flowsOnEdge[e] = append(flowsOnEdge[e], i)
		}
	}
	sort.Slice(usedEdges, func(i, j int) bool { return usedEdges[i] < usedEdges[j] })

	for remaining > 0 {
		bestEdge := graph.EdgeID(-1)
		bestShare := math.Inf(1)
		for _, e := range usedEdges {
			flows := flowsOnEdge[e]
			unfixed := 0
			for _, i := range flows {
				if !fixed[i] {
					unfixed++
				}
			}
			if unfixed == 0 {
				continue
			}
			share := residual[e] / float64(unfixed)
			if share < bestShare {
				bestShare = share
				bestEdge = e
			}
		}
		if bestEdge < 0 {
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, i := range flowsOnEdge[bestEdge] {
			if fixed[i] {
				continue
			}
			rates[i] = bestShare
			fixed[i] = true
			remaining--
			for _, e := range active[i].path {
				residual[e] -= bestShare
				if residual[e] < 0 {
					residual[e] = 0
				}
			}
		}
	}
	return rates
}
