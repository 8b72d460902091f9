// Package sim implements the flow-level event-driven simulator described in
// §4.1 of the paper. Packet-level simulation is too slow for coflow
// experiments, so — like Varys, RAPIER and the paper itself — we simulate at
// the granularity of flows: each flow is an event at its release time, the
// simulator repeatedly assigns bandwidth to the active flows according to a
// policy, and a second event occurs when a flow completes and releases its
// reserved bandwidth.
//
// Two bandwidth-assignment policies are provided:
//
//   - Priority: flows are served greedily in a caller-supplied order; each
//     flow in turn grabs the bottleneck residual capacity along its path.
//     This is the mechanism behind the LP-Based scheduler's practical mode
//     and the Schedule-only / Baseline heuristics.
//   - FairShare: max-min fair sharing across all active flows (progressive
//     filling), modelling the "every flow gets its fair share" comparator of
//     Figure 1 (s1).
//
// Two entry points expose the simulator:
//
//   - Run simulates an instance to completion in one call (the offline mode
//     used by the paper's experiments).
//   - Simulator is the resumable stepping API used by the online scheduler
//     (internal/online): New builds the simulator, RunUntil advances it to a
//     time boundary, SetOrder re-prioritizes the remaining work between
//     steps, and Residuals reports per-flow transmitted/remaining volumes.
//
// The event loop is incremental. The greedy priority allocation is
// prefix-stable — a flow's rate depends only on flows ranked before it — so
// when a flow completes or is released, only the "dirty suffix" of the
// priority order from the first changed position onward is re-allocated;
// everything before it keeps its rate, its projected completion time (kept
// in a lazy-deletion min-heap) and its untouched lazily-materialized
// residual volume. The active set is one rank-ordered slice: an event batch's
// releases and completions are merged into or compacted out of the dirty
// suffix in the pass that re-allocates it, instead of the set being rebuilt
// and re-sorted from the state map at every event. A flow the greedy left at
// rate 0 remembers the edge that blocked it and costs one load while that
// edge stays saturated. Bandwidth segments are recorded only when a flow's
// rate actually changes (coalesced at append time), and all per-event scratch
// is reused, so steady-state events allocate (amortized) nothing.
// reference_test.go retains the naive allocator this design replaced;
// differential tests assert the two produce identical completion times.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// Policy selects how bandwidth is divided among active flows.
type Policy int

const (
	// Priority serves active flows greedily in the order given by
	// Config.Order.
	Priority Policy = iota
	// FairShare performs max-min fair sharing among all active flows.
	FairShare
)

// Config parameterizes a simulation run.
type Config struct {
	// Paths gives the route of every flow. Flows absent from the map fall
	// back to the instance's pre-assigned path.
	Paths map[coflow.FlowRef]graph.Path
	// Order is the priority order used by the Priority policy. Run requires
	// it to contain every flow exactly once; New accepts a partial order
	// (flows absent from it rank last, in reference order) so an online
	// caller can prioritize only the flows that have arrived.
	Order []coflow.FlowRef
	// Policy selects the bandwidth-assignment policy.
	Policy Policy
}

// completionTol treats a flow as finished once its remaining volume drops
// below this fraction of its size (guards against FP drift in long runs).
const completionTol = 1e-9

// timeTol absorbs floating-point noise when comparing event times.
const timeTol = 1e-15

// minRate clamps vanishing greedy allocations to zero, exactly like the
// reference allocator.
const minRate = 1e-12

// rebaseEvery bounds floating-point drift in the incrementally maintained
// per-edge residuals: every rebaseEvery-th reallocation recomputes them from
// the raw capacities (a full re-allocation), so undo/redo rounding noise
// cannot accumulate over long runs. Amortized cost is O(F/rebaseEvery) per
// event.
const rebaseEvery = 256

// flowState is the simulator's working record for one flow.
//
// Transmission state is lazy: remaining is the residual volume as of lastT,
// and while the flow's rate is unchanged nothing is touched — views project
// forward virtually with remaining - rate·(now-lastT), and the open
// bandwidth segment [lastT, ·) at the current rate is closed only when the
// rate changes or the flow completes.
type flowState struct {
	ref     coflow.FlowRef
	path    graph.Path
	release float64
	size    float64
	rank    int // position in the priority order

	remaining float64 // residual volume as of lastT
	lastT     float64 // time remaining/segments were last materialized
	rate      float64 // current allocated rate
	segments  []coflow.BandwidthSegment

	done       bool
	completion float64 // time the flow finished (meaningful once done)

	heapSeq int  // invalidates stale completion-heap entries
	active  bool // active-set membership (false while pending or done)
	// blocked is the edge whose saturation left the flow at rate 0 on its
	// last greedy allocation, -1 while the flow holds a rate (or never had
	// one computed): while that edge's residual stays below minRate the
	// path's bottleneck does too, so the greedy skips the scan.
	blocked graph.EdgeID

	orderSeq uint64 // SetOrder stamp: membership in the current order
	progSeq  uint64 // progress-log stamp: already logged since the last drain
}

// admittedRank is the priority rank of flows added mid-run (Simulator.AddFlow)
// before the next SetOrder: below every flow the current order lists, which
// models newly arrived work waiting at the lowest priority until the next
// re-ordering. math.MaxInt32 exceeds any real order length.
const admittedRank = math.MaxInt32

// FlowStatus is the residual state of one flow, as reported by
// Simulator.Residuals.
type FlowStatus struct {
	Ref       coflow.FlowRef
	Path      graph.Path
	Release   float64
	Size      float64
	Remaining float64
	Done      bool
	// Completion is the simulation time the flow finished (0 until Done).
	Completion float64
}

// CompletionEvent records one flow finishing, in event order.
type CompletionEvent struct {
	Ref  coflow.FlowRef
	Time float64
}

// Simulator is the resumable form of the flow-level simulator. Unlike Run it
// advances in steps: RunUntil(t) simulates up to time t and stops, after
// which the caller may inspect Residuals and install a new priority order
// with SetOrder before resuming. The online scheduler uses exactly this
// loop: one RunUntil per epoch, one SetOrder per policy decision.
type Simulator struct {
	inst   *coflow.Instance
	policy Policy
	states map[coflow.FlowRef]*flowState

	pending releaseHeap // flows awaiting their release time
	active  activeSet   // released, unfinished flows in priority order
	comp    compHeap    // projected completions (lazy deletion)

	now    float64
	guard  int
	budget int

	numDone  int  // completed flows still registered; Done() is O(1)
	posRates int  // active flows with a positive rate
	dirtyAll bool // SetOrder invalidated every rate

	caps     []float64 // edge capacities (rebase source)
	residual []float64 // per-edge residual capacity under current rates
	eventSeq int       // reallocation counter, drives periodic rebasing
	orderGen uint64    // SetOrder stamp generation

	tickStats TickStats // allocator-work aggregates, drained by TakeTickStats

	completions []CompletionEvent // log drained by TakeCompletions

	// progressed logs the flows that held a positive rate since the last
	// TakeProgressed — the only flows whose residual volume can have moved.
	// progGen stamps membership so a flow is logged once per drain window.
	progressed []*flowState
	progGen    uint64

	// Per-event scratch, reused so steady-state events allocate nothing.
	batchDone     []*flowState
	batchReleased []*flowState

	// Fair-share scratch (see allocFairShare).
	fsRates  []float64
	fsFixed  []bool
	fsOnEdge [][]int32
	fsUsed   []graph.EdgeID
}

// New builds a resumable simulator for the instance. The configured order may
// be partial: flows missing from it are served after every listed flow, tied
// by flow reference, which models newly arrived work waiting at the lowest
// priority until the next re-ordering.
func New(inst *coflow.Instance, cfg Config) (*Simulator, error) {
	refs := inst.FlowRefs()
	g := inst.Network
	s := &Simulator{
		inst:     inst,
		policy:   cfg.Policy,
		states:   make(map[coflow.FlowRef]*flowState, len(refs)),
		budget:   stepBudget(len(refs)),
		caps:     make([]float64, g.NumEdges()),
		residual: make([]float64, g.NumEdges()),
		progGen:  1, // flow states start at stamp 0: not logged
	}
	for i := range s.caps {
		s.caps[i] = g.Capacity(graph.EdgeID(i))
	}
	copy(s.residual, s.caps)
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
		st := &flowState{
			ref:       r,
			path:      path,
			release:   f.Release,
			remaining: f.Size,
			size:      f.Size,
			lastT:     f.Release,
			blocked:   -1,
		}
		s.states[r] = st
		s.pending.Push(st)
	}
	if err := s.SetOrder(cfg.Order); err != nil {
		return nil, err
	}
	if s.pending.Len() > 0 {
		s.now = s.pending.PeekTime()
	}
	return s, nil
}

// stepBudget is the per-step event allowance: generous enough for any
// legitimate simulation, small enough to catch starvation loops.
func stepBudget(numFlows int) int { return 100*numFlows + 1000 }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Done reports whether every flow has completed. O(1): completions are
// counted as they happen instead of re-scanning the state map.
func (s *Simulator) Done() bool { return s.numDone == len(s.states) }

// SetOrder installs a new priority order, effective from the next RunUntil.
// The order may be partial (missing flows rank last, in reference order) but
// must not contain duplicates or unknown flows. It is ignored under the
// FairShare policy.
func (s *Simulator) SetOrder(order []coflow.FlowRef) error {
	// Stamp-based validation: detects duplicates and unknown flows in one
	// pass without allocating a rank map, and mutates nothing until the
	// order is known to be valid.
	s.orderGen++
	gen := s.orderGen
	for _, r := range order {
		st, ok := s.states[r]
		if !ok {
			return fmt.Errorf("sim: priority order names unknown flow %s", r)
		}
		if st.orderSeq == gen {
			return fmt.Errorf("sim: flow %s appears twice in the priority order", r)
		}
		st.orderSeq = gen
	}
	next := s.active.next[:0]
	for i, r := range order {
		st := s.states[r]
		st.rank = i
		if st.active {
			next = append(next, st)
		}
	}
	s.installOrder(next, len(order))
	return nil
}

// SetOrderHandles is SetOrder for a caller that already holds a handle to
// every flow it wants ranked: the order installs without a map probe per
// reference. Invalid handles are skipped; duplicates among the valid ones are
// still an error. The online engine's decide path is the customer: its handle
// table already knows which refs are live.
func (s *Simulator) SetOrderHandles(order []Handle) error {
	s.orderGen++
	gen := s.orderGen
	for _, h := range order {
		st := h.st
		if st == nil {
			continue
		}
		if st.orderSeq == gen {
			return fmt.Errorf("sim: flow %s appears twice in the priority order", st.ref)
		}
		st.orderSeq = gen
	}
	next := s.active.next[:0]
	for i, h := range order {
		if st := h.st; st != nil {
			st.rank = i
			if st.active {
				next = append(next, st)
			}
		}
	}
	s.installOrder(next, len(order))
	return nil
}

// installOrder runs the shared tail of every order installation, given the
// active flows the order lists, in order. Flows the order left out (their
// stamp is not the current generation) rank after every listed one, ties by
// reference: the pending heap is ranked here, the active set by Install —
// completed flows never rejoin either structure, so their stale ranks are
// unreachable. Rates depend only on the sequence of the active flows, not the
// rank values: if the new order left it unchanged — the common case for an
// online policy re-applying a stable order every epoch — every rate,
// completion projection and open segment stays valid. Only a genuine
// re-ordering pays the full reallocation.
func (s *Simulator) installOrder(next []*flowState, unlisted int) {
	for _, st := range s.pending.fs {
		if st.orderSeq != s.orderGen {
			st.rank = unlisted
		}
	}
	if s.active.Install(next, s.orderGen, unlisted) {
		s.dirtyAll = true // every rate is suspect until the next reallocation
	}
}

// AddFlow registers a new flow with a running simulator, modelling online
// admission: the flow joins the instance state and becomes active at its
// release time. The reference must be unused, the release must not lie in
// the simulator's past, and the path (the explicit argument, falling back to
// f.Path) must connect the flow's endpoints. Until the next SetOrder the new
// flow ranks below every existing flow — newly admitted work waits at the
// lowest priority until the next re-ordering, exactly like flows omitted
// from a partial order.
func (s *Simulator) AddFlow(ref coflow.FlowRef, f coflow.Flow, path graph.Path) error {
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
	st := &flowState{
		ref:       ref,
		path:      path,
		release:   f.Release,
		remaining: f.Size,
		size:      f.Size,
		lastT:     f.Release,
		rank:      admittedRank,
		blocked:   -1,
	}
	s.states[ref] = st
	s.pending.Push(st)
	return nil
}

// Remove deregisters a flow that was added but has not yet been released
// into the active set — the window between AddFlow and the RunUntil that
// passes its release time. The online engine uses it to roll back the
// already-registered flows of a coflow whose admission fails midway, leaving
// the simulator byte-identical to the state before the attempt.
func (s *Simulator) Remove(ref coflow.FlowRef) error {
	st, ok := s.states[ref]
	if !ok {
		return fmt.Errorf("sim: cannot remove unknown flow %s", ref)
	}
	if st.done || st.active {
		return fmt.Errorf("sim: cannot remove flow %s after release", ref)
	}
	if !s.pending.Remove(st) {
		return fmt.Errorf("sim: flow %s absent from the release queue", ref)
	}
	delete(s.states, ref)
	return nil
}

// Forget removes a finished flow's state from the simulator, bounding the
// cost of a long-running simulation: every per-event and per-step scan
// (active-flow selection, Done, Residuals) iterates only the flows still
// registered. Only done flows may be forgotten, and their transcript
// segments are discarded with them — callers that still need the flow's
// transcript must capture it first (FlowSchedule). The online engine forgets
// a coflow's flows once the coflow's completion has been recorded.
func (s *Simulator) Forget(ref coflow.FlowRef) error {
	st, ok := s.states[ref]
	if !ok {
		return fmt.Errorf("sim: cannot forget unknown flow %s", ref)
	}
	if !st.done {
		return fmt.Errorf("sim: cannot forget unfinished flow %s", ref)
	}
	delete(s.states, ref)
	s.numDone--
	return nil
}

// ReleaseIdle hands back the per-flow tables and scratch of a simulator with
// no flow registered: every completion-heap entry is then stale and every
// scratch pointer dangles, yet the map's buckets, the heaps and the scratch
// keep the size of the largest backlog they ever held (and the scratch still
// pins the forgotten flow states). The caller decides when a drained backlog
// was large enough to be worth regrowing from nothing; with flows registered
// the call does nothing.
func (s *Simulator) ReleaseIdle() {
	if len(s.states) != 0 {
		return
	}
	s.states = make(map[coflow.FlowRef]*flowState)
	s.comp, s.pending = compHeap{}, releaseHeap{}
	s.batchDone, s.batchReleased = nil, nil
	s.active = activeSet{}
}

// TakeCompletions returns the flows that completed since the previous call
// (or since construction) and resets the log. The incremental online engine
// folds these into its per-coflow registry in O(completions) per tick
// instead of re-scanning every active flow.
func (s *Simulator) TakeCompletions() []CompletionEvent {
	out := s.completions
	s.completions = nil
	return out
}

// TakeProgressed appends to buf the flows that held a positive rate at some
// point since the previous call — a flow's residual volume moves only while
// it holds one, and a flow completes only out of one, so every other flow's
// status is exactly what it was — and resets the log, re-seeding it with the
// flows still transmitting. The online engine refreshes only these flows'
// coflows in its residual view: O(progressing flows) per epoch instead of a
// status query per active flow. A caller that never drains pays one pointer
// per flow that ever transmitted.
func (s *Simulator) TakeProgressed(buf []coflow.FlowRef) []coflow.FlowRef {
	s.progGen++
	kept := s.progressed[:0]
	for _, st := range s.progressed {
		buf = append(buf, st.ref)
		if !st.done && st.rate > 0 {
			st.progSeq = s.progGen
			kept = append(kept, st)
		}
	}
	clear(s.progressed[len(kept):])
	s.progressed = kept
	return buf
}

// projectedRemaining is the flow's residual volume at time now, accounting
// for lazily unmaterialized transmission at the current rate.
func (st *flowState) projectedRemaining(now float64) float64 {
	rem := st.remaining
	if !st.done && st.rate > 0 && now > st.lastT {
		rem -= st.rate * (now - st.lastT)
		if rem < 0 {
			rem = 0
		}
	}
	return rem
}

func (s *Simulator) status(st *flowState) FlowStatus {
	return FlowStatus{
		Ref:        st.ref,
		Path:       st.path,
		Release:    st.release,
		Size:       st.size,
		Remaining:  st.projectedRemaining(s.now),
		Done:       st.done,
		Completion: st.completion,
	}
}

// Status reports the residual state of a single flow, or false if the
// reference is unknown. Unlike Residuals it is O(1), suitable for per-flow
// status queries between steps.
func (s *Simulator) Status(ref coflow.FlowRef) (FlowStatus, bool) {
	st, ok := s.states[ref]
	if !ok {
		return FlowStatus{}, false
	}
	return s.status(st), true
}

// Handle is a direct reference to one flow's simulator state, skipping the
// per-query map lookup of Status. Handles are engine-side plumbing for the
// per-tick view and order-install paths. A
// handle stays usable until the flow is forgotten; using it afterwards reads
// stale (but never freed or recycled) state, so holders must drop handles
// when they Forget the flow. The zero Handle is invalid.
type Handle struct{ st *flowState }

// Valid reports whether the handle refers to a flow.
func (h Handle) Valid() bool { return h.st != nil }

// Handle returns an O(1) status accessor for the flow, or false if the
// reference is unknown.
func (s *Simulator) Handle(ref coflow.FlowRef) (Handle, bool) {
	st, ok := s.states[ref]
	if !ok {
		return Handle{}, false
	}
	return Handle{st: st}, true
}

// Residual is the part of Status that moves, through a handle: the flow's
// registered size, its residual volume at the simulator clock and whether it
// has finished — no map lookup and no FlowStatus built. The handle must come
// from this simulator.
func (s *Simulator) Residual(h Handle) (size, remaining float64, done bool) {
	return h.st.size, h.st.projectedRemaining(s.now), h.st.done
}

// Residuals reports the per-flow residual state, sorted by flow reference.
func (s *Simulator) Residuals() []FlowStatus {
	out := make([]FlowStatus, 0, len(s.states))
	for _, st := range s.states {
		out = append(out, s.status(st))
	}
	sortStatuses(out)
	return out
}

// RunUntil advances the simulation to time `until` (or to completion,
// whichever is earlier) under the current order. Passing +Inf runs to
// completion. It is legal to call RunUntil repeatedly with increasing
// boundaries; each call refreshes the event budget.
func (s *Simulator) RunUntil(until float64) error {
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
		if s.dirtyAll {
			s.reallocAll(s.now)
			s.dirtyAll = false
		}

		if s.active.Len() == 0 {
			// Idle until the next release or the step boundary.
			if s.pending.Len() == 0 {
				// Nothing pending and not done — impossible (every unfinished
				// flow is active or awaiting release), but don't spin.
				if !math.IsInf(until, 1) {
					s.now = until
				}
				return nil
			}
			t := s.pending.PeekTime()
			if t > until {
				if !math.IsInf(until, 1) {
					s.now = until
				}
				return nil
			}
			s.now = t
			s.processEvent(t)
			continue
		}

		// Find the next event: earliest projected completion, the next
		// release, or the step boundary — whichever is first.
		next := until
		if s.pending.Len() > 0 {
			if t := s.pending.PeekTime(); t < next {
				next = t
			}
		}
		if t, ok := s.nextCompletion(); ok && t < next {
			next = t
		}
		if s.posRates == 0 && s.pending.Len() == 0 {
			// No active flow can make progress and no release is pending, so
			// the state is frozen forever; cannot happen with the greedy
			// allocators on positive-capacity networks (the top-priority flow
			// always gets the bottleneck capacity), but detect it explicitly
			// rather than spinning to the step boundary.
			return fmt.Errorf("sim: no progress possible at time %v", s.now)
		}
		s.now = next
		s.processEvent(next)
	}
}

// nextCompletion peeks the earliest still-valid projected completion,
// discarding stale entries (flows whose rate changed since the push).
func (s *Simulator) nextCompletion() (float64, bool) {
	for s.comp.Len() > 0 {
		top := s.comp.Peek()
		if top.st.done || top.seq != top.st.heapSeq {
			s.comp.Pop()
			continue
		}
		return top.t, true
	}
	return 0, false
}

// processEvent applies every event due at time `next`: completions within
// tolerance, releases, and the reallocation of the dirty suffix they induce.
func (s *Simulator) processEvent(next float64) {
	s.batchDone = s.batchDone[:0]
	s.batchReleased = s.batchReleased[:0]

	// Completions: a flow finishes at this event if its residual volume at
	// `next` is within the completion tolerance — the same
	// remaining - rate·dt ≤ tol·size check the reference allocator applies
	// per event, evaluated here as rate·(projection - next) ≤ tol·size.
	for s.comp.Len() > 0 {
		top := s.comp.Peek()
		st := top.st
		if st.done || top.seq != st.heapSeq {
			s.comp.Pop()
			continue
		}
		if st.rate*(top.t-next) > completionTol*st.size {
			// The heap is ordered by projected time, not by residual volume,
			// so in principle a lower-rate flow deeper in the heap could pass
			// the tolerance test this entry fails. The reference allocator
			// would complete such a flow at `next` (its full per-event sweep
			// sees every residual); we let it finish at its own projection
			// instead. That requires a flow's residual to land inside the
			// 1e-9 tolerance band exactly at an unrelated event — a
			// measure-zero coincidence for continuous workloads, and the
			// flow is within tolerance of done either way. Scanning past
			// this entry would cost O(F) per event, the very thing the heap
			// removes.
			break
		}
		s.comp.Pop()
		s.complete(st, next)
		s.batchDone = append(s.batchDone, st)
	}
	// Releases at (or within tolerance of) the event time activate together.
	for s.pending.Len() > 0 && s.pending.PeekTime() <= next+timeTol {
		s.batchReleased = append(s.batchReleased, s.pending.Pop())
	}
	if len(s.batchDone) == 0 && len(s.batchReleased) == 0 {
		return // pure boundary stop
	}
	if s.policy == FairShare {
		from := s.dirtyFrom()
		for _, st := range s.batchDone {
			s.retire(st)
		}
		s.active.Splice(from, s.batchReleased)
		s.allocFairShare(next)
	} else {
		s.reallocSuffix(next)
	}
	s.maybeCompact()
}

// complete finalizes a flow at time `at`: closes its open bandwidth segment,
// zeroes its residual and logs the completion. The flow's rate is left in
// place — the priority reallocation's undo sweep still needs to credit it
// back to the residuals; retire() clears it.
func (s *Simulator) complete(st *flowState, at float64) {
	if st.rate > 0 && at > st.lastT {
		st.segments = appendSegment(st.segments, st.lastT, at, st.rate)
	}
	st.remaining = 0
	st.lastT = at
	st.done = true
	st.completion = at
	st.heapSeq++
	s.numDone++
	s.completions = append(s.completions, CompletionEvent{Ref: st.ref, Time: at})
}

// retire releases a completed flow's rate bookkeeping; the next Splice over
// its position drops it from the active set.
func (s *Simulator) retire(st *flowState) {
	if st.rate > 0 {
		s.posRates--
	}
	st.rate = 0
}

// setRate re-points a flow's allocation at time now: materializes the volume
// transmitted at the old rate, closes the open bandwidth segment, and (for a
// positive new rate) projects the flow's completion onto the event heap.
func (s *Simulator) setRate(st *flowState, r, now float64) {
	if st.rate > 0 {
		if now > st.lastT {
			st.remaining -= st.rate * (now - st.lastT)
			if st.remaining < 0 {
				st.remaining = 0
			}
			st.segments = appendSegment(st.segments, st.lastT, now, st.rate)
		}
		s.posRates--
	}
	st.lastT = now
	st.rate = r
	st.heapSeq++
	if r > 0 {
		s.posRates++
		s.comp.Push(compEntry{t: now + st.remaining/r, st: st, seq: st.heapSeq})
		if st.progSeq != s.progGen {
			st.progSeq = s.progGen
			s.progressed = append(s.progressed, st)
		}
	}
}

// reallocSuffix re-runs the greedy priority allocation for the dirty suffix:
// every flow ranked at or after the first completed/released flow of the
// event batch. Flows before that position keep their rates — the greedy
// allocation is prefix-stable — along with their heap projections and
// unmaterialized residuals, so the per-event cost is proportional to the
// dirty suffix, not the whole active set.
func (s *Simulator) reallocSuffix(now float64) {
	s.eventSeq++
	from := s.dirtyFrom()
	if s.eventSeq%rebaseEvery == 0 {
		// Periodic full rebase: recompute every residual from the raw
		// capacities so incremental undo/redo rounding cannot accumulate.
		for _, st := range s.batchDone {
			s.retire(st)
		}
		s.active.Splice(from, s.batchReleased)
		s.reallocAll(now)
		return
	}
	// Undo: credit the suffix's current rates (including the just-completed
	// flows', still in the set) back to the residuals.
	for _, st := range s.active.fs[from:] {
		if st.rate > 0 {
			for _, e := range st.path {
				s.residual[e] += st.rate
			}
		}
	}
	for _, st := range s.batchDone {
		s.retire(st)
	}
	s.active.Splice(from, s.batchReleased)
	// Redo: greedy re-allocation of the suffix against the restored
	// residuals, touching only flows whose rate actually changed.
	s.redo(from, now)
}

// dirtyFrom sorts the event batch's releases by key, as Splice wants them,
// and returns the active-set position of the batch's first flow: where the
// dirty suffix starts.
func (s *Simulator) dirtyFrom() int {
	slices.SortFunc(s.batchReleased, keyCmp)
	var first *flowState
	if len(s.batchReleased) > 0 {
		first = s.batchReleased[0]
	}
	for _, st := range s.batchDone {
		if first == nil || keyCmp(st, first) < 0 {
			first = st
		}
	}
	return s.active.Seek(first)
}

// redo re-runs the greedy allocation from the given active position onward.
func (s *Simulator) redo(from int, now float64) {
	suffix := s.active.fs[from:]
	s.tickStats.Reallocs++
	s.tickStats.SuffixSum += len(suffix)
	if len(suffix) > s.tickStats.SuffixMax {
		s.tickStats.SuffixMax = len(suffix)
	}
	for _, st := range suffix {
		s.allocGreedy(st, now)
	}
}

// allocGreedy gives one flow the bottleneck residual capacity of its path
// and charges it to the residuals, updating the flow's rate if it changed.
// A flow the scan left at rate 0 remembers the edge with the least residual:
// while it stays below minRate the scan would return 0 again, the rate the
// flow holds, so the flow costs that one load.
func (s *Simulator) allocGreedy(st *flowState, now float64) {
	if st.blocked >= 0 && s.residual[st.blocked] < minRate {
		return
	}
	r, at := math.Inf(1), graph.EdgeID(-1)
	for _, e := range st.path {
		if s.residual[e] < r {
			r, at = s.residual[e], e
		}
	}
	if r < minRate || math.IsInf(r, 1) {
		r = 0
	}
	if r != st.rate {
		s.setRate(st, r, now)
	}
	if r > 0 {
		st.blocked = -1
		for _, e := range st.path {
			s.residual[e] -= r
		}
	} else {
		st.blocked = at
	}
}

// reallocAll recomputes every active flow's rate from fresh residuals (full
// greedy pass for Priority, progressive filling for FairShare). Used after
// SetOrder and for periodic drift rebasing.
func (s *Simulator) reallocAll(now float64) {
	if s.policy == FairShare {
		s.allocFairShare(now)
		return
	}
	copy(s.residual, s.caps)
	s.redo(0, now)
}

// allocFairShare computes a max-min fair allocation by progressive filling:
// repeatedly find the most congested edge, split its residual capacity
// equally among the unfixed flows crossing it, and freeze them. All scratch
// (edge→flows adjacency, rate and fixed vectors) is arena-style state reused
// across events — no per-event map rebuild.
func (s *Simulator) allocFairShare(now float64) {
	if s.fsOnEdge == nil {
		s.fsOnEdge = make([][]int32, len(s.caps))
	}
	// Sparse reset of the previous event's adjacency.
	for _, e := range s.fsUsed {
		s.fsOnEdge[e] = s.fsOnEdge[e][:0]
	}
	s.fsUsed = s.fsUsed[:0]
	active := s.active.fs
	if cap(s.fsRates) < len(active) {
		s.fsRates = make([]float64, len(active))
		s.fsFixed = make([]bool, len(active))
	}
	rates := s.fsRates[:len(active)]
	fixed := s.fsFixed[:len(active)]
	for i := range rates {
		rates[i] = 0
		fixed[i] = false
	}
	copy(s.residual, s.caps)
	for i, st := range active {
		for _, e := range st.path {
			if len(s.fsOnEdge[e]) == 0 {
				s.fsUsed = append(s.fsUsed, e)
			}
			s.fsOnEdge[e] = append(s.fsOnEdge[e], int32(i))
		}
	}

	// Each filling round scans only the edges some active flow uses, in id
	// order so ties resolve deterministically (the same order the reference
	// allocator visits).
	slices.Sort(s.fsUsed)

	remaining := len(active)
	for remaining > 0 {
		// Find the edge with the smallest fair share among unfixed flows.
		bestEdge := graph.EdgeID(-1)
		bestShare := math.Inf(1)
		for _, e := range s.fsUsed {
			unfixed := 0
			for _, i := range s.fsOnEdge[e] {
				if !fixed[i] {
					unfixed++
				}
			}
			if unfixed == 0 {
				continue
			}
			share := s.residual[e] / float64(unfixed)
			if share < bestShare {
				bestShare = share
				bestEdge = e
			}
		}
		if bestEdge < 0 {
			// Remaining flows use no edges (cannot happen: src != dst) —
			// freeze them at zero to terminate.
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, i := range s.fsOnEdge[bestEdge] {
			if fixed[i] {
				continue
			}
			rates[i] = bestShare
			fixed[i] = true
			remaining--
			for _, e := range active[i].path {
				s.residual[e] -= bestShare
				if s.residual[e] < 0 {
					s.residual[e] = 0
				}
			}
		}
	}
	for i, st := range active {
		if rates[i] != st.rate {
			s.setRate(st, rates[i], now)
		}
	}
}

// maybeCompact drops stale completion-heap entries once they outnumber the
// live flows 4:1, keeping the heap O(active) instead of O(total pushes).
func (s *Simulator) maybeCompact() {
	if s.comp.Len() < 64 || s.comp.Len() < 4*s.active.Len() {
		return
	}
	s.comp.compact()
}

// Schedule assembles the circuit schedule accumulated so far. The returned
// schedule is an independent snapshot: calling RunUntil afterwards does not
// mutate it, so mid-run captures stay valid for later comparison. Open
// segments (flows transmitting at the current time) are closed virtually at
// Now without disturbing the lazy simulator state.
func (s *Simulator) Schedule() *coflow.CircuitSchedule {
	cs := coflow.NewCircuitSchedule()
	for r := range s.states {
		cs.Set(r, s.FlowSchedule(r))
	}
	return cs
}

// FlowSchedule is one flow's part of Schedule, nil for a flow the simulator
// does not (or no longer) track: what a caller captures before it Forgets the
// flow.
func (s *Simulator) FlowSchedule(ref coflow.FlowRef) *coflow.FlowSchedule {
	st, ok := s.states[ref]
	if !ok {
		return nil
	}
	segs := make([]coflow.BandwidthSegment, len(st.segments), len(st.segments)+1)
	copy(segs, st.segments)
	if !st.done && st.rate > 0 && s.now > st.lastT {
		segs = appendSegment(segs, st.lastT, s.now, st.rate)
	}
	fs := &coflow.FlowSchedule{Path: st.path, Segments: segs}
	mergeSegments(fs)
	return fs
}

// appendSegment records one constant-rate interval, coalescing with the
// previous segment when it continues at the same rate — schedules stay
// proportional to the number of distinct rate assignments, not events.
func appendSegment(segs []coflow.BandwidthSegment, start, end, rate float64) []coflow.BandwidthSegment {
	if n := len(segs); n > 0 {
		last := &segs[n-1]
		if math.Abs(last.End-start) < 1e-12 && math.Abs(last.Rate-rate) < 1e-12 {
			last.End = end
			return segs
		}
	}
	return append(segs, coflow.BandwidthSegment{Start: start, End: end, Rate: rate})
}

// Run simulates the instance to completion under the given configuration and
// returns the resulting circuit schedule (which callers can Validate and
// score). Unlike New, Run requires a complete priority order when the
// Priority policy is selected, matching the offline setting where every flow
// is known up front.
func Run(inst *coflow.Instance, cfg Config) (*coflow.CircuitSchedule, error) {
	if cfg.Policy == Priority {
		if len(cfg.Order) != inst.NumFlows() {
			return nil, fmt.Errorf("sim: priority order has %d flows, instance has %d", len(cfg.Order), inst.NumFlows())
		}
	}
	s, err := New(inst, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		return nil, err
	}
	return s.Schedule(), nil
}

// sortStatuses orders flow statuses by reference, the order Residuals
// promises.
func sortStatuses(out []FlowStatus) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ref.Coflow != out[j].Ref.Coflow {
			return out[i].Ref.Coflow < out[j].Ref.Coflow
		}
		return out[i].Ref.Index < out[j].Ref.Index
	})
}

// mergeSegments coalesces adjacent segments with identical rates to keep
// schedules small.
func mergeSegments(fs *coflow.FlowSchedule) {
	if len(fs.Segments) <= 1 {
		return
	}
	sort.Slice(fs.Segments, func(i, j int) bool { return fs.Segments[i].Start < fs.Segments[j].Start })
	merged := fs.Segments[:1]
	for _, s := range fs.Segments[1:] {
		last := &merged[len(merged)-1]
		if math.Abs(last.End-s.Start) < 1e-12 && math.Abs(last.Rate-s.Rate) < 1e-12 {
			last.End = s.End
			continue
		}
		merged = append(merged, s)
	}
	fs.Segments = merged
}
