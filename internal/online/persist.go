package online

import (
	"fmt"
	"math"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// This file is the engine's persistence surface: ExportState captures
// everything a restarted daemon needs to resume scheduling its
// admitted-but-incomplete coflows, and RestoreEngine rebuilds a live engine
// from it. The design invariant is exact resumption: a restored engine makes
// the same routing and ordering decisions as the original would have, because
//
//   - admission routing reads only the cumulative admitted load (Load), which
//     is persisted verbatim (it is never decremented, so replayed admissions
//     route identically);
//   - every shipped policy ranks residual flows by remaining volume, path and
//     arrival — none reads a flow's original size — so re-registering each
//     live flow with Size = Remaining preserves decisions exactly;
//   - slowdown denominators (Gamma) are persisted, not recomputed, since the
//     restored simulator no longer knows the original volumes.
//
// One deliberate asymmetry: flows that were admitted after the original
// engine's last applied order carry an "admitted, unranked" rank there, while
// a restored engine folds them into the same trailing rank class as any other
// unlisted flow. Both classes sort after every listed flow and tie-break by
// flow reference, so schedules agree whenever decisions cover all active
// flows (every synchronous decide does); only a mid-solve crash interleaving
// both classes can transiently differ until the next decision lands.
type EngineState struct {
	Now   float64 `json:"now"`
	Epoch int     `json:"epoch"`

	Decisions        int       `json:"decisions"`
	Fallbacks        int       `json:"fallbacks,omitempty"` // EngineStats.Fallbacks; absent when none was settled
	CompletedCoflows int       `json:"completed_coflows"`
	DoneFlows        int       `json:"done_flows"`
	TotalFlows       int       `json:"total_flows"`
	WeightedCCT      float64   `json:"weighted_cct"`
	WeightedResponse float64   `json:"weighted_response"`
	LastChurn        float64   `json:"last_churn"`
	Slowdowns        []float64 `json:"slowdowns,omitempty"`
	SolveLatencies   []float64 `json:"solve_latencies,omitempty"`

	// Load is the cumulative admitted volume per edge (indexed by edge id).
	Load []float64 `json:"load"`
	// Order is the applied priority order, restricted to live flows.
	Order []coflow.FlowRef `json:"order,omitempty"`
	// Coflows is the per-coflow registry, indexed by coflow id.
	Coflows []CoflowPersist `json:"coflows"`
}

// CoflowPersist is one admitted coflow's registry entry. Completed coflows
// keep only their aggregates (name, completion, totals); active coflows also
// carry their live flows' residuals.
type CoflowPersist struct {
	Name       string  `json:"name,omitempty"`
	Weight     float64 `json:"weight"`
	Arrival    float64 `json:"arrival"`
	Gamma      float64 `json:"gamma"`
	TotalBytes float64 `json:"total_bytes"`
	Completion float64 `json:"completion"`
	NumFlows   int     `json:"num_flows"`
	FlowsLeft  int     `json:"flows_left"`
	// Flows holds the unfinished flows (FlowsLeft entries); finished flows of
	// an active coflow are represented only through the counters.
	Flows []FlowPersist `json:"flows,omitempty"`
}

// FlowPersist is one live flow's residual state.
type FlowPersist struct {
	// Index is the flow's position within its coflow.
	Index  int          `json:"index"`
	Source graph.NodeID `json:"source"`
	Dest   graph.NodeID `json:"dest"`
	// Size is the originally admitted volume (kept for registry fidelity;
	// scheduling after restore runs on Remaining).
	Size float64 `json:"size"`
	// Release is the absolute release time assigned at admission.
	Release float64 `json:"release"`
	// Remaining is the residual volume at export time.
	Remaining float64    `json:"remaining"`
	Path      graph.Path `json:"path"`
}

// residualFloor keeps a persisted residual strictly positive: the simulator's
// completion-tolerance corner can leave a flow projecting to exactly zero one
// event before it is marked done, and AddFlow rejects zero-volume flows. The
// floor is far inside the completion tolerance band, so the restored flow
// finishes at the restore clock within the 1e-9 equivalence the differential
// harness asserts.
const residualFloor = 1e-12

// ExportState captures the engine's durable state. Must be called on the
// goroutine that owns the engine. The returned state shares nothing with the
// engine.
func (e *Engine) ExportState() *EngineState {
	st := &EngineState{
		Now:              e.now,
		Epoch:            e.epoch,
		Decisions:        e.decisions,
		Fallbacks:        e.fallbacks,
		CompletedCoflows: e.completedCoflows,
		DoneFlows:        e.doneFlows,
		TotalFlows:       e.totalFlows,
		WeightedCCT:      e.weightedCCT,
		WeightedResponse: e.weightedResponse,
		LastChurn:        e.lastChurn,
		Slowdowns:        e.slowdowns.snapshot(),
		SolveLatencies:   e.solveLatencies.snapshot(),
		Load:             append([]float64(nil), e.load...),
		Order:            append([]coflow.FlowRef(nil), e.order...),
	}
	st.Coflows = make([]CoflowPersist, len(e.inst.Coflows))
	for id := range e.inst.Coflows {
		cf := &e.inst.Coflows[id]
		cp := CoflowPersist{
			Name:       cf.Name,
			Weight:     cf.Weight,
			Arrival:    e.arrivals[id],
			Gamma:      e.gammas[id],
			TotalBytes: e.totalBytes[id],
			Completion: e.completion[id],
			NumFlows:   e.numFlows[id],
			FlowsLeft:  e.flowsLeft[id],
		}
		if e.flowsLeft[id] > 0 {
			for j := range cf.Flows {
				f := &cf.Flows[j]
				fs, ok := e.sim.Status(coflow.FlowRef{Coflow: id, Index: j})
				if !ok || fs.Done {
					continue
				}
				rem := fs.Remaining
				if floor := residualFloor * f.Size; rem < floor {
					rem = floor
				}
				cp.Flows = append(cp.Flows, FlowPersist{
					Index:     j,
					Source:    f.Source,
					Dest:      f.Dest,
					Size:      f.Size,
					Release:   f.Release,
					Remaining: rem,
					Path:      fs.Path,
				})
			}
		}
		st.Coflows[id] = cp
	}
	return st
}

// RestoreEngine rebuilds a live engine from an exported state over the same
// network, policy and configuration the original ran with. Live flows are
// re-registered with their residual volume as their size, released no earlier
// than the restored clock (the new simulator's timeline starts empty, and a
// release in its past would re-transfer volume the original already moved).
// The persisted order is re-applied without counting as a decision.
func RestoreEngine(g *graph.Graph, policy Policy, cfg Config, st *EngineState) (*Engine, error) {
	e, err := NewEngine(g, policy, cfg)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("online: restore needs a state")
	}
	if len(st.Load) != g.NumEdges() {
		return nil, fmt.Errorf("online: restored load has %d edges, network has %d (topology changed?)", len(st.Load), g.NumEdges())
	}
	if math.IsNaN(st.Now) || math.IsInf(st.Now, 0) || st.Now < 0 {
		return nil, fmt.Errorf("online: restored clock %v is invalid", st.Now)
	}
	for id := range st.Coflows {
		cp := &st.Coflows[id]
		if cp.NumFlows <= 0 {
			return nil, fmt.Errorf("online: restored coflow %d has %d flows", id, cp.NumFlows)
		}
		if cp.FlowsLeft < 0 || cp.FlowsLeft > cp.NumFlows {
			return nil, fmt.Errorf("online: restored coflow %d has %d of %d flows left", id, cp.FlowsLeft, cp.NumFlows)
		}
		if cp.FlowsLeft != len(cp.Flows) {
			return nil, fmt.Errorf("online: restored coflow %d lists %d live flows but counts %d left", id, len(cp.Flows), cp.FlowsLeft)
		}
		admitted := coflow.Coflow{Name: cp.Name, Weight: cp.Weight}
		if cp.FlowsLeft > 0 {
			admitted.Flows = make([]coflow.Flow, cp.NumFlows)
		}
		for k := range cp.Flows {
			fp := &cp.Flows[k]
			if fp.Index < 0 || fp.Index >= cp.NumFlows {
				return nil, fmt.Errorf("online: restored coflow %d flow index %d out of range", id, fp.Index)
			}
			if fp.Remaining <= 0 || math.IsNaN(fp.Remaining) || math.IsInf(fp.Remaining, 0) {
				return nil, fmt.Errorf("online: restored coflow %d flow %d has residual %v", id, fp.Index, fp.Remaining)
			}
			if err := fp.Path.Validate(g, fp.Source, fp.Dest); err != nil {
				return nil, fmt.Errorf("online: restored coflow %d flow %d path: %w", id, fp.Index, err)
			}
			admitted.Flows[fp.Index] = coflow.Flow{
				Source:  fp.Source,
				Dest:    fp.Dest,
				Size:    fp.Size,
				Release: fp.Release,
				Path:    fp.Path,
			}
		}
		e.inst.Coflows = append(e.inst.Coflows, admitted)
		e.arrivals = append(e.arrivals, cp.Arrival)
		e.gammas = append(e.gammas, cp.Gamma)
		e.numFlows = append(e.numFlows, cp.NumFlows)
		e.flowsLeft = append(e.flowsLeft, cp.FlowsLeft)
		e.completion = append(e.completion, cp.Completion)
		e.totalBytes = append(e.totalBytes, cp.TotalBytes)
		if cp.FlowsLeft > 0 {
			e.active = append(e.active, id)
		}
		for k := range cp.Flows {
			fp := &cp.Flows[k]
			release := fp.Release
			if release < st.Now {
				release = st.Now
			}
			ref := coflow.FlowRef{Coflow: id, Index: fp.Index}
			reg := coflow.Flow{
				Source:  fp.Source,
				Dest:    fp.Dest,
				Size:    fp.Remaining,
				Release: release,
				Path:    fp.Path,
			}
			if err := e.sim.AddFlow(ref, reg, fp.Path); err != nil {
				return nil, fmt.Errorf("online: re-registering coflow %d flow %d: %w", id, fp.Index, err)
			}
		}
		e.viewDirty = append(e.viewDirty, false)
	}
	// The persisted order goes through the replay filter; the counters it
	// touches are restored below.
	if err := e.ApplyOrder(st.Order, 0); err != nil {
		return nil, fmt.Errorf("online: re-applying restored order: %w", err)
	}
	e.load = append(e.load[:0], st.Load...)
	e.now = st.Now
	e.epoch = st.Epoch
	e.decisions = st.Decisions
	e.fallbacks = st.Fallbacks
	e.completedCoflows = st.CompletedCoflows
	e.doneFlows = st.DoneFlows
	e.totalFlows = st.TotalFlows
	e.weightedCCT = st.WeightedCCT
	e.weightedResponse = st.WeightedResponse
	e.lastChurn = st.LastChurn
	e.slowdowns, e.solveLatencies = restoreRing(st.Slowdowns), restoreRing(st.SolveLatencies)
	return e, nil
}

// restoreRing rebuilds a reservoir from its persisted values, truncated to
// the engine's window (oldest dropped first).
func restoreRing(vals []float64) ring {
	if len(vals) > statsWindow {
		vals = vals[len(vals)-statsWindow:]
	}
	return ring{vals: append([]float64(nil), vals...)}
}
