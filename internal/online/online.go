// Package online implements an event-driven online coflow scheduler on top
// of the offline building blocks: coflows arrive over time (see
// workload.GenerateArrivals), time is divided into fixed-length epochs, and
// at each epoch boundary a pluggable Policy re-prioritizes the residual
// (partially transmitted) flows of the coflows that have arrived so far. The
// resumable simulator (sim.Simulator) then advances to the next boundary
// under that priority order.
//
// There is one epoch loop, Engine: it admits and routes coflows, keeps the
// residual view policies decide on, installs their orders and advances the
// simulator. coflowd (internal/server) drives it against the wall clock; Run
// drives it over a fixed instance and returns the scored transcript, so the
// experiments, the CLI and the batch goldens exercise the code the daemon
// serves from.
//
// Policies never see the future: the Engine hands them a Snapshot containing
// only arrived, unfinished coflows and their residual volumes. The one
// deliberate exception is Oracle, the hindsight comparator, which is given
// the full instance up front and serves as a lower-bound reference for the
// price of online operation.
//
// Expensive policies (LPEpoch) are applied one epoch late, the trade a real
// scheduler makes when its solver is slower than its epoch. The Engine holds
// the one staleness rule (Engine.Settle), and every drive goes through it:
// Run, DecideSync and Drain decide inline, coflowd off its scheduler goroutine.
package online

import (
	"math/rand"
	"slices"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// ResidualFlow is the policy-visible state of one flow: identity, route and
// how much volume is still to transmit.
type ResidualFlow struct {
	Ref    coflow.FlowRef
	Source graph.NodeID
	Dest   graph.NodeID
	// Path is the route fixed at admission; online policies re-prioritize
	// but do not re-route in-flight circuits.
	Path graph.Path
	// Release is the flow's absolute release time.
	Release float64
	// Size is the flow's full volume; Remaining is what is left of it.
	Size      float64
	Remaining float64
}

// ResidualCoflow groups the residual flows of one arrived, unfinished
// coflow.
type ResidualCoflow struct {
	// Index is the coflow's index in the original instance.
	Index   int
	Name    string
	Weight  float64
	Arrival float64
	// Flows lists the coflow's unfinished flows (finished ones are elided).
	Flows []ResidualFlow

	// gamma memoizes the coflow's residual bottleneck time (see
	// residualBottleneck) when hasGamma is set. The engine sets it whenever
	// it rebuilds the slot, so a policy scoring by Γ touches only the
	// coflows that changed; hand-built snapshots leave it unset and are
	// scored on demand.
	gamma    float64
	hasGamma bool
	seed     int // sortCoflows' seed: its first live flow's rank in the last order
}

// residualBottleneck is a coflow's residual Γ: the bottleneck time of its
// unfinished flows' remaining volumes over their admission paths. loads is
// the caller's scratch, returned for reuse.
func residualBottleneck(g *graph.Graph, flows []ResidualFlow, loads []graph.PathLoad) (float64, []graph.PathLoad) {
	loads = loads[:0]
	for j := range flows {
		loads = append(loads, graph.PathLoad{Path: flows[j].Path, Volume: flows[j].Remaining})
	}
	return g.BottleneckTime(loads), loads
}

// Snapshot is everything a policy may look at when deciding the next epoch's
// priorities: the clock, the network, and the residual state of arrived
// coflows. Policies treat it as immutable: coflowd's asynchronous decides run
// concurrently with the simulation on an independent copy (Engine.Snapshot),
// and on the engine's synchronous path they read the engine's own long-lived
// view.
type Snapshot struct {
	// Now is the simulation time the snapshot was taken at.
	Now float64
	// Epoch is the index of the epoch about to be decided.
	Epoch int
	// Network is the (immutable) topology.
	Network *graph.Graph
	// Coflows lists arrived coflows with at least one unfinished flow,
	// in arrival order.
	Coflows  []ResidualCoflow
	seedSpan int // length of the order the seeds index, 0 by hand

	// Decide-time scratch, reused across epochs on the engine's long-lived
	// view (the synchronous decide path). Reuse is safe because at most one
	// Decide ever runs against a snapshot and the engine copies the returned
	// order before the next one starts.
	orderArena []coflow.FlowRef
	idxArena   []int
	keyArena   []float64
	seatArena  []int
}

// NumFlows returns the number of residual flows across all coflows.
func (s *Snapshot) NumFlows() int {
	n := 0
	for _, cf := range s.Coflows {
		n += len(cf.Flows)
	}
	return n
}

// resize returns the scratch buffer *buf resized to n, grown the way append
// grows it (old elements kept, new ones zero) and kept in *buf for reuse.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = slices.Grow((*buf)[:0], n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Policy decides the priority order for an epoch. Implementations must be
// deterministic given the snapshot (and their construction-time inputs):
// the engine's determinism guarantee — same seed and config, same schedule —
// rests on it.
type Policy interface {
	Name() string
	// Decide returns a priority order over residual flows. The order may be
	// partial; flows it omits are served last. Decide must not retain the
	// snapshot after returning and must not modify it: the engine's
	// synchronous path passes its own long-lived view, updated in place
	// between calls, not a copy. A policy that failed but decided another way
	// returns a *Fallback holding that order.
	Decide(snap *Snapshot) ([]coflow.FlowRef, error)
}

// Fallback is the error of a Decide that failed and decided another way
// instead: Order is that decision (LPEpoch's: the SEBF order, on a solver
// error), Err the failure. It is no failure to the engine, which settles
// Order and counts it (EpochStat.Fallback, EngineStats.Fallbacks).
type Fallback struct {
	Order []coflow.FlowRef
	Err   error
}

func (f *Fallback) Error() string { return "online: fell back: " + f.Err.Error() }

func (f *Fallback) Unwrap() error { return f.Err }

// AsyncPolicy marks a policy whose Decide is too expensive to finish inside
// the epoch boundary. When Async reports true, the order decided on the view
// at the start of epoch k is applied at epoch k+1, as if the solve had run
// alongside epoch k's transmission (Engine.Settle). Cheap heuristics should
// not implement this (or return false): their orders apply at once.
type AsyncPolicy interface {
	Policy
	Async() bool
}

// Preparer is implemented by policies that need to see the full hindsight
// instance before the run starts (Oracle). Run calls Prepare once, before the
// first epoch, with the complete instance and a seeded rng.
type Preparer interface {
	Prepare(inst *coflow.Instance, rng *rand.Rand) error
}
