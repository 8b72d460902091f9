package online

import (
	"errors"
	"fmt"
	"math"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
)

// Engine is the epoch loop's state, and the one implementation of it: coflows
// are admitted one at a time (Admit), the clock is advanced explicitly
// (AdvanceTo), and a decided order comes back through Settle, the one place
// the staleness rule lives, so an expensive Decide can run outside the
// goroutine that owns the engine. coflowd's scheduler goroutine drives it
// against the wall clock; Run and Drain drive it epoch by epoch through
// DecideSync. The engine itself is NOT safe for concurrent use — a single
// goroutine must own it and serialize access, which is exactly what
// internal/server's scheduler goroutine does.
//
// The residual snapshot the caller hands to Policy.Decide comes from
// Snapshot, which only exposes admitted, arrived, unfinished coflows, so
// policies remain causally blind to the future.
//
// Long-running cost: the engine keeps one residual view of the active
// coflows and, per epoch, rebuilds only the slots of coflows whose flows
// transmitted (the simulator's progress log), were just admitted or
// completed (syncView); AdvanceTo costs the completions it folds in, and the
// coflow sort starts from the order last applied. What is still proportional
// to the active flows every decision is the order's expansion into flows and
// the simulator's install (one lookup per listed flow, counting the flows
// that kept their rank, the churn numerator); an order an advance overtook
// also pays ApplyOrder's filter. Completed coflows are pruned from the
// simulator (sim.ForgetCoflow) and the engine's flow copies as soon as their
// completion is recorded, the epoch arenas (view, order buffers) are handed
// back when a sizeable backlog has drained (idleKeepFlows), and the
// slowdown/solve-latency samples live in bounded reservoirs of the most
// recent statsWindow values. What does grow with total admissions is the
// per-coflow registry (arrival, completion, counts, byte totals — a few words
// per coflow) that backs the status endpoint, plus the simulator's 24-byte row
// header per coflow in its flow table, the one place flow state is found.
type Engine struct {
	cfg    Config
	policy Policy
	inst   *coflow.Instance
	sim    *sim.Simulator

	// arrivals and gammas are indexed by coflow id (= index in inst.Coflows).
	// gamma is the coflow's isolated bottleneck time under its admission
	// routing, the slowdown denominator.
	arrivals []float64
	gammas   []float64
	// numFlows and flowsLeft count all and unfinished flows per coflow (as of
	// the last advance); completion holds the max flow completion seen so far
	// (the coflow CCT once flowsLeft hits 0); totalBytes the admitted volume.
	numFlows   []int
	flowsLeft  []int
	completion []float64
	totalBytes []float64
	// active lists admitted, uncompleted coflow ids in admission order; it
	// is the only set the per-tick scans iterate.
	active []int

	// load accumulates admitted volume per edge for causal path selection.
	// loadUndo is Admit's undo log over it, reused across admissions.
	load     []float64
	loadUndo []loadWrite
	now      float64
	epoch    int
	order    []coflow.FlowRef
	// orderScratch is ApplyOrder's reusable buffer.
	orderScratch []coflow.FlowRef
	// view is the persistent residual snapshot: one slot per arrived active
	// coflow, in admission order, as of the last syncView. DecideSync hands
	// it to the policy in place — legal because Decide must neither retain
	// nor modify it — and Snapshot copies it. viewDirty marks, by coflow id,
	// the slots an advance left stale; progress and loads are the scratch
	// behind the progress-log drain and the slots' Γ memo.
	view      Snapshot
	viewDirty []bool
	progress  []coflow.FlowRef
	loads     []graph.PathLoad
	// lastChurn is the order-churn fraction of the most recent ApplyOrder.
	lastChurn float64
	// held is an AsyncPolicy's one-slot deferral, set while holding: a copy,
	// as a policy may return its order in the view's arena. warmAt is the
	// last epoch whose boundary applied a held order, -1 before any.
	held    Decision
	holding bool
	warmAt  int
	// recentDone logs coflow ids completed since the last TakeCompleted call
	// — the hook lifecycle tracing uses to emit completion spans without
	// rescanning engine state.
	recentDone []int
	// transcript, when non-nil, keeps the schedule of every flow the engine
	// forgets. NewEngine leaves it nil — a daemon's transcript would grow
	// with lifetime admissions — and Run, which scores and returns it, sets it.
	transcript *coflow.CircuitSchedule

	// Aggregates surfaced by Stats.
	completedCoflows int
	doneFlows        int
	totalFlows       int
	decisions        int
	fallbacks        int
	weightedCCT      float64
	weightedResponse float64
	slowdowns        ring
	solveLatencies   ring
}

// idleKeepFlows is the backlog (flows in one applied order) up to which an
// engine that goes idle keeps its epoch arenas and its simulator's tables: a
// lightly loaded daemon goes idle every tick, and regrowing a few kilobytes
// each time costs more than holding them (3 % of the admit-shard window,
// which admits ~70 flows per tick). What a larger backlog sized is handed
// back.
const idleKeepFlows = 256

// statsWindow bounds the percentile sample reservoirs: a long-running
// daemon reports tails over the most recent window rather than accumulating
// every sample forever.
const statsWindow = 4096

// ring is a bounded sample reservoir holding the most recent statsWindow
// values (insertion order is irrelevant to percentiles).
type ring struct {
	vals []float64
	next int
}

func (r *ring) add(v float64) {
	if len(r.vals) < statsWindow {
		r.vals = append(r.vals, v)
		return
	}
	r.vals[r.next] = v
	r.next = (r.next + 1) % statsWindow
}

func (r *ring) snapshot() []float64 { return append([]float64(nil), r.vals...) }

// EngineStats is the aggregate view surfaced by Engine.Stats, the source of
// the server's /v1/stats and /metrics endpoints.
type EngineStats struct {
	// Now is the engine clock (simulated time last advanced to).
	Now float64
	// Epochs counts AdvanceTo calls, Decisions counts applied orders, and
	// Fallbacks the decisions settled that were a policy's *Fallback.
	Epochs    int
	Decisions int
	Fallbacks int
	// Admitted, Completed and Active count coflows.
	Admitted  int
	Completed int
	Active    int
	// ActiveFlows counts admitted, unfinished flows.
	ActiveFlows int
	// WeightedCCT and WeightedResponse aggregate over completed coflows.
	WeightedCCT      float64
	WeightedResponse float64
	// Slowdowns holds one entry per completed coflow (response over the
	// coflow's isolated bottleneck time), bounded to the most recent
	// statsWindow completions.
	Slowdowns []float64
	// SolveLatencies holds the wall-clock duration, in seconds, of applied
	// policy decisions, bounded to the most recent statsWindow.
	SolveLatencies []float64
}

// CoflowStatus is the per-coflow view surfaced by Engine.CoflowStatus, the
// source of the server's GET /v1/coflows/{id}.
type CoflowStatus struct {
	ID      int
	Name    string
	Weight  float64
	Arrival float64
	// NumFlows and FlowsDone count the coflow's flows; TotalBytes and
	// RemainingBytes its volume.
	NumFlows       int
	FlowsDone      int
	TotalBytes     float64
	RemainingBytes float64
	Done           bool
	// Completion, Response and Slowdown are meaningful once Done.
	Completion float64
	Response   float64
	Slowdown   float64
}

// NewEngine builds an empty incremental engine over the given network. The
// policy must be snapshot-driven (Preparer policies like Oracle need the full
// future up front, which an incremental engine cannot provide).
func NewEngine(g *graph.Graph, policy Policy, cfg Config) (*Engine, error) {
	if _, ok := policy.(Preparer); ok {
		return nil, fmt.Errorf("online: policy %s needs the full instance up front and cannot run incrementally", policy.Name())
	}
	return newEngine(g, policy, cfg)
}

// newEngine is NewEngine without the Preparer check: Run holds the full
// instance and prepares a hindsight policy itself.
func newEngine(g *graph.Graph, policy Policy, cfg Config) (*Engine, error) {
	if cfg.EpochLength <= 0 {
		return nil, fmt.Errorf("online: epoch length must be positive, got %v", cfg.EpochLength)
	}
	if g == nil {
		return nil, fmt.Errorf("online: engine requires a network")
	}
	inst := &coflow.Instance{Network: g}
	s, err := sim.New(inst, sim.Config{Policy: sim.Priority})
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:    cfg,
		policy: policy,
		inst:   inst,
		sim:    s,
		load:   make([]float64, g.NumEdges()),
		warmAt: -1,
	}, nil
}

// candidatePaths returns the admission router's candidate set for one flow:
// its pre-assigned path if any, otherwise the K shortest paths between its
// endpoints, memoized on the (immutable) network itself — so every engine,
// benchmark and recovery replay sharing a topology computes each pair at
// most once. The memo is a pure function of the topology, which is what
// keeps Admit's rollback exact: there is no engine-side routing cache to
// unwind when an admission fails midway.
func (e *Engine) candidatePaths(f *coflow.Flow) []graph.Path {
	if f.Path != nil {
		return []graph.Path{f.Path}
	}
	return e.inst.Network.KShortestPathsCached(f.Source, f.Dest, admissionPaths)
}

// admissionPaths bounds the admission-time routing's candidate set, matching
// the offline schedulers' default (core.Options.CandidatePaths).
const admissionPaths = 4

// pickPath chooses, among a flow's candidates, the path minimizing the
// resulting size-weighted bottleneck load given the volume admitted so far
// (ties: the smaller summed load, then the earlier candidate). It reads load
// and leaves the charging to the caller: Admit logs every write for rollback.
func pickPath(g *graph.Graph, load []float64, f *coflow.Flow, cands []graph.Path) (graph.Path, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("no path from %d to %d", f.Source, f.Dest)
	}
	bestIdx := 0
	bestMax, bestSum := -1.0, 0.0
	for i, p := range cands {
		maxLoad, sumLoad := 0.0, 0.0
		for _, e := range p {
			l := (load[e] + f.Size) / g.Capacity(e)
			sumLoad += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		if bestMax < 0 || maxLoad < bestMax-1e-12 ||
			(maxLoad < bestMax+1e-12 && sumLoad < bestSum-1e-12) {
			bestMax, bestSum = maxLoad, sumLoad
			bestIdx = i
		}
	}
	return cands[bestIdx], nil
}

// Now returns the engine clock.
func (e *Engine) Now() float64 { return e.now }

// NumCoflows returns the number of admitted coflows.
func (e *Engine) NumCoflows() int { return len(e.inst.Coflows) }

// Done reports whether every admitted flow has completed.
func (e *Engine) Done() bool { return e.sim.Done() }

// Admit validates and admits one coflow at time now, returning its id. The
// coflow's flow Release fields are treated as offsets from the admission
// time (negative offsets are clamped to zero); each flow is routed causally
// onto the least-loaded of its candidate paths (pickPath). Admission must not
// precede the engine clock.
func (e *Engine) Admit(cf coflow.Coflow, now float64) (int, error) {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return 0, fmt.Errorf("online: invalid admission time %v", now)
	}
	if now < e.now-1e-12 {
		return 0, fmt.Errorf("online: admission at %v precedes the engine clock %v", now, e.now)
	}
	if now < e.now {
		now = e.now // absorb sub-tolerance clock skew
	}
	if cf.Weight < 0 || math.IsNaN(cf.Weight) {
		return 0, fmt.Errorf("online: invalid coflow weight %v", cf.Weight)
	}
	if len(cf.Flows) == 0 {
		return 0, fmt.Errorf("online: coflow has no flows")
	}
	n := e.inst.Network.NumNodes()
	for j, f := range cf.Flows {
		if int(f.Source) < 0 || int(f.Source) >= n || int(f.Dest) < 0 || int(f.Dest) >= n {
			return 0, fmt.Errorf("online: flow %d has endpoints outside the network", j)
		}
		if f.Source == f.Dest {
			return 0, fmt.Errorf("online: flow %d has identical source and destination", j)
		}
		if f.Size <= 0 || math.IsNaN(f.Size) || math.IsInf(f.Size, 0) {
			return 0, fmt.Errorf("online: flow %d has invalid size %v", j, f.Size)
		}
		if math.IsNaN(f.Release) || math.IsInf(f.Release, 0) {
			return 0, fmt.Errorf("online: flow %d has invalid release offset %v", j, f.Release)
		}
		if f.Path != nil {
			if err := f.Path.Validate(e.inst.Network, f.Source, f.Dest); err != nil {
				return 0, fmt.Errorf("online: flow %d pre-assigned path invalid: %v", j, err)
			}
		}
	}

	// Route and register. Every charge to the routing load is logged so a
	// mid-coflow failure leaves no partial admission behind (sim registration
	// failures after routing cannot happen: the reference is fresh and the
	// path was just validated — but guard anyway and roll back).
	id := len(e.inst.Coflows)
	admitted := coflow.Coflow{Name: cf.Name, Weight: cf.Weight, Flows: make([]coflow.Flow, len(cf.Flows))}
	e.loadUndo = e.loadUndo[:0]
	gammaLoads := make([]graph.PathLoad, len(cf.Flows))
	for j, f := range cf.Flows {
		offset := f.Release
		if offset < 0 {
			offset = 0
		}
		path, err := pickPath(e.inst.Network, e.load, &f, e.candidatePaths(&f))
		if err != nil {
			e.rollbackLoad()
			return 0, fmt.Errorf("online: flow %d: %w", j, err)
		}
		for _, eid := range path {
			e.loadUndo = append(e.loadUndo, loadWrite{edge: eid, prev: e.load[eid]})
			e.load[eid] += f.Size
		}
		admitted.Flows[j] = coflow.Flow{
			Source:  f.Source,
			Dest:    f.Dest,
			Size:    f.Size,
			Release: now + offset,
			Path:    path,
		}
		gammaLoads[j] = graph.PathLoad{Path: path, Volume: f.Size}
	}
	for j := range admitted.Flows {
		ref := coflow.FlowRef{Coflow: id, Index: j}
		if err := e.sim.AddFlow(ref, admitted.Flows[j], admitted.Flows[j].Path); err != nil {
			// Roll back the flows already registered — they are all still
			// pending (nothing advances the simulator mid-admission), so
			// removal restores the simulator exactly. Removal of a flow we
			// just added can only fail on an engine invariant violation.
			for k := j - 1; k >= 0; k-- {
				if rerr := e.sim.Remove(coflow.FlowRef{Coflow: id, Index: k}); rerr != nil {
					panic(fmt.Sprintf("online: rollback of coflow %d flow %d: %v", id, k, rerr))
				}
			}
			e.rollbackLoad()
			return 0, fmt.Errorf("online: flow %d: %w", j, err)
		}
	}

	bytes := 0.0
	for _, f := range admitted.Flows {
		bytes += f.Size
	}
	e.inst.Coflows = append(e.inst.Coflows, admitted)
	e.arrivals = append(e.arrivals, now)
	e.gammas = append(e.gammas, e.inst.Network.BottleneckTime(gammaLoads))
	e.numFlows = append(e.numFlows, len(admitted.Flows))
	e.flowsLeft = append(e.flowsLeft, len(admitted.Flows))
	e.completion = append(e.completion, 0)
	e.totalBytes = append(e.totalBytes, bytes)
	e.active = append(e.active, id)
	e.viewDirty = append(e.viewDirty, false) // no slot yet: syncView builds one
	e.totalFlows += len(admitted.Flows)
	return id, nil
}

// loadWrite is one entry of Admit's undo log: an edge of the routing-load
// vector and the value it held before the admission charged it.
type loadWrite struct {
	edge graph.EdgeID
	prev float64
}

// rollbackLoad restores the routing load to what it was when the current
// admission began. It writes the logged values back, newest first, rather
// than subtracting the sizes again: (x+s)-s need not equal x in floating
// point, and a failed admission must leave the vector bit-identical.
func (e *Engine) rollbackLoad() {
	for i := len(e.loadUndo) - 1; i >= 0; i-- {
		e.load[e.loadUndo[i].edge] = e.loadUndo[i].prev
	}
}

// fillSlot builds the residual view of one active coflow into rcf, reusing
// rcf's Flows backing, and memoizes the coflow's residual bottleneck on it.
// It is the one snapshot builder: DecideSync, Snapshot and recovery replay
// all read slots it filled. Flow state comes from the simulator's flow table
// — no FlowStatus built — and everything that does not move comes from the
// admitted coflow.
func (e *Engine) fillSlot(id int, rcf *ResidualCoflow) {
	cf := &e.inst.Coflows[id]
	flows := rcf.Flows[:0]
	if cap(flows) < len(cf.Flows) {
		flows = make([]ResidualFlow, 0, len(cf.Flows)) // a fresh slot: size it once
	}
	for j := range cf.Flows {
		ref := coflow.FlowRef{Coflow: id, Index: j}
		// A flow unknown to the simulator finished before a restore and was
		// never re-registered.
		size, remaining, done, ok := e.sim.Residual(ref)
		if !ok || done {
			continue
		}
		f := &cf.Flows[j]
		flows = append(flows, ResidualFlow{
			Ref:       ref,
			Source:    f.Source,
			Dest:      f.Dest,
			Path:      f.Path,
			Release:   f.Release,
			Size:      size,
			Remaining: remaining,
		})
	}
	*rcf = ResidualCoflow{Index: id, Name: cf.Name, Weight: cf.Weight, Arrival: e.arrivals[id], Flows: flows, hasGamma: true}
	rcf.gamma, e.loads = residualBottleneck(e.inst.Network, flows, e.loads)
}

// syncView brings the residual view up to date with the engine clock and
// returns it. Slots and active coflows are both in admission order, so one
// two-cursor walk compacts out the slots of coflows that completed, carries
// the rest over — rebuilding only those an advance marked dirty — and appends
// slots for coflows admitted (or, admitted ahead of the clock, arrived) since
// the last call. Retired slots are swapped towards the tail rather than
// overwritten, so their Flows backings serve the next admissions.
func (e *Engine) syncView() *Snapshot {
	v := &e.view
	v.Now, v.Epoch, v.Network = e.now, e.epoch, e.inst.Network
	old := len(v.Coflows)
	slots := v.Coflows[:cap(v.Coflows)]
	w, r := 0, 0
	for _, id := range e.active {
		if e.arrivals[id] > e.now+1e-15 {
			continue // future admission: invisible to the policy
		}
		for r < old && slots[r].Index < id {
			r++ // completed since the last sync
		}
		fresh := r == old || slots[r].Index != id
		switch {
		case fresh && r < old:
			// A coflow admitted ahead of the clock arrived between two that
			// were already visible (admission times out of id order): there
			// is no slot to grow into, so rebuild every slot.
			v.Coflows = v.Coflows[:0]
			return e.syncView()
		case fresh && w == len(slots):
			slots = append(slots, ResidualCoflow{})
			slots = slots[:cap(slots)]
		case !fresh:
			if w != r {
				slots[w], slots[r] = slots[r], slots[w]
			}
			r++
		}
		if fresh || e.viewDirty[id] {
			e.fillSlot(id, &slots[w])
			e.viewDirty[id] = false
		}
		if fl := slots[w].Flows; len(fl) > 0 { // the seed of sortCoflows
			slots[w].seed, _ = e.sim.Rank(fl[0].Ref)
		}
		w++
	}
	v.Coflows, v.seedSpan = slots[:w], len(e.order)
	return v
}

// Snapshot captures the policy-visible residual state at the engine clock,
// without stopping or perturbing the simulation: admitted coflows that have
// arrived and still have unfinished flows. The snapshot is a flat copy of the
// engine's view (two allocations: the slots and one arena for every flow),
// safe to hand to a Decide running on another goroutine.
func (e *Engine) Snapshot() *Snapshot {
	v := e.syncView()
	snap := &Snapshot{Now: v.Now, Epoch: v.Epoch, Network: v.Network, seedSpan: v.seedSpan}
	if len(v.Coflows) == 0 {
		return snap
	}
	snap.Coflows = append([]ResidualCoflow(nil), v.Coflows...)
	arena := make([]ResidualFlow, 0, v.NumFlows())
	for i := range snap.Coflows {
		n := len(arena)
		arena = append(arena, snap.Coflows[i].Flows...)
		snap.Coflows[i].Flows = arena[n:len(arena):len(arena)]
	}
	return snap
}

// Decision is one Decide call's outcome: the order, the wall-clock time the
// call took, the epoch whose view it was decided on, and whether the order is
// a policy's *Fallback.
type Decision struct {
	Order    []coflow.FlowRef
	Latency  time.Duration
	Epoch    int
	Fallback bool
}

// Decide times p's Decide on snap. A *Fallback is no error here: its order is
// the decision, marked Fallback.
func Decide(p Policy, snap *Snapshot) (Decision, error) {
	t0 := time.Now()
	order, err := p.Decide(snap)
	d := Decision{Order: order, Latency: time.Since(t0), Epoch: snap.Epoch}
	if err != nil {
		var fb *Fallback // escapes to errors.As: declared only on the error path
		if errors.As(err, &fb) {
			d.Order, d.Fallback, err = fb.Order, true, nil
		}
	}
	return d, err
}

// Settle hands the engine an order its policy decided and applies the
// staleness rule: a synchronous policy's order is applied at once; an
// AsyncPolicy's is held for the next epoch boundary (ApplyHeld) and, on a cold
// start — d.Epoch's boundary applied no held order — at once too. It reports
// whether it applied d: as decided in its own epoch, else through ApplyOrder.
func (e *Engine) Settle(d Decision) (applied bool, err error) {
	if d.Fallback {
		e.fallbacks++
	}
	if ap, ok := e.policy.(AsyncPolicy); ok && ap.Async() {
		e.held = Decision{Order: append(e.held.Order[:0], d.Order...), Latency: d.Latency, Epoch: d.Epoch, Fallback: d.Fallback}
		e.holding = true
		if e.warmAt == d.Epoch {
			return false, nil
		}
	}
	if d.Epoch == e.epoch {
		return true, e.install(d.Order, d.Latency)
	}
	return true, e.ApplyOrder(d.Order, d.Latency)
}

// ApplyHeld is the epoch boundary of the staleness rule: it applies and
// returns the order Settle held, if one was decided in an earlier epoch. The
// returned order is the engine's, valid until the next Settle.
func (e *Engine) ApplyHeld() (d Decision, applied bool, err error) {
	if !e.holding || e.held.Epoch >= e.epoch {
		return Decision{}, false, nil
	}
	e.holding, e.warmAt = false, e.epoch
	return e.held, true, e.ApplyOrder(e.held.Order, e.held.Latency)
}

// Fallbacks is EngineStats.Fallbacks without the copies Stats makes.
func (e *Engine) Fallbacks() int { return e.fallbacks }

// ReplayFallbacks raises the fallback count to n, the cumulative count a
// logged order carries; recovery calls it beside ApplyOrder. It never lowers
// the count: an AsyncPolicy's order logged twice on a cold start (by Settle,
// then by ApplyHeld) carries the same n both times, and a record written
// before the count was logged carries 0.
func (e *Engine) ReplayFallbacks(n int) { e.fallbacks = max(e.fallbacks, n) }

// ApplyOrder installs a priority order and records the latency of the
// decision that produced it, outside the staleness rule (recovery replays
// logged orders through it). Refs the simulator does not track — of coflows
// that completed since the order's view, or never admitted — are dropped: its
// ranking of the still-live flows is worth applying. A duplicate ref is an
// error and leaves the standing order as it was.
func (e *Engine) ApplyOrder(order []coflow.FlowRef, solveLatency time.Duration) error {
	live := e.orderScratch[:0]
	for _, r := range order {
		if _, _, _, ok := e.sim.Residual(r); ok {
			live = append(live, r)
		}
	}
	e.orderScratch = live
	return e.install(live, solveLatency)
}

// install is every order installation's tail, after any filter.
func (e *Engine) install(order []coflow.FlowRef, solveLatency time.Duration) error {
	kept, err := e.sim.SetOrder(order)
	if err != nil {
		return err
	}
	e.lastChurn = churn(len(e.order), len(order), kept)
	e.order = append(e.order[:0], order...)
	e.decisions++
	e.solveLatencies.add(solveLatency.Seconds())
	return nil
}

// churn measures how much a new priority order of n refs disagrees with the
// old one of m it replaces, given the kept refs that hold the same position
// in both: the fraction of refs in the larger order whose rank changed
// (including refs present in only one of the two). 0 means the decision
// re-confirmed the standing order; 1 means nothing kept its place.
func churn(m, n, kept int) float64 {
	if m == 0 && n == 0 {
		return 0
	}
	return float64(max(m-n, 0)+n-kept) / float64(max(m, n))
}

// OrderChurn reports the churn fraction of the most recently applied order
// (see churn). Scheduler-introspection surface for /v1/epochs.
func (e *Engine) OrderChurn() float64 { return e.lastChurn }

// Epoch returns the engine's epoch counter (AdvanceTo calls so far).
func (e *Engine) Epoch() int { return e.epoch }

// ActiveCounts reports the active coflow and flow counts without copying the
// stats reservoirs — cheap enough to call every tick.
func (e *Engine) ActiveCounts() (coflows, flows int) {
	return len(e.inst.Coflows) - e.completedCoflows, e.totalFlows - e.doneFlows
}

// TakeCompleted returns the ids of coflows whose completion was recorded
// since the last call, in completion order, and resets the log. The server
// consumes this every tick to close out lifecycle traces; callers that never
// call it pay one int of growth per completed coflow.
func (e *Engine) TakeCompleted() []int {
	if len(e.recentDone) == 0 {
		return nil
	}
	out := e.recentDone
	e.recentDone = nil
	return out
}

// TakeTickStats drains the simulator's allocator-work aggregates accumulated
// since the last call. Like every Engine method it belongs to the owning
// scheduler goroutine; call it after AdvanceTo so the window lines up with
// the tick.
func (e *Engine) TakeTickStats() sim.TickStats { return e.sim.TakeTickStats() }

// Order returns the currently applied priority order, restricted to flows
// that are still unfinished (the view GET /v1/schedule serves).
func (e *Engine) Order() []coflow.FlowRef {
	out := make([]coflow.FlowRef, 0, len(e.order))
	for _, r := range e.order {
		if fs, ok := e.sim.Status(r); ok && !fs.Done {
			out = append(out, r)
		}
	}
	return out
}

// AdvanceTo advances the simulation to the given time under the currently
// applied order and folds newly completed coflows into the aggregates. Times
// at or before the engine clock are a no-op.
func (e *Engine) AdvanceTo(to float64) error {
	if math.IsNaN(to) {
		return fmt.Errorf("online: invalid advance target %v", to)
	}
	if to <= e.now {
		return nil
	}
	if err := e.sim.RunUntil(to); err != nil {
		return err
	}
	e.now = to
	e.epoch++
	e.collectCompletions()
	return nil
}

// collectCompletions drains the simulator's progress and completion logs
// after an advance: it marks the view slots of coflows whose flows
// transmitted as stale, closes out coflows whose last flow completed, and
// prunes their flow state from the simulator so neither the engine nor the
// simulator ever iterates finished work again. Cost is O(progressing flows +
// completions since the last advance) — the incremental tick path — instead
// of a re-scan of every active flow.
func (e *Engine) collectCompletions() {
	e.progress = e.sim.TakeProgressed(e.progress[:0])
	for _, r := range e.progress {
		e.viewDirty[r.Coflow] = true
	}
	events := e.sim.TakeCompletions()
	if len(events) == 0 {
		return
	}
	closed := false
	for _, ev := range events {
		id := ev.Ref.Coflow
		if ev.Time > e.completion[id] {
			e.completion[id] = ev.Time
		}
		e.flowsLeft[id]--
		e.doneFlows++
		if e.flowsLeft[id] > 0 {
			continue
		}
		cf := &e.inst.Coflows[id]
		e.completedCoflows++
		response := e.completion[id] - e.arrivals[id]
		e.weightedCCT += cf.Weight * e.completion[id]
		e.weightedResponse += cf.Weight * response
		if e.gammas[id] > 0 {
			e.slowdowns.add(response / e.gammas[id])
		}
		if e.transcript != nil {
			for j := range cf.Flows {
				ref := coflow.FlowRef{Coflow: id, Index: j}
				e.transcript.Set(ref, e.sim.FlowSchedule(ref))
			}
		}
		// ForgetCoflow only errors on an unknown coflow or an unfinished flow;
		// every flow of a completed coflow is done by construction.
		_ = e.sim.ForgetCoflow(id)
		cf.Flows = nil
		e.recentDone = append(e.recentDone, id)
		closed = true
	}
	if closed {
		stillActive := e.active[:0]
		for _, id := range e.active {
			if e.flowsLeft[id] > 0 {
				stillActive = append(stillActive, id)
			}
		}
		e.active = stillActive
		if len(stillActive) == 0 && cap(e.order) > idleKeepFlows {
			// Idle: the epoch arenas and the simulator's tables were sized
			// by the backlog that just drained. Hand them back; the next
			// admission regrows what it needs.
			e.sim.ReleaseIdle()
			e.view = Snapshot{}
			e.order, e.orderScratch = nil, nil
			e.held.Order = nil // every ref it held has completed
			e.progress, e.loads = nil, nil
		}
	}
}

// CoflowStatus reports the current state of one admitted coflow.
func (e *Engine) CoflowStatus(id int) (CoflowStatus, bool) {
	if id < 0 || id >= len(e.inst.Coflows) {
		return CoflowStatus{}, false
	}
	cf := &e.inst.Coflows[id]
	st := CoflowStatus{
		ID:         id,
		Name:       cf.Name,
		Weight:     cf.Weight,
		Arrival:    e.arrivals[id],
		NumFlows:   e.numFlows[id],
		TotalBytes: e.totalBytes[id],
	}
	if e.flowsLeft[id] == 0 {
		// Completed and pruned from the simulator; answer from the registry.
		st.FlowsDone = st.NumFlows
		st.Done = true
		st.Completion = e.completion[id]
		st.Response = st.Completion - st.Arrival
		if e.gammas[id] > 0 {
			st.Slowdown = st.Response / e.gammas[id]
		}
		return st, true
	}
	// Count done flows from the registry, not the simulator: a restored
	// engine re-registers only the live flows of an active coflow, so its
	// simulator never sees the flows that finished before the snapshot.
	st.FlowsDone = st.NumFlows - e.flowsLeft[id]
	for j := range cf.Flows {
		if _, remaining, done, ok := e.sim.Residual(coflow.FlowRef{Coflow: id, Index: j}); ok && !done {
			st.RemainingBytes += remaining
		}
	}
	return st, true
}

// Stats reports the engine's aggregate counters. The slices are copies.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Now:              e.now,
		Epochs:           e.epoch,
		Decisions:        e.decisions,
		Fallbacks:        e.fallbacks,
		Admitted:         len(e.inst.Coflows),
		Completed:        e.completedCoflows,
		Active:           len(e.inst.Coflows) - e.completedCoflows,
		ActiveFlows:      e.totalFlows - e.doneFlows,
		WeightedCCT:      e.weightedCCT,
		WeightedResponse: e.weightedResponse,
		Slowdowns:        e.slowdowns.snapshot(),
		SolveLatencies:   e.solveLatencies.snapshot(),
	}
}

// DecideSync is one epoch boundary: ApplyHeld, then the policy decides on the
// up-to-date residual view (idle views decide nothing) and Settle takes the
// order. The policy reads the engine's long-lived view, which the Policy
// contract makes safe: Decide must neither retain nor modify the snapshot.
func (e *Engine) DecideSync() error {
	_, err := e.decide()
	return err
}

// decide is DecideSync, returning its decision (the zero Decision on an idle
// view).
func (e *Engine) decide() (Decision, error) {
	snap := e.syncView()
	if _, _, err := e.ApplyHeld(); err != nil || len(snap.Coflows) == 0 {
		return Decision{}, err
	}
	d, err := Decide(e.policy, snap)
	if err != nil {
		return Decision{}, err
	}
	_, err = e.Settle(d)
	return d, err
}

// Drain runs decide/advance epochs until every admitted flow completes,
// advancing simulated time as far as needed. It is the graceful-shutdown
// path: no new work is admitted by the caller, and the transcript ends with
// every in-flight coflow finished. The epoch budget guards against a policy
// that starves some flow forever.
func (e *Engine) Drain() error {
	// Every flow finishes here, so an order still held has nothing left to
	// rank: it is dropped rather than applied after the drain.
	defer func() { e.holding = false }()
	if e.Done() {
		return nil
	}
	// Residual volume over the slowest link bounds the remaining busy time;
	// idle gaps before future releases add at most the latest release.
	minCap := e.inst.Network.MinCapacity()
	if minCap <= 0 {
		minCap = 1
	}
	remaining := 0.0
	latestRelease := e.now
	for _, fs := range e.sim.Residuals() {
		remaining += fs.Remaining
		if fs.Release > latestRelease {
			latestRelease = fs.Release
		}
	}
	horizon := (latestRelease - e.now) + remaining/minCap
	maxEpochs := int(horizon/e.cfg.EpochLength)*10 + 1000
	for i := 0; !e.Done(); i++ {
		if i > maxEpochs {
			return fmt.Errorf("online: drain exceeded %d epochs (starving flow?)", maxEpochs)
		}
		if err := e.DecideSync(); err != nil {
			return err
		}
		if err := e.AdvanceTo(e.now + e.cfg.EpochLength); err != nil {
			return err
		}
	}
	return nil
}
