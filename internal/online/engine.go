package online

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
	"coflowsched/internal/workload"
)

// Config parameterizes an online run.
type Config struct {
	// EpochLength is the time between policy re-decisions. Required > 0.
	EpochLength float64
	// Workers sizes the private solver pool created when Pool is nil. A
	// single run keeps at most one solve in flight, so values above 1 only
	// matter for a shared Pool.
	Workers int
	// Pool, when non-nil, is a shared solver pool bounding total solve
	// parallelism across concurrent runs in this process (see OnlineSweep).
	// The caller owns it and must Close it; Run will not.
	Pool *Pool
	// Seed drives any randomness a policy needs (e.g. the Oracle's offline
	// scheduler). The epoch loop itself is deterministic.
	Seed int64
	// CandidatePaths bounds the admission-time routing's candidate set
	// (default 4, matching the offline schedulers).
	CandidatePaths int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.CandidatePaths < 1 {
		c.CandidatePaths = 4
	}
	return c
}

// EpochStat records one epoch of the run: the simulated span, how much work
// was visible, and the latency of the policy decision applied during it.
type EpochStat struct {
	// Epoch is the epoch index; the simulated span is [Start, End).
	Epoch int
	Start float64
	End   float64
	// ActiveFlows counts residual flows visible at the epoch boundary.
	ActiveFlows int
	// SnapshotEpoch is the epoch whose snapshot produced the order applied
	// in this epoch. Equal to Epoch for synchronous policies; Epoch-1 under
	// pipelining (the one-epoch staleness bought by overlapping solves).
	// -1 when no decision was applied (idle epoch or carried-over order).
	SnapshotEpoch int
	// SolveLatency is the wall-clock duration of the applied Decide call.
	SolveLatency time.Duration
	// SolveOverlap is how much of the applied solve's in-flight window
	// (submission to completion on the worker pool) ran concurrently with
	// the simulation of the epoch it was submitted in (zero for synchronous
	// decisions). Positive values demonstrate the solve/simulate pipeline.
	SolveOverlap time.Duration
}

// Result is the outcome of an online run.
type Result struct {
	Policy string
	// Schedule is the full transcript, feasible for the original instance.
	Schedule *coflow.CircuitSchedule
	// WeightedCCT is the total weighted coflow completion time (absolute
	// clock, comparable with the offline objective).
	WeightedCCT float64
	// WeightedResponse is the total weighted response time,
	// sum w_i (C_i - arrival_i) — the online-native objective.
	WeightedResponse float64
	// Makespan is the completion time of the last flow.
	Makespan float64
	// CoflowArrival, CoflowCompletion and Slowdown are indexed by coflow.
	// Slowdown is response time over the coflow's isolated bottleneck time
	// (its Varys "length" Γ with the admission routing).
	CoflowArrival    []float64
	CoflowCompletion []float64
	Slowdown         []float64
	// Epochs is the per-epoch log.
	Epochs []EpochStat
}

// SolveLatencies returns the per-epoch solve latencies in seconds, for
// percentile reporting. Each Decide call contributes exactly once: epochs
// that replayed a cold-start decision carry no latency of their own.
func (r *Result) SolveLatencies() []float64 {
	var out []float64
	for _, e := range r.Epochs {
		if e.SnapshotEpoch >= 0 && e.SolveLatency > 0 {
			out = append(out, e.SolveLatency.Seconds())
		}
	}
	return out
}

// TotalSolveOverlap sums the solve time that ran concurrently with
// simulation across the run.
func (r *Result) TotalSolveOverlap() time.Duration {
	var d time.Duration
	for _, e := range r.Epochs {
		d += e.SolveOverlap
	}
	return d
}

// wallSpan records the wall-clock interval of one epoch's simulation.
type wallSpan struct{ start, end time.Time }

// Run streams the instance through the epoch loop under the given policy.
// The instance must contain at least one coflow; release times are the
// arrival process (see workload.GenerateArrivals). Determinism: two Runs
// with the same instance, policy, config and seed produce identical
// schedules — solve pipelining changes wall-clock timings only, because the
// decision applied in epoch k is always the one computed from the snapshot
// at epoch k-1, regardless of how fast the solver ran.
func Run(inst *coflow.Instance, policy Policy, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.EpochLength <= 0 {
		return nil, fmt.Errorf("online: epoch length must be positive, got %v", cfg.EpochLength)
	}
	if err := inst.Validate(false); err != nil {
		return nil, err
	}

	paths, err := routeArrivals(inst, cfg.CandidatePaths)
	if err != nil {
		return nil, err
	}
	arrivals := workload.Arrivals(inst)

	if p, ok := policy.(Preparer); ok {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		if err := p.Prepare(inst, paths, rng); err != nil {
			return nil, err
		}
	}

	simulator, err := sim.New(inst, sim.Config{Paths: paths, Policy: sim.Priority})
	if err != nil {
		return nil, err
	}

	async := false
	if ap, ok := policy.(AsyncPolicy); ok {
		async = ap.Async()
	}
	var workers *Pool
	var pending <-chan decision
	if async {
		workers = cfg.Pool
		owned := workers == nil
		if owned {
			workers = NewPool(cfg.Workers)
		}
		defer func() {
			if pending != nil {
				<-pending // drain the in-flight solve before tearing down
			}
			if owned {
				workers.Close()
			}
		}()
	}

	// Epochs are aligned to the first arrival; earlier time is empty.
	now := arrivals[0]
	for _, a := range arrivals {
		if a < now {
			now = a
		}
	}
	maxEpochs := int(inst.TimeHorizon()/cfg.EpochLength)*10 + 1000
	simSpans := map[int]wallSpan{}
	var stats []EpochStat

	for epoch := 0; !simulator.Done(); epoch++ {
		if epoch > maxEpochs {
			return nil, fmt.Errorf("online: exceeded %d epochs (epoch length %v too small for horizon?)", maxEpochs, cfg.EpochLength)
		}
		snap := snapshot(inst, arrivals, simulator, now, epoch)
		st := EpochStat{Epoch: epoch, Start: now, End: now + cfg.EpochLength,
			ActiveFlows: snap.NumFlows(), SnapshotEpoch: -1}

		var applied []coflow.FlowRef
		haveDecision := false
		switch {
		case async && pending != nil:
			d := <-pending
			pending = nil
			if d.err != nil {
				return nil, d.err
			}
			applied, haveDecision = d.order, true
			st.SnapshotEpoch = d.snapEpoch
			if !d.replayed {
				// A replayed cold-start solve was already accounted for in
				// the epoch it ran; counting it again would skew latency
				// percentiles.
				st.SolveLatency = d.end.Sub(d.start)
			}
			if span, ok := simSpans[d.snapEpoch]; ok {
				st.SolveOverlap = overlap(d.submitted, d.end, span.start, span.end)
			}
			// Pipeline: kick off the next solve before simulating this
			// epoch, so the two run concurrently on the worker pool.
			if len(snap.Coflows) > 0 {
				pending = workers.submit(policy, snap)
			}
		case async && len(snap.Coflows) > 0:
			// Cold start (first non-empty epoch, or the pipeline drained
			// during an idle stretch): solve synchronously, and reuse the
			// result as the next epoch's pipelined decision — Decide is
			// deterministic, so re-solving the same snapshot would only
			// burn a duplicate solve.
			t0 := time.Now()
			order, err := policy.Decide(snap)
			end := time.Now()
			if err != nil {
				return nil, err
			}
			applied, haveDecision = order, true
			st.SnapshotEpoch = epoch
			st.SolveLatency = end.Sub(t0)
			pending = resolved(decision{
				order: order, snapEpoch: epoch, submitted: t0, start: t0, end: end,
			})
		case len(snap.Coflows) > 0:
			// Synchronous decision on fresh state (cheap policies).
			t0 := time.Now()
			order, err := policy.Decide(snap)
			if err != nil {
				return nil, err
			}
			applied, haveDecision = order, true
			st.SnapshotEpoch = epoch
			st.SolveLatency = time.Since(t0)
		}
		if haveDecision {
			if err := simulator.SetOrder(applied); err != nil {
				return nil, fmt.Errorf("online: %s epoch %d: %w", policy.Name(), epoch, err)
			}
		}

		span := wallSpan{start: time.Now()}
		err := simulator.RunUntil(now + cfg.EpochLength)
		span.end = time.Now()
		if err != nil {
			return nil, err
		}
		simSpans[epoch] = span
		stats = append(stats, st)
		now += cfg.EpochLength
	}

	return buildResult(inst, policy, paths, arrivals, simulator, stats)
}

// snapshot captures the policy-visible residual state at time now.
func snapshot(inst *coflow.Instance, arrivals []float64, s *sim.Simulator, now float64, epoch int) *Snapshot {
	residuals := s.Residuals()
	byRef := make(map[coflow.FlowRef]sim.FlowStatus, len(residuals))
	for _, fs := range residuals {
		byRef[fs.Ref] = fs
	}
	snap := &Snapshot{Now: now, Epoch: epoch, Network: inst.Network}
	for i, cf := range inst.Coflows {
		if arrivals[i] > now+1e-15 {
			continue // not arrived: invisible to the policy
		}
		rcf := ResidualCoflow{Index: i, Name: cf.Name, Weight: cf.Weight, Arrival: arrivals[i]}
		for j, f := range cf.Flows {
			ref := coflow.FlowRef{Coflow: i, Index: j}
			fs := byRef[ref]
			if fs.Done {
				continue
			}
			rcf.Flows = append(rcf.Flows, ResidualFlow{
				Ref:       ref,
				Source:    f.Source,
				Dest:      f.Dest,
				Path:      fs.Path,
				Release:   f.Release,
				Size:      fs.Size,
				Remaining: fs.Remaining,
			})
		}
		if len(rcf.Flows) > 0 {
			snap.Coflows = append(snap.Coflows, rcf)
		}
	}
	return snap
}

// buildResult scores the completed run.
func buildResult(inst *coflow.Instance, policy Policy, paths map[coflow.FlowRef]graph.Path,
	arrivals []float64, s *sim.Simulator, stats []EpochStat) (*Result, error) {

	cs := s.Schedule()
	completion := inst.CoflowCompletionTimes(cs.CompletionTimes())
	res := &Result{
		Policy:           policy.Name(),
		Schedule:         cs,
		WeightedCCT:      cs.Objective(inst),
		Makespan:         cs.Makespan(),
		CoflowArrival:    arrivals,
		CoflowCompletion: completion,
		Slowdown:         make([]float64, len(inst.Coflows)),
		Epochs:           stats,
	}
	for i, cf := range inst.Coflows {
		res.WeightedResponse += cf.Weight * (completion[i] - arrivals[i])
		gamma := coflowLength(inst, i, paths)
		if gamma > 0 {
			res.Slowdown[i] = (completion[i] - arrivals[i]) / gamma
		}
	}
	return res, nil
}

// coflowLength is the coflow's isolated bottleneck time Γ under the
// admission routing: a coflow running alone on the network cannot finish
// faster.
func coflowLength(inst *coflow.Instance, i int, paths map[coflow.FlowRef]graph.Path) float64 {
	loads := make([]graph.PathLoad, len(inst.Coflows[i].Flows))
	for j, f := range inst.Coflows[i].Flows {
		loads[j] = graph.PathLoad{Path: paths[coflow.FlowRef{Coflow: i, Index: j}], Volume: f.Size}
	}
	return inst.Network.BottleneckTime(loads)
}

// routeArrivals fixes one path per flow at admission time: flows are
// processed in release order (what an online admitter sees) and each takes
// the candidate path minimizing the resulting size-weighted bottleneck load.
// Pre-assigned paths are respected. Unlike the offline load balancer in
// internal/baselines, the greedy order is causal — no future knowledge.
func routeArrivals(inst *coflow.Instance, candidatePaths int) (map[coflow.FlowRef]graph.Path, error) {
	refs := inst.FlowRefs()
	sort.SliceStable(refs, func(a, b int) bool {
		fa, fb := inst.Flow(refs[a]), inst.Flow(refs[b])
		if fa.Release != fb.Release {
			return fa.Release < fb.Release
		}
		if refs[a].Coflow != refs[b].Coflow {
			return refs[a].Coflow < refs[b].Coflow
		}
		return refs[a].Index < refs[b].Index
	})
	load := make([]float64, inst.Network.NumEdges())
	paths := make(map[coflow.FlowRef]graph.Path, len(refs))
	for _, ref := range refs {
		chosen, err := routeFlow(inst.Network, load, inst.Flow(ref), candidatePaths)
		if err != nil {
			return nil, fmt.Errorf("online: flow %s: %w", ref, err)
		}
		paths[ref] = chosen
	}
	return paths, nil
}

// routeFlow picks the candidate path for one flow minimizing the resulting
// size-weighted bottleneck load given the volume admitted so far, then
// charges the flow's volume to the chosen path in load. Pre-assigned paths
// are respected. Shared by the batch admitter above and the incremental
// Engine, which both see flows causally, in admission order.
func routeFlow(g *graph.Graph, load []float64, f *coflow.Flow, candidatePaths int) (graph.Path, error) {
	var cands []graph.Path
	if f.Path != nil {
		cands = []graph.Path{f.Path}
	} else {
		cands = g.KShortestPaths(f.Source, f.Dest, candidatePaths)
	}
	chosen, err := pickPath(g, load, f, cands)
	for _, e := range chosen {
		load[e] += f.Size
	}
	return chosen, err
}

// pickPath is routeFlow's selection step over an explicit candidate set (the
// incremental Engine supplies memoized candidates). It reads load and leaves
// the charging to the caller: Engine.Admit logs every write for rollback.
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

// overlap returns the length of the intersection of [a0,a1] and [b0,b1].
func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	start := a0
	if b0.After(start) {
		start = b0
	}
	end := a1
	if b1.Before(end) {
		end = b1
	}
	if end.Before(start) {
		return 0
	}
	return end.Sub(start)
}
