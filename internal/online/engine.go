package online

import (
	"fmt"
	"math/rand"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/workload"
)

// Config parameterizes an online run.
type Config struct {
	// EpochLength is the time between policy re-decisions. Required > 0.
	EpochLength float64
	// Seed drives any randomness a policy needs (e.g. the Oracle's offline
	// scheduler). The epoch loop itself is deterministic.
	Seed int64
}

// EpochStat records one epoch of the run: the simulated span, how much work
// was visible, and the policy decision made at its boundary.
type EpochStat struct {
	// Epoch is the epoch index; the simulated span is [Start, End).
	Epoch int
	Start float64
	End   float64
	// ActiveFlows counts residual flows visible at the epoch boundary.
	ActiveFlows int
	// SnapshotEpoch is the epoch whose view produced the order applied in
	// this epoch: Epoch for synchronous policies and an AsyncPolicy's cold
	// start, Epoch-1 otherwise under an AsyncPolicy, -1 when none applied.
	SnapshotEpoch int
	// SolveLatency is the wall-clock duration of the Decide call made on this
	// epoch's view, zero when the view was idle and no Decide ran.
	SolveLatency time.Duration
	// Fallback marks an epoch whose Decide failed and returned a *Fallback:
	// LPEpoch's SEBF order in place of a solver error.
	Fallback bool
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

// SolveLatencies returns the solve latencies in seconds, for percentile
// reporting: one entry per Decide call, in epoch order (a Decide runs at
// every boundary that has residual flows in view).
func (r *Result) SolveLatencies() []float64 {
	var out []float64
	for _, e := range r.Epochs {
		if e.ActiveFlows > 0 {
			out = append(out, e.SolveLatency.Seconds())
		}
	}
	return out
}

// Fallbacks counts the epochs whose decision was the policy's fallback order
// (EpochStat.Fallback).
func (r *Result) Fallbacks() int {
	n := 0
	for _, e := range r.Epochs {
		if e.Fallback {
			n++
		}
	}
	return n
}

// Run streams a fixed instance through an Engine, one epoch at a time, and
// returns the scored transcript. The instance must contain at least one
// coflow; release times are the arrival process (see
// workload.GenerateArrivals), a coflow arriving at its earliest release, and
// coflows must be listed in arrival order — the contract of
// workload.Scenario.Generate. Each coflow is admitted whole at its arrival,
// the way coflowd admits a request: the router sees the coflows causally, in
// arrival order, and a flow released later than its coflow's arrival is
// already routed (and visible to the policy) while it waits.
//
// Epoch 0 starts at the first arrival, and every boundary is one DecideSync,
// so the engine's staleness rule (Settle) applies the orders: an
// AsyncPolicy's one epoch late, and on a cold start — the first busy epoch,
// or the first after an idle stretch — in both epochs. Determinism: two Runs
// with the same instance, policy, config and seed produce identical
// schedules — which decision an epoch applies depends on epoch indices only,
// never on how fast the solver ran.
func Run(inst *coflow.Instance, policy Policy, cfg Config) (*Result, error) {
	if err := inst.Validate(false); err != nil {
		return nil, err
	}
	arrivals := workload.Arrivals(inst)
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return nil, fmt.Errorf("online: coflow %d arrives at %v, before coflow %d at %v: coflows must be listed in arrival order",
				i, arrivals[i], i-1, arrivals[i-1])
		}
	}
	eng, err := newEngine(inst.Network, policy, cfg)
	if err != nil {
		return nil, err
	}
	eng.transcript = coflow.NewCircuitSchedule()
	if p, ok := policy.(Preparer); ok {
		if err := p.Prepare(inst, rand.New(rand.NewSource(cfg.Seed+1))); err != nil {
			return nil, err
		}
	}
	maxEpochs := int(inst.TimeHorizon()/cfg.EpochLength)*10 + 1000
	var stats []EpochStat
	next := 0
	for epoch, now := 0, arrivals[0]; ; epoch, now = epoch+1, now+cfg.EpochLength {
		// Admit every coflow arriving by now at its arrival, its releases
		// turned into offsets from the arrival on a copy, then advance.
		for ; next < len(inst.Coflows) && arrivals[next] <= now+1e-15; next++ {
			cf := inst.Coflows[next]
			cf.Flows = append([]coflow.Flow(nil), cf.Flows...)
			for j := range cf.Flows {
				cf.Flows[j].Release -= arrivals[next]
			}
			if _, err := eng.Admit(cf, arrivals[next]); err != nil {
				return nil, fmt.Errorf("online: admitting coflow %d: %w", next, err)
			}
		}
		if err := eng.AdvanceTo(now); err != nil {
			return nil, err
		}
		if next == len(inst.Coflows) && eng.Done() {
			break
		}
		if epoch > maxEpochs {
			return nil, fmt.Errorf("online: exceeded %d epochs (epoch length %v too small for horizon?)", maxEpochs, cfg.EpochLength)
		}
		d, err := eng.decide()
		if err != nil {
			return nil, fmt.Errorf("online: %s epoch %d: %w", policy.Name(), epoch, err)
		}
		st := EpochStat{Epoch: epoch, Start: now, End: now + cfg.EpochLength,
			ActiveFlows: eng.view.NumFlows(), SnapshotEpoch: -1, SolveLatency: d.Latency, Fallback: d.Fallback}
		switch {
		case eng.warmAt == eng.epoch: // the order held from the previous epoch
			st.SnapshotEpoch = epoch - 1
		case st.ActiveFlows > 0: // a synchronous policy's order, or a cold start's
			st.SnapshotEpoch = epoch
		}
		stats = append(stats, st)
	}

	// Score the transcript the engine kept (see Engine.transcript).
	cs := eng.transcript
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
		if eng.gammas[i] > 0 {
			res.Slowdown[i] = (completion[i] - arrivals[i]) / eng.gammas[i]
		}
	}
	return res, nil
}
