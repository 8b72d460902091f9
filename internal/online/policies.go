package online

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
)

// residualTol ignores flows whose remaining volume is below this absolute
// threshold when building policy inputs.
const residualTol = 1e-9

// FIFOOnline serves coflows strictly in arrival order (earliest arrival
// first, flows within a coflow in index order). It is the no-reordering
// baseline every smarter policy must beat.
type FIFOOnline struct{}

// Name identifies the policy.
func (FIFOOnline) Name() string { return "FIFOOnline" }

// Decide implements Policy.
func (FIFOOnline) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	idx := snap.ints(len(snap.Coflows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ca, cb := &snap.Coflows[a], &snap.Coflows[b]
		switch {
		case ca.Arrival < cb.Arrival:
			return -1
		case ca.Arrival > cb.Arrival:
			return 1
		case ca.Index < cb.Index:
			return -1
		case ca.Index > cb.Index:
			return 1
		}
		return 0
	})
	return flattenIndexed(snap, idx), nil
}

// SEBFOnline is Varys' Smallest Effective Bottleneck First recomputed on
// residual volumes: at each epoch, coflows are ordered by the load their
// remaining bytes place on their most congested link, divided by weight.
// Partially transmitted coflows therefore shrink and rise in priority, which
// is the core of Varys-style online scheduling.
type SEBFOnline struct{}

// Name identifies the policy.
func (SEBFOnline) Name() string { return "SEBFOnline" }

// Decide implements Policy.
func (SEBFOnline) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	idx := snap.ints(len(snap.Coflows))
	gammas := snap.floats(len(snap.Coflows)) // keyed by coflow position, not rank
	var loads []graph.PathLoad               // scratch for coflows that carry no Γ memo
	for i := range snap.Coflows {
		cf := &snap.Coflows[i]
		gamma := cf.gamma
		if !cf.hasGamma {
			gamma, loads = residualBottleneck(snap.Network, cf.Flows, loads)
		}
		if cf.Weight > 0 {
			gamma /= cf.Weight
		}
		idx[i], gammas[i] = i, gamma
	}
	// Γ/w then the unique Index is a total order: no stable sort needed.
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case gammas[a] < gammas[b]:
			return -1
		case gammas[a] > gammas[b]:
			return 1
		}
		return snap.Coflows[a].Index - snap.Coflows[b].Index
	})
	return flattenIndexed(snap, idx), nil
}

// LPEpoch re-solves the paper's interval-indexed LP (internal/core) on the
// residual instance at every epoch: arrived coflows with their remaining
// volumes, release times shifted so "now" is time zero, and the
// admission-time paths fixed. The LP's completion-time order becomes the
// epoch's priority order. LPEpoch is asynchronous: its order is applied one
// epoch after the view it was solved on (see AsyncPolicy).
type LPEpoch struct {
	// Opts tunes the underlying LP (epsilon, alpha, ...). Zero value =
	// core defaults.
	Opts core.Options
	// Sync drops the one-epoch lag, applying every decision at once on fresh
	// state (useful for isolating the staleness cost in experiments).
	Sync bool
	// Strict propagates LP solver failures instead of falling back. By
	// default a failed solve (the pure-Go simplex can hit numerically
	// degenerate residual instances) degrades to the SEBF residual order
	// for that epoch — a scheduler must survive a solver hiccup.
	Strict bool
}

// Name identifies the policy.
func (p LPEpoch) Name() string {
	if p.Sync {
		return "LPEpoch(sync)"
	}
	return "LPEpoch"
}

// Async implements AsyncPolicy: LP orders lag one epoch unless Sync is set.
func (p LPEpoch) Async() bool { return !p.Sync }

// Decide implements Policy.
func (p LPEpoch) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	rinst, backrefs := residualInstance(snap)
	if rinst == nil {
		return nil, nil
	}
	lpOrder, err := (core.CircuitGivenPaths{Opts: p.Opts}).Order(rinst)
	if err != nil {
		if p.Strict {
			return nil, fmt.Errorf("online: epoch %d LP: %w", snap.Epoch, err)
		}
		return SEBFOnline{}.Decide(snap)
	}
	order := make([]coflow.FlowRef, 0, len(lpOrder))
	for _, r := range lpOrder {
		order = append(order, backrefs[r])
	}
	return order, nil
}

// residualInstance converts a snapshot into a standalone coflow instance:
// remaining volumes as sizes, releases shifted by -Now (clamped at 0), and
// admission paths pre-assigned. backrefs maps the residual instance's flow
// references back to the original instance's. Returns nil when the snapshot
// holds no residual volume.
func residualInstance(snap *Snapshot) (*coflow.Instance, map[coflow.FlowRef]coflow.FlowRef) {
	rinst := &coflow.Instance{Network: snap.Network}
	backrefs := make(map[coflow.FlowRef]coflow.FlowRef)
	for _, cf := range snap.Coflows {
		rcf := coflow.Coflow{Name: cf.Name, Weight: cf.Weight}
		for _, f := range cf.Flows {
			if f.Remaining <= residualTol {
				continue
			}
			release := f.Release - snap.Now
			if release < 0 {
				release = 0
			}
			backrefs[coflow.FlowRef{Coflow: len(rinst.Coflows), Index: len(rcf.Flows)}] = f.Ref
			rcf.Flows = append(rcf.Flows, coflow.Flow{
				Source:  f.Source,
				Dest:    f.Dest,
				Size:    f.Remaining,
				Release: release,
				Path:    f.Path,
			})
		}
		if len(rcf.Flows) > 0 {
			rinst.Coflows = append(rinst.Coflows, rcf)
		}
	}
	if len(rinst.Coflows) == 0 {
		return nil, nil
	}
	return rinst, backrefs
}

// OfflineScheduler is the offline interface Oracle wraps; it is structurally
// identical to experiments.Scheduler (defined here to avoid an import
// cycle — internal/experiments imports this package for OnlineSweep).
type OfflineScheduler interface {
	Name() string
	Schedule(inst *coflow.Instance, rng *rand.Rand) (*coflow.CircuitSchedule, error)
}

// Oracle is the hindsight comparator: it runs an offline scheduler on the
// complete instance — including coflows that have not arrived yet — and
// replays the resulting completion-time order through the online engine. It
// bounds from below what any online policy (using the same admission
// routing) could achieve, quantifying the price of not knowing the future.
type Oracle struct {
	Scheduler OfflineScheduler
	order     []coflow.FlowRef
}

// NewOracle wraps an offline scheduler as the hindsight policy.
func NewOracle(s OfflineScheduler) *Oracle { return &Oracle{Scheduler: s} }

// Name identifies the policy.
func (o *Oracle) Name() string { return "Oracle(" + o.Scheduler.Name() + ")" }

// Prepare implements Preparer: solve the full instance offline once and
// derive a fixed priority order from the offline completion times.
func (o *Oracle) Prepare(inst *coflow.Instance, rng *rand.Rand) error {
	cs, err := o.Scheduler.Schedule(inst.Clone(), rng)
	if err != nil {
		return fmt.Errorf("online: oracle offline solve: %w", err)
	}
	completion := cs.CompletionTimes()
	order := inst.FlowRefs()
	sort.SliceStable(order, func(i, j int) bool {
		return completion[order[i]] < completion[order[j]]
	})
	o.order = order
	return nil
}

// Decide implements Policy: the hindsight order, restricted to flows visible
// in the snapshot (the simulator ranks unlisted flows last anyway, but the
// restriction keeps the decision well-scoped).
func (o *Oracle) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	visible := make(map[coflow.FlowRef]bool, snap.NumFlows())
	for _, cf := range snap.Coflows {
		for _, f := range cf.Flows {
			visible[f.Ref] = true
		}
	}
	order := make([]coflow.FlowRef, 0, len(visible))
	for _, r := range o.order {
		if visible[r] {
			order = append(order, r)
		}
	}
	return order, nil
}

// flattenIndexed expands a coflow permutation (indices into snap.Coflows)
// into a flow priority order (flows within a coflow in index order), backed
// by the snapshot's reusable order arena.
func flattenIndexed(snap *Snapshot, idx []int) []coflow.FlowRef {
	order := snap.orderArena[:0]
	for _, i := range idx {
		flows := snap.Coflows[i].Flows
		for j := range flows {
			order = append(order, flows[j].Ref)
		}
	}
	snap.orderArena = order
	return order
}
