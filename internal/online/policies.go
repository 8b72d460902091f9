package online

import (
	"cmp"
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
	keys := resize(&snap.keyArena, len(snap.Coflows))
	for i := range snap.Coflows {
		keys[i] = snap.Coflows[i].Arrival
	}
	return sortCoflows(snap, keys), nil
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
	keys := resize(&snap.keyArena, len(snap.Coflows)) // Γ/w, by coflow position
	var loads []graph.PathLoad                        // scratch for coflows that carry no Γ memo
	for i := range snap.Coflows {
		cf := &snap.Coflows[i]
		if keys[i] = cf.gamma; !cf.hasGamma {
			keys[i], loads = residualBottleneck(snap.Network, cf.Flows, loads)
		}
		if cf.Weight > 0 {
			keys[i] /= cf.Weight
		}
	}
	return sortCoflows(snap, keys), nil
}

// sortCoflows orders the coflows by key (per slot), ties by the unique Index,
// and expands them into the snapshot's order arena, flows in index order. It
// starts from the order the engine last applied — each slot seated at its
// seed, the unseated (new, or seed out of range or taken) after in slot order
// — so it sorts a nearly sorted input. (key, Index) is a total order: a
// stale, shared or missing seed costs time only.
func sortCoflows(snap *Snapshot, key []float64) []coflow.FlowRef {
	cfs := snap.Coflows
	idx := resize(&snap.idxArena, len(cfs))
	seats := resize(&snap.seatArena, snap.seedSpan) // zero: no slot seated
	seated, rest := 0, len(cfs)
	for i := range cfs {
		if s := cfs[i].seed; s >= 0 && s < len(seats) && seats[s] == 0 {
			seats[s] = i + 1
			seated++
		} else {
			rest--
			idx[rest] = i
		}
	}
	slices.Reverse(idx[seated:]) // the unseated, back in slot order
	for k, n := 0, 0; n < seated; k++ {
		if v := seats[k]; v > 0 {
			idx[n], seats[k] = v-1, 0
			n++
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(key[a], key[b]), cfs[a].Index-cfs[b].Index)
	})
	order := snap.orderArena[:0]
	for _, i := range idx {
		flows := cfs[i].Flows
		for j := range flows {
			order = append(order, flows[j].Ref)
		}
	}
	snap.orderArena = order
	return order
}

// PolicyByName returns the epoch policy a daemon's -policy flag names: sebf,
// fifo or lp.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "sebf":
		return SEBFOnline{}, nil
	case "fifo":
		return FIFOOnline{}, nil
	case "lp":
		return LPEpoch{}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want sebf, fifo, lp)", name)
}

// LPEpoch re-solves the paper's interval-indexed LP (internal/core) on the
// residual instance at every epoch: arrived coflows with their remaining
// volumes, release times shifted so "now" is time zero, and the
// admission-time paths fixed. The LP's completion-time order becomes the
// epoch's priority order. LPEpoch is asynchronous: its order is applied one
// epoch after the view it was solved on (see AsyncPolicy).
type LPEpoch struct {
	// Sync drops the one-epoch lag, applying every decision at once on fresh
	// state (useful for isolating the staleness cost in experiments).
	Sync bool
	// Strict propagates LP solver failures instead of falling back. By
	// default a failed solve (the pure-Go simplex can hit numerically
	// degenerate residual instances) degrades to the SEBF residual order
	// for that epoch, returned as a *Fallback so that it is counted — a
	// scheduler must survive a solver hiccup.
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
	lpOrder, err := core.CircuitGivenPaths{}.Order(rinst)
	if err != nil {
		err = fmt.Errorf("online: epoch %d LP: %w", snap.Epoch, err)
		if p.Strict {
			return nil, err
		}
		order, _ := SEBFOnline{}.Decide(snap) // SEBF never fails
		return nil, &Fallback{Order: order, Err: err}
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

// OfflineScheduler is the offline interface Oracle wraps: the LP-based
// algorithms of internal/core and the heuristics of internal/baselines all
// satisfy it.
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
