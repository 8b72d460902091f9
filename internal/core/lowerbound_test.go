package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
	"coflowsched/internal/workload"
)

// bestPriorityObjective runs every priority order of inst's flows through the
// simulator on the given paths and returns the least weighted completion time
// among the schedules, each of which must validate.
func bestPriorityObjective(t *testing.T, inst *coflow.Instance, paths map[coflow.FlowRef]graph.Path) float64 {
	t.Helper()
	order := inst.FlowRefs()
	best := math.Inf(1)
	var permute func(k int)
	permute = func(k int) {
		if k == len(order) {
			sched, err := sim.Run(inst, sim.Config{Paths: paths, Order: order, Policy: sim.Priority})
			if err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
			if err := sched.Validate(inst); err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
			best = math.Min(best, sched.Objective(inst))
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	return best
}

// TestLowerBoundsBelowEveryPriorityOrder: a lower bound must sit below every
// feasible schedule. On seeded given-path instances of at most 6 flows, on a
// star or a FatTree(4), CircuitGivenPaths' LP bound, at the default ε = 1 and
// at ε = 0.1, and TrivialLowerBound are each at most the weighted completion
// time of the best flow priority order, to 1e-9 relative. The LP bound must
// also be the tighter of the two on some instances (at ε = 1 it never is on
// these), or the test would only ever exercise the trivial one.
func TestLowerBoundsBelowEveryPriorityOrder(t *testing.T) {
	const tol = 1e-9
	lpTighter := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.FatTree(4, 1)
		if seed%2 == 1 {
			g = graph.Star(4+rng.Intn(3), 1)
		}
		cfg := workload.Config{NumCoflows: 1 + rng.Intn(3), Width: 1 + rng.Intn(2), MeanSize: 3, MeanRelease: float64(rng.Intn(2)), MeanWeight: 2}
		inst, err := workload.GenerateWithPaths(g, cfg, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		paths := make(map[coflow.FlowRef]graph.Path, inst.NumFlows())
		for _, ref := range inst.FlowRefs() {
			paths[ref] = inst.Flow(ref).Path
		}
		best := bestPriorityObjective(t, inst, paths)
		bounds := map[string]float64{"trivial": TrivialLowerBound(inst)}
		for _, eps := range []float64{1, 0.1} {
			res, err := CircuitGivenPaths{Opts: Options{Epsilon: eps}}.ScheduleASAP(inst)
			if err != nil {
				t.Fatalf("seed %d: ε=%v: %v", seed, eps, err)
			}
			bounds[fmt.Sprintf("LP at ε=%v", eps)] = res.LowerBound
			if res.LowerBound > bounds["trivial"] {
				lpTighter++
			}
		}
		for name, lb := range bounds {
			if lb > best*(1+tol) {
				t.Errorf("seed %d (%d flows): the %s lower bound %v is above the best priority order's %v", seed, inst.NumFlows(), name, lb, best)
			}
		}
		t.Logf("seed %d: %d flows, %v best %v", seed, inst.NumFlows(), bounds, best)
	}
	if lpTighter == 0 {
		t.Error("the LP bound was never above the trivial one: the instances do not test it")
	}
}
