package main

import (
	"fmt"
	"math/rand"
	"time"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// runOffline is the paper's offline pipeline at one Figure-3 point: every
// seeded instance is scheduled by LP-Based (the free-path LP over 4 candidate
// paths, then ASAP) and by the three heuristics it is compared with. One
// operation is one instance scheduled by all four.
func runOffline(it *iteration) error {
	sz := it.sz
	it.params["fat_tree_k"] = 4
	it.params["instances"] = sz.offInstances
	it.params["coflows"] = sz.offCoflows
	it.params["width"] = sz.offWidth
	it.params["mean_size"], it.params["mean_release"], it.params["candidate_paths"] = 4, 2, 4

	g := graph.FatTree(4, 1)
	gen := it.tr.begin("workload.generate", -1, -1)
	insts := make([]*coflow.Instance, sz.offInstances)
	for i := range insts {
		rng := rand.New(rand.NewSource(subSeed(it.seed, i)))
		inst, err := workload.Generate(g, workload.Config{
			NumCoflows: sz.offCoflows, Width: sz.offWidth, MeanSize: 4, MeanRelease: 2}, rng)
		if err != nil {
			return err
		}
		insts[i] = inst
	}
	it.tr.end(gen)

	lpBased := core.CircuitFreePaths{Opts: core.Options{CandidatePaths: 4}}
	heuristics := []interface {
		Name() string
		Schedule(*coflow.Instance, *rand.Rand) (*coflow.CircuitSchedule, error)
	}{baselines.RouteOnly{}, baselines.ScheduleOnly{}, baselines.Baseline{}}
	results := make([]*core.Result, len(insts))
	scheds := make([][]*coflow.CircuitSchedule, len(insts))

	it.startWindow()
	for i, inst := range insts {
		// The heuristics route at random; their rng is the instance's own, so
		// the baseline objective repeats with the seed.
		rng := rand.New(rand.NewSource(subSeed(it.seed, i) + 1))
		t0 := time.Now()
		sp := it.tr.begin("core.schedule", -1, i)
		res, err := lpBased.ScheduleASAP(inst, rng)
		it.tr.end(sp)
		it.attempt(1)
		if err != nil {
			it.fail("instance %d: LP-Based: %v", i, err)
		}
		results[i] = res
		for _, h := range heuristics {
			sp := it.tr.begin("baselines.schedule", -1, i)
			cs, err := h.Schedule(inst, rng)
			it.tr.end(sp)
			it.attempt(1)
			if err != nil {
				it.fail("instance %d: %s: %v", i, h.Name(), err)
			}
			scheds[i] = append(scheds[i], cs)
		}
		it.op(time.Since(t0))
	}
	it.endWindow()

	// Outside the window: every schedule must be feasible, and the paper's
	// quality numbers are read off the valid ones.
	var vsBaseline, toLB, pivots, lbSum float64
	scored := 0
	it.exact, it.serial = true, true
	for i, inst := range insts {
		sp := it.tr.begin("coflow.validate", -1, i)
		ok := results[i] != nil
		if ok {
			if err := results[i].Schedule.Validate(inst); err != nil {
				it.fail("instance %d: LP-Based schedule invalid: %v", i, err)
				ok = false
			}
		}
		for h, cs := range scheds[i] {
			if cs == nil {
				ok = false
			} else if err := cs.Validate(inst); err != nil {
				it.fail("instance %d: %s schedule invalid: %v", i, heuristics[h].Name(), err)
				ok = false
			}
		}
		it.tr.end(sp)
		if !ok {
			continue
		}
		res := results[i]
		obj := res.Objective(inst)
		it.wcct += obj
		vsBaseline += obj / scheds[i][2].Objective(inst)
		toLB += res.ApproximationRatio(inst)
		pivots += float64(res.LPIterations)
		lbSum += res.LowerBound
		scored++
		it.slowdowns = append(it.slowdowns, offlineSlowdowns(inst, res)...)
	}
	if scored == 0 {
		return fmt.Errorf("no instance was scheduled")
	}
	if it.tr == nil {
		return nil
	}
	lt := it.tr.aggregate(it.winStart, it.winEnd)
	it.dist = lt.durs
	it.layer["workload.generate_s"] = it.tr.total("workload.generate").Seconds()
	it.layer["core.schedule_s"] = lt.total["core.schedule"].Seconds()
	it.layer["core.lp_pivots"] = pivots
	it.layer["core.pivots_per_s"] = pivots / lt.total["core.schedule"].Seconds()
	it.layer["core.lower_bound_sum"] = lbSum
	it.layer["baselines.schedule_s"] = lt.total["baselines.schedule"].Seconds()
	it.layer["coflow.validate_s"] = it.tr.total("coflow.validate").Seconds()
	it.layer["wcct_vs_baseline"] = vsBaseline / float64(scored)
	it.layer["ratio_to_lb"] = toLB / float64(scored)
	return nil
}

// offlineSlowdowns is, per coflow, its response time in the schedule over
// the time it would need with the network to itself on the chosen paths: the
// offline counterpart of the slowdown online.Engine.Stats reports.
func offlineSlowdowns(inst *coflow.Instance, res *core.Result) []float64 {
	ccts := inst.CoflowCompletionTimes(res.Schedule.CompletionTimes())
	arrivals := workload.Arrivals(inst)
	out := make([]float64, 0, len(ccts))
	for i, cf := range inst.Coflows {
		loads := make([]graph.PathLoad, len(cf.Flows))
		for j, f := range cf.Flows {
			loads[j] = graph.PathLoad{Path: res.ChosenPaths[coflow.FlowRef{Coflow: i, Index: j}], Volume: f.Size}
		}
		if alone := inst.Network.BottleneckTime(loads); alone > 0 {
			out = append(out, (ccts[i]-arrivals[i])/alone)
		}
	}
	return out
}
