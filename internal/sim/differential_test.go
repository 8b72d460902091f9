package sim

import (
	"math"
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// The tests in this file are the contract of the incremental rewrite: on
// randomized instances — fat-tree and line topologies, Priority and
// FairShare policies, batch runs and stepped runs with mid-run
// AddFlow/SetOrder/ForgetCoflow — the incremental simulator must produce
// exactly the completion times (to 1e-9) and transmitted volumes of the
// retained naive reference allocator in reference.go.

const diffTol = 1e-9

// diffTopologies returns the two network shapes the differential suite
// sweeps: a multi-path fat-tree and a chain where every flow contends.
func diffTopologies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"fattree": graph.FatTree(4, 1),
		"line":    graph.Line(6, 1),
	}
}

// diffInstance draws a random instance on g with staggered releases.
func diffInstance(t *testing.T, g *graph.Graph, seed int64, coflows, width int) *coflow.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst, err := workload.GenerateWithPaths(g, workload.Config{
		NumCoflows: coflows, Width: width, MeanSize: 4, MeanRelease: 5,
	}, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return inst
}

// assertSchedulesMatch compares per-flow completion times and delivered
// volumes between the incremental and reference schedules.
func assertSchedulesMatch(t *testing.T, refs []coflow.FlowRef, got, want *coflow.CircuitSchedule) {
	t.Helper()
	for _, ref := range refs {
		g, w := got.Get(ref), want.Get(ref)
		if g == nil || w == nil {
			t.Fatalf("flow %s missing from a schedule (incremental %v, reference %v)", ref, g != nil, w != nil)
		}
		if gc, wc := g.CompletionTime(), w.CompletionTime(); math.Abs(gc-wc) > diffTol {
			t.Errorf("flow %s: incremental completion %v, reference %v (Δ=%g)", ref, gc, wc, gc-wc)
		}
		if gd, wd := g.Delivered(), w.Delivered(); math.Abs(gd-wd) > diffTol*math.Max(1, wd) {
			t.Errorf("flow %s: incremental delivered %v, reference %v", ref, gd, wd)
		}
	}
}

// TestDifferentialBatchRun sweeps randomized batch runs across topologies,
// policies and sizes.
func TestDifferentialBatchRun(t *testing.T) {
	for name, g := range diffTopologies() {
		for _, policy := range []Policy{Priority, FairShare} {
			pname := "priority"
			if policy == FairShare {
				pname = "fairshare"
			}
			t.Run(name+"/"+pname, func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					inst := diffInstance(t, g, seed, 6, 4)
					cfg := Config{Policy: policy}
					if policy == Priority {
						// A random (not reference-sorted) priority order.
						order := inst.FlowRefs()
						rng := rand.New(rand.NewSource(seed * 101))
						rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
						cfg.Order = order
					}
					got, err := Run(inst, cfg)
					if err != nil {
						t.Fatalf("seed %d: incremental run: %v", seed, err)
					}
					want, err := RunReference(inst, cfg)
					if err != nil {
						t.Fatalf("seed %d: reference run: %v", seed, err)
					}
					assertSchedulesMatch(t, inst.FlowRefs(), got, want)
					if err := got.Validate(inst); err != nil {
						t.Errorf("seed %d: incremental schedule infeasible: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestDifferentialSteppedReorder drives both simulators through identical
// randomized epoch loops: random step lengths, a random permutation
// installed via SetOrder at every boundary.
func TestDifferentialSteppedReorder(t *testing.T) {
	for name, g := range diffTopologies() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				inst := diffInstance(t, g, seed+50, 5, 4)
				refs := inst.FlowRefs()
				inc, err := New(inst, Config{Order: refs, Policy: Priority})
				if err != nil {
					t.Fatalf("new incremental: %v", err)
				}
				ref, err := NewReference(inst, Config{Order: refs, Policy: Priority})
				if err != nil {
					t.Fatalf("new reference: %v", err)
				}
				rng := rand.New(rand.NewSource(seed * 7))
				horizon := inst.TimeHorizon()
				now := 0.0
				for steps := 0; !inc.Done() || !ref.Done(); steps++ {
					if steps > 1000 {
						t.Fatalf("seed %d: runaway stepped simulation", seed)
					}
					order := append([]coflow.FlowRef(nil), refs...)
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					if _, err := inc.SetOrder(order); err != nil {
						t.Fatalf("incremental SetOrder: %v", err)
					}
					if err := ref.SetOrder(order); err != nil {
						t.Fatalf("reference SetOrder: %v", err)
					}
					now += rng.Float64() * horizon / 7
					if err := inc.RunUntil(now); err != nil {
						t.Fatalf("incremental RunUntil: %v", err)
					}
					if err := ref.RunUntil(now); err != nil {
						t.Fatalf("reference RunUntil: %v", err)
					}
					if inc.Done() != ref.Done() {
						t.Fatalf("seed %d t=%v: done mismatch: incremental %v, reference %v",
							seed, now, inc.Done(), ref.Done())
					}
					// Residual volumes must agree at every boundary, not just
					// at the end.
					gotRes, wantRes := inc.Residuals(), ref.Residuals()
					for i := range wantRes {
						if math.Abs(gotRes[i].Remaining-wantRes[i].Remaining) > diffTol*math.Max(1, wantRes[i].Size) {
							t.Errorf("seed %d t=%v flow %s: remaining %v vs reference %v",
								seed, now, wantRes[i].Ref, gotRes[i].Remaining, wantRes[i].Remaining)
						}
					}
				}
				assertSchedulesMatch(t, refs, inc.Schedule(), ref.Schedule())
			}
		})
	}
}

// TestDifferentialOnlineChurn exercises the full online lifecycle against
// the oracle: flows admitted mid-run (AddFlow), periodic re-prioritization
// over the still-live flows (SetOrder), and pruning of finished coflows
// (ForgetCoflow) — the exact call pattern of the serving engine.
func TestDifferentialOnlineChurn(t *testing.T) {
	for name, g := range diffTopologies() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed * 13))
				inst, _, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
					Config: workload.Config{NumCoflows: 8, Width: 3, MeanSize: 4},
					Rate:   1.5,
				}, rng)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				if err := inst.AssignShortestPaths(); err != nil {
					t.Fatalf("paths: %v", err)
				}
				refs := inst.FlowRefs()

				empty := &coflow.Instance{Network: g}
				inc, err := New(empty, Config{Policy: Priority})
				if err != nil {
					t.Fatalf("new incremental: %v", err)
				}
				oracle, err := NewReference(&coflow.Instance{Network: g}, Config{Policy: Priority})
				if err != nil {
					t.Fatalf("new reference: %v", err)
				}

				// Admission order: by release, the causal stream.
				stream := append([]coflow.FlowRef(nil), refs...)
				for i := 1; i < len(stream); i++ {
					for j := i; j > 0 && inst.Flow(stream[j]).Release < inst.Flow(stream[j-1]).Release; j-- {
						stream[j], stream[j-1] = stream[j-1], stream[j]
					}
				}
				completions := map[coflow.FlowRef]float64{}
				record := func(s interface{ Residuals() []FlowStatus }, into map[coflow.FlowRef]float64) {
					for _, fs := range s.Residuals() {
						if fs.Done {
							if _, seen := into[fs.Ref]; !seen {
								into[fs.Ref] = fs.Completion
							}
						}
					}
				}
				wantCompletions := map[coflow.FlowRef]float64{}

				next := 0
				var live []coflow.FlowRef
				left := make([]int, len(inst.Coflows)) // unfinished flows per coflow
				for c := range inst.Coflows {
					left[c] = len(inst.Coflows[c].Flows)
				}
				const epoch = 2.0
				for now := 0.0; ; now += epoch {
					if now > 200*inst.TimeHorizon() {
						t.Fatalf("seed %d: online churn did not finish", seed)
					}
					// Admit everything released inside this epoch.
					for next < len(stream) && inst.Flow(stream[next]).Release <= now+epoch {
						r := stream[next]
						f := *inst.Flow(r)
						if err := inc.AddFlow(r, f, nil); err != nil {
							t.Fatalf("incremental AddFlow %s: %v", r, err)
						}
						if err := oracle.AddFlow(r, f, nil); err != nil {
							t.Fatalf("reference AddFlow %s: %v", r, err)
						}
						live = append(live, r)
						next++
					}
					// Re-prioritize the live flows, shuffled — both sides see
					// the identical partial order.
					order := append([]coflow.FlowRef(nil), live...)
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					if _, err := inc.SetOrder(order); err != nil {
						t.Fatalf("incremental SetOrder: %v", err)
					}
					if err := oracle.SetOrder(order); err != nil {
						t.Fatalf("reference SetOrder: %v", err)
					}
					if err := inc.RunUntil(now + epoch); err != nil {
						t.Fatalf("incremental RunUntil: %v", err)
					}
					if err := oracle.RunUntil(now + epoch); err != nil {
						t.Fatalf("reference RunUntil: %v", err)
					}
					record(inc, completions)
					record(oracle, wantCompletions)
					// Prune finished coflows from both, like the engine does.
					stillLive := live[:0]
					for _, r := range live {
						fs, ok := inc.Status(r)
						if !ok {
							t.Fatalf("live flow %s unknown to the incremental simulator", r)
						}
						if fs.Done {
							if left[r.Coflow]--; left[r.Coflow] == 0 {
								if err := inc.ForgetCoflow(r.Coflow); err != nil {
									t.Fatalf("incremental ForgetCoflow %d: %v", r.Coflow, err)
								}
								if err := oracle.ForgetCoflow(r.Coflow); err != nil {
									t.Fatalf("reference ForgetCoflow %d: %v", r.Coflow, err)
								}
							}
							continue
						}
						stillLive = append(stillLive, r)
					}
					live = stillLive
					if next == len(stream) && inc.Done() && oracle.Done() {
						break
					}
				}

				if len(completions) != len(refs) || len(wantCompletions) != len(refs) {
					t.Fatalf("seed %d: recorded %d/%d completions (reference %d)",
						seed, len(completions), len(refs), len(wantCompletions))
				}
				total := 0.0
				for _, r := range refs {
					got, want := completions[r], wantCompletions[r]
					if math.Abs(got-want) > diffTol {
						t.Errorf("seed %d flow %s: incremental completion %v, reference %v (Δ=%g)",
							seed, r, got, want, got-want)
					}
					total += inst.Flow(r).Size
				}
				_ = total
			}
		})
	}
}

// TestDifferentialTotalVolume checks conservation on a batch run: total
// delivered volume equals total instance volume for both allocators.
func TestDifferentialTotalVolume(t *testing.T) {
	g := graph.FatTree(4, 1)
	inst := diffInstance(t, g, 99, 8, 5)
	order := inst.FlowRefs()
	got, err := Run(inst, Config{Order: order, Policy: Priority})
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}
	want, err := RunReference(inst, Config{Order: order, Policy: Priority})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	sum := func(cs *coflow.CircuitSchedule) float64 {
		s := 0.0
		for _, ref := range inst.FlowRefs() {
			s += cs.Get(ref).Delivered()
		}
		return s
	}
	size := 0.0
	for _, ref := range inst.FlowRefs() {
		size += inst.Flow(ref).Size
	}
	if gs := sum(got); math.Abs(gs-size) > 1e-6*size {
		t.Errorf("incremental delivered %v of %v", gs, size)
	}
	if ws := sum(want); math.Abs(ws-size) > 1e-6*size {
		t.Errorf("reference delivered %v of %v", ws, size)
	}
	if gs, ws := sum(got), sum(want); math.Abs(gs-ws) > 1e-6*size {
		t.Errorf("delivered volumes diverge: incremental %v, reference %v", gs, ws)
	}
}
