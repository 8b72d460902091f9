package online

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/sim"
)

// rebuildSnapshot is the from-scratch snapshot builder the engine used before
// it kept a persistent view, retained as the view's oracle (the way
// sim.Reference and graph/reference_test.go are kept): every unfinished
// coflow that has arrived, every flow through a by-reference Status query, no
// reuse and no memo. It deliberately shares nothing with syncView — not the
// active list, not the handle table, not the progress log.
func rebuildSnapshot(e *Engine) *Snapshot {
	snap := &Snapshot{Now: e.now, Epoch: e.epoch, Network: e.inst.Network}
	for id := range e.inst.Coflows {
		if e.flowsLeft[id] == 0 || e.arrivals[id] > e.now+1e-15 {
			continue
		}
		cf := &e.inst.Coflows[id]
		rcf := ResidualCoflow{Index: id, Name: cf.Name, Weight: cf.Weight, Arrival: e.arrivals[id]}
		for j := range cf.Flows {
			ref := coflow.FlowRef{Coflow: id, Index: j}
			fs, ok := e.sim.Status(ref)
			if !ok || fs.Done {
				continue
			}
			rcf.Flows = append(rcf.Flows, ResidualFlow{
				Ref:       ref,
				Source:    cf.Flows[j].Source,
				Dest:      cf.Flows[j].Dest,
				Path:      fs.Path,
				Release:   cf.Flows[j].Release,
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

// checkView asserts the engine's incremental view, and the copy Snapshot
// hands out, equal the from-scratch rebuild field by field — Γ memo against a
// fresh BottleneckTime included.
func checkView(t *testing.T, e *Engine, label string) {
	t.Helper()
	want := rebuildSnapshot(e)
	got := e.syncView()
	if got.Now != want.Now || got.Epoch != want.Epoch || got.Network != want.Network {
		t.Fatalf("%s: view header (%v, %d), want (%v, %d)", label, got.Now, got.Epoch, want.Now, want.Epoch)
	}
	if len(got.Coflows) != len(want.Coflows) {
		t.Fatalf("%s: view holds %d coflows, rebuild %d", label, len(got.Coflows), len(want.Coflows))
	}
	for i := range want.Coflows {
		g, w := &got.Coflows[i], &want.Coflows[i]
		if g.Index != w.Index || g.Name != w.Name || g.Weight != w.Weight || g.Arrival != w.Arrival {
			t.Fatalf("%s: slot %d header %+v, want %+v", label, i, *g, *w)
		}
		if !reflect.DeepEqual(g.Flows, w.Flows) {
			t.Fatalf("%s: coflow %d flows\n got %+v\nwant %+v", label, w.Index, g.Flows, w.Flows)
		}
		var loads []graph.PathLoad
		for _, f := range w.Flows {
			loads = append(loads, graph.PathLoad{Path: f.Path, Volume: f.Remaining})
		}
		if fresh := e.inst.Network.BottleneckTime(loads); !g.hasGamma || g.gamma != fresh {
			t.Fatalf("%s: coflow %d Γ memo (%v, set=%v), fresh BottleneckTime %v", label, w.Index, g.gamma, g.hasGamma, fresh)
		}
	}
	snap := e.Snapshot()
	if snap.Now != want.Now || snap.Epoch != want.Epoch || len(snap.Coflows) != len(want.Coflows) {
		t.Fatalf("%s: Snapshot header/length differs from the rebuild", label)
	}
	if len(want.Coflows) > 0 && !reflect.DeepEqual(snap.Coflows, got.Coflows) {
		t.Fatalf("%s: Snapshot is not a copy of the view", label)
	}
	for i := range snap.Coflows {
		if &snap.Coflows[i] == &got.Coflows[i] || &snap.Coflows[i].Flows[0] == &got.Coflows[i].Flows[0] {
			t.Fatalf("%s: Snapshot shares slot %d with the view", label, i)
		}
	}
}

// TestViewMatchesRebuild drives engines through seeded admit / decide /
// advance / complete / restore sequences and checks after every step that the
// incremental view equals a from-scratch rebuild. The sequences cover what
// the view's bookkeeping could get wrong: flows with future release offsets,
// coflows admitted ahead of the clock (arriving mid-epoch, and out of id
// order, which forces the full-rebuild path), admissions rolled back midway
// (routing failure and sim.Remove), the Snapshot + ApplyOrder async path with
// a stale order, skipped decisions, partial epochs, export/restore through
// JSON, and going idle followed by fresh admissions.
func TestViewMatchesRebuild(t *testing.T) {
	const epoch = 1.0
	for _, policy := range []Policy{FIFOOnline{}, SEBFOnline{}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy.Name(), seed), func(t *testing.T) {
				g := graph.FatTree(4, 1)
				isolated := g.AddNode("isolated", graph.KindHost)
				hosts := g.Hosts()
				hosts = hosts[:len(hosts)-1] // keep the unreachable one out of good flows
				rng := rand.New(rand.NewSource(seed))
				e, err := NewEngine(g, policy, Config{EpochLength: epoch})
				if err != nil {
					t.Fatal(err)
				}
				randomCoflow := func() coflow.Coflow {
					cf := coflow.Coflow{Name: fmt.Sprintf("c%d", rng.Intn(1000)), Weight: float64(rng.Intn(4))}
					for j, n := 0, 1+rng.Intn(4); j < n; j++ {
						src := rng.Intn(len(hosts))
						dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
						f := coflow.Flow{Source: hosts[src], Dest: hosts[dst], Size: 0.2 + 6*rng.Float64()}
						if rng.Intn(4) == 0 {
							f.Release = 3 * epoch * rng.Float64()
						}
						cf.Flows = append(cf.Flows, f)
					}
					return cf
				}
				admitted, restores, rollbacks := 0, 0, 0
				for step := 0; admitted < 40 || !e.Done(); step++ {
					if step > 5000 {
						t.Fatalf("engine did not drain")
					}
					for k := rng.Intn(4); k > 0 && admitted < 40; k-- {
						at := e.Now()
						if rng.Intn(3) == 0 {
							at += 2.5 * epoch * rng.Float64() // ahead of the clock
						}
						if _, err := e.Admit(randomCoflow(), at); err != nil {
							t.Fatalf("admit: %v", err)
						}
						admitted++
					}
					switch rng.Intn(12) {
					case 0: // routing fails on the second flow
						bad := randomCoflow()
						bad.Flows = append(bad.Flows, coflow.Flow{Source: hosts[0], Dest: isolated, Size: 1})
						if _, err := e.Admit(bad, e.Now()); err == nil {
							t.Fatalf("unroutable coflow admitted")
						}
						rollbacks++
					case 1: // registration fails on the second flow: sim.Remove rolls the first back
						squat := coflow.FlowRef{Coflow: e.NumCoflows(), Index: 1}
						f := coflow.Flow{Source: hosts[0], Dest: hosts[1], Size: 1, Release: e.Now() + 10}
						if err := e.sim.AddFlow(squat, f, g.ShortestPath(hosts[0], hosts[1])); err != nil {
							t.Fatal(err)
						}
						bad := randomCoflow()
						bad.Flows = append(bad.Flows, bad.Flows[0])
						if _, err := e.Admit(bad, e.Now()); err == nil {
							t.Fatalf("coflow admitted over a squatted flow ref")
						}
						if err := e.sim.Remove(squat); err != nil {
							t.Fatal(err)
						}
						rollbacks++
					}
					checkView(t, e, fmt.Sprintf("step %d after admissions", step))

					switch rng.Intn(5) {
					case 0: // no decision this epoch
					case 1: // async: decide on a copy, apply one (partial) epoch late
						snap := e.Snapshot()
						order, err := policy.Decide(snap)
						if err != nil {
							t.Fatal(err)
						}
						order = append([]coflow.FlowRef(nil), order...)
						if err := e.AdvanceTo(e.Now() + epoch*rng.Float64()); err != nil {
							t.Fatal(err)
						}
						checkView(t, e, fmt.Sprintf("step %d mid-solve", step))
						prev := append([]coflow.FlowRef(nil), e.order...)
						if err := e.ApplyOrder(order, 0); err != nil {
							t.Fatal(err)
						}
						if got, want := e.OrderChurn(), orderChurn(prev, e.order); got != want {
							t.Fatalf("step %d: churn %v, oracle %v", step, got, want)
						}
					default:
						if err := e.DecideSync(); err != nil {
							t.Fatal(err)
						}
					}
					checkView(t, e, fmt.Sprintf("step %d after decide", step))
					if err := e.AdvanceTo(e.Now() + epoch); err != nil {
						t.Fatal(err)
					}
					checkView(t, e, fmt.Sprintf("step %d after advance", step))

					if rng.Intn(9) == 0 {
						raw, err := json.Marshal(e.ExportState())
						if err != nil {
							t.Fatal(err)
						}
						var st EngineState
						if err := json.Unmarshal(raw, &st); err != nil {
							t.Fatal(err)
						}
						if e, err = RestoreEngine(g, policy, Config{EpochLength: epoch}, &st); err != nil {
							t.Fatalf("restore: %v", err)
						}
						restores++
						checkView(t, e, fmt.Sprintf("step %d after restore", step))
					}
				}
				if restores == 0 || rollbacks == 0 {
					t.Fatalf("sequence exercised %d restores and %d rollbacks; want both", restores, rollbacks)
				}
				// Drained and idle: the engine must pick up again.
				if _, err := e.Admit(randomCoflow(), e.Now()); err != nil {
					t.Fatal(err)
				}
				if err := e.DecideSync(); err != nil {
					t.Fatal(err)
				}
				checkView(t, e, "after idle")
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// backlogEngine admits coflows×width flows at time zero on a k=4 fat-tree and
// takes the first decision, leaving a standing backlog.
func backlogEngine(tb testing.TB, policy Policy, coflows, width int) *Engine {
	tb.Helper()
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(3))
	e, err := NewEngine(g, policy, Config{EpochLength: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < coflows; i++ {
		cf := coflow.Coflow{Weight: 1 + float64(i%3)}
		for j := 0; j < width; j++ {
			src := rng.Intn(len(hosts))
			dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			cf.Flows = append(cf.Flows, coflow.Flow{Source: hosts[src], Dest: hosts[dst], Size: 1 + 8*rng.Float64()})
		}
		if _, err := e.Admit(cf, 0); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.DecideSync(); err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestDecideSyncSteadyStateAllocs pins the synchronous decide path at zero
// allocations once its arenas are warm: view sync, SEBF scoring over memoized
// Γ, order filter, install sweep and churn on a 2 000-flow backlog.
func TestDecideSyncSteadyStateAllocs(t *testing.T) {
	e := backlogEngine(t, SEBFOnline{}, 250, 8)
	if _, flows := e.ActiveCounts(); flows != 2000 {
		t.Fatalf("backlog holds %d flows, want 2000", flows)
	}
	if err := e.AdvanceTo(1); err != nil { // some slots dirty, some flows done
		t.Fatal(err)
	}
	if err := e.DecideSync(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.DecideSync(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecideSync allocates %v times per call, want 0", allocs)
	}
}

// TestDecideLeavesViewUnmodified checks the other half of the Policy
// contract the long-lived view depends on: FIFO, SEBF and the LP policy read
// the snapshot and leave every policy-visible field (and the Γ memo) as they
// found it.
func TestDecideLeavesViewUnmodified(t *testing.T) {
	for _, policy := range []Policy{FIFOOnline{}, SEBFOnline{}, LPEpoch{Sync: true}} {
		e := backlogEngine(t, policy, 3, 2)
		if err := e.AdvanceTo(0.5); err != nil {
			t.Fatal(err)
		}
		view := e.syncView()
		before := e.Snapshot()
		order, err := policy.Decide(view)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if len(order) == 0 {
			t.Fatalf("%s: empty order over a backlog", policy.Name())
		}
		if view.Now != before.Now || view.Epoch != before.Epoch || view.Network != before.Network ||
			!reflect.DeepEqual(view.Coflows, before.Coflows) {
			t.Errorf("%s: Decide modified the snapshot it was given", policy.Name())
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// activeSetCap sums the capacities of the simulator's active-set slices (the
// sorted set and its install buffer). They are the sim package's own, so the
// probe reads them by reflection.
func activeSetCap(s *sim.Simulator) int {
	v := reflect.ValueOf(s).Elem().FieldByName("active")
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap()
		}
	}
	return n
}

// TestIdleEngineReleasesArenas checks memory follows active work: once a
// 600-coflow burst has drained, the engine holds no more than an engine that
// admitted the same coflows one at a time and never had a backlog (the
// per-coflow registry, which both keep, is not the subject here) — within
// 64 KB — and it still admits and decides.
func TestIdleEngineReleasesArenas(t *testing.T) {
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(9))
	cfs := make([]coflow.Coflow, 600)
	for i := range cfs {
		cfs[i].Weight = 1
		for j := 0; j < 4; j++ {
			src := rng.Intn(len(hosts))
			dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			cfs[i].Flows = append(cfs[i].Flows, coflow.Flow{Source: hosts[src], Dest: hosts[dst], Size: 1 + 3*rng.Float64()})
		}
	}
	run := func(burst bool) (*Engine, int64) {
		base := liveHeap()
		e, err := NewEngine(g, SEBFOnline{}, Config{EpochLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfs {
			if _, err := e.Admit(cfs[i], e.Now()); err != nil {
				t.Fatal(err)
			}
			if !burst {
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		e.TakeCompleted()
		return e, int64(liveHeap()) - int64(base)
	}
	run(false) // warm the graph's path memo and the runtime
	control, controlHeap := run(false)
	e, burstHeap := run(true)
	t.Logf("live heap after drain: burst engine %d KB, no-backlog engine %d KB", burstHeap>>10, controlHeap>>10)
	if extra := burstHeap - controlHeap; extra > 64<<10 {
		t.Errorf("drained burst engine holds %d KB more than one that never had a backlog, want <= 64 KB", extra>>10)
	}
	runtime.KeepAlive(control)
	if cap(e.view.Coflows) != 0 || e.order != nil || e.orderHandles != nil {
		t.Errorf("drained burst engine kept its epoch arenas (view cap %d, order cap %d)", cap(e.view.Coflows), cap(e.order))
	}
	if cap(control.view.Coflows) == 0 {
		t.Errorf("an engine that never held a backlog released its arenas: idle churn")
	}
	if n := activeSetCap(e.sim); n != 0 {
		t.Errorf("drained burst engine's simulator kept active-set slices of capacity %d", n)
	}
	if activeSetCap(control.sim) == 0 {
		t.Errorf("an engine that never held a backlog has no active-set capacity: the probe reads nothing")
	}
	if _, err := e.Admit(cfs[0], e.Now()); err != nil {
		t.Fatalf("admission after the idle release: %v", err)
	}
	if err := e.DecideSync(); err != nil {
		t.Fatalf("decide after the idle release: %v", err)
	}
	checkView(t, e, "after the idle release")
	if len(e.Order()) != len(cfs[0].Flows) {
		t.Errorf("order after the idle release ranks %d flows, want %d", len(e.Order()), len(cfs[0].Flows))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}
