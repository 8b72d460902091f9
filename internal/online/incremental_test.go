package online

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// engineWorkload draws a reproducible Poisson arrival stream on a 16-server
// fat-tree. Coflows carry no pre-assigned paths, so the engine's causal
// router picks them, as in production.
func engineWorkload(t *testing.T, seed int64, coflows int) (*coflow.Instance, []float64) {
	t.Helper()
	g := graph.FatTree(4, 1)
	rng := rand.New(rand.NewSource(seed))
	inst, arrivals, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{NumCoflows: coflows, Width: 3, MeanSize: 4, MeanWeight: 1},
		Rate:   2.0,
	}, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return inst, arrivals
}

// relativeCoflow strips absolute release times back to offsets from the
// coflow's arrival, producing the wire-shaped coflow a client would POST.
func relativeCoflow(cf coflow.Coflow, arrival float64) coflow.Coflow {
	out := coflow.Coflow{Name: cf.Name, Weight: cf.Weight, Flows: make([]coflow.Flow, len(cf.Flows))}
	copy(out.Flows, cf.Flows)
	for j := range out.Flows {
		out.Flows[j].Release -= arrival
		out.Flows[j].Path = nil
	}
	return out
}

// TestEngineMatchesBatchRun drives an engine by hand through Run's epoch
// discipline — admit each coflow at its arrival, decide synchronously at
// every boundary, advance one epoch — and checks that Run, which scores the
// transcript, and the engine's own registry, which coflowd serves, agree to
// the last bit: Run is a driver over the same engine, not a second loop. The
// jittered stream releases flows after their coflow's arrival, so admission
// routes and registers flows that the simulator only starts later.
func TestEngineMatchesBatchRun(t *testing.T) {
	const epoch = 1.5
	g := graph.FatTree(4, 1)
	for _, stream := range []struct {
		name        string
		seed        int64
		meanRelease float64
	}{
		{"uniform", 5, 0},
		{"jitter", 18, 1.5},
	} {
		inst, _, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
			Config: workload.Config{NumCoflows: 6, Width: 3, MeanSize: 4, MeanWeight: 1, MeanRelease: stream.meanRelease},
			Rate:   2.0,
		}, rand.New(rand.NewSource(stream.seed)))
		if err != nil {
			t.Fatalf("%s: generate: %v", stream.name, err)
		}
		arrivals := workload.Arrivals(inst)
		if !sort.Float64sAreSorted(arrivals) {
			t.Fatalf("%s: seed %d no longer yields sorted arrivals %v; pick another", stream.name, stream.seed, arrivals)
		}
		for _, policy := range []Policy{FIFOOnline{}, SEBFOnline{}, LPEpoch{Sync: true}} {
			label := stream.name + "/" + policy.Name()
			want, err := Run(inst, policy, Config{EpochLength: epoch, Seed: 1})
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			if err := want.Schedule.Validate(inst); err != nil {
				t.Errorf("%s: transcript infeasible: %v", label, err)
			}

			eng, err := NewEngine(g, policy, Config{EpochLength: epoch})
			if err != nil {
				t.Fatalf("%s: new engine: %v", label, err)
			}
			next := 0
			admit := func(upTo float64) {
				for ; next < len(arrivals) && arrivals[next] <= upTo+1e-15; next++ {
					if _, err := eng.Admit(relativeCoflow(inst.Coflows[next], arrivals[next]), arrivals[next]); err != nil {
						t.Fatalf("%s: admit coflow %d: %v", label, next, err)
					}
				}
			}
			// Run aligns epoch 0 to the first arrival; mirror that.
			now := arrivals[0]
			admit(now)
			if err := eng.AdvanceTo(now); err != nil {
				t.Fatalf("%s: advance to start: %v", label, err)
			}
			for ; next < len(arrivals) || !eng.Done(); now += epoch {
				if now > 100*inst.TimeHorizon() {
					t.Fatalf("%s: engine did not finish", label)
				}
				if err := eng.DecideSync(); err != nil {
					t.Fatalf("%s: decide at %v: %v", label, now, err)
				}
				admit(now + epoch) // arrivals inside the epoch land mid-simulation
				if err := eng.AdvanceTo(now + epoch); err != nil {
					t.Fatalf("%s: advance to %v: %v", label, now+epoch, err)
				}
			}

			st := eng.Stats()
			if st.Completed != len(inst.Coflows) {
				t.Fatalf("%s: completed %d of %d coflows", label, st.Completed, len(inst.Coflows))
			}
			// Run sums its objectives in coflow order; so does this. (The
			// engine's running aggregates add in completion order and may
			// differ from either in the last bit.)
			wcct, wresp := 0.0, 0.0
			for i := range inst.Coflows {
				cs, ok := eng.CoflowStatus(i)
				if !ok || !cs.Done {
					t.Fatalf("%s: coflow %d not reported done", label, i)
				}
				if cs.Completion != want.CoflowCompletion[i] {
					t.Errorf("%s: coflow %d completion: engine %v, Run %v", label, i, cs.Completion, want.CoflowCompletion[i])
				}
				wcct += cs.Weight * cs.Completion
				wresp += cs.Weight * cs.Response
			}
			if wcct != want.WeightedCCT || math.Abs(st.WeightedCCT-wcct) > 1e-12*wcct {
				t.Errorf("%s: weighted CCT: engine %v (aggregate %v), Run %v", label, wcct, st.WeightedCCT, want.WeightedCCT)
			}
			if wresp != want.WeightedResponse || math.Abs(st.WeightedResponse-wresp) > 1e-12*wresp {
				t.Errorf("%s: weighted response: engine %v (aggregate %v), Run %v", label, wresp, st.WeightedResponse, want.WeightedResponse)
			}
		}
	}
}

// TestRing pins the bounded-reservoir behavior the engine's percentile
// inputs rely on: grows to statsWindow, then overwrites oldest-first.
func TestRing(t *testing.T) {
	var r ring
	for i := 0; i < statsWindow+10; i++ {
		r.add(float64(i))
	}
	vals := r.snapshot()
	if len(vals) != statsWindow {
		t.Fatalf("reservoir holds %d values, want %d", len(vals), statsWindow)
	}
	min := vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	if min != 10 {
		t.Errorf("oldest surviving value %v, want 10 (oldest-first eviction)", min)
	}
}

// TestRingSurvivesRestore: a ring exported after it wrapped and restored
// keeps evicting oldest first, as the live ring does. A snapshot in storage
// order restored as oldest first overwrote the newest samples instead.
func TestRingSurvivesRestore(t *testing.T) {
	var live ring
	for i := 0; i < statsWindow+10; i++ {
		live.add(float64(i))
	}
	restored := restoreRing(live.snapshot())
	for i := statsWindow + 10; i < statsWindow+15; i++ {
		live.add(float64(i))
		restored.add(float64(i))
	}
	got, want := restored.snapshot(), live.snapshot()
	if !slices.Equal(got, want) {
		t.Fatalf("restored ring holds %v..%v, live ring %v..%v", got[0], got[len(got)-1], want[0], want[len(want)-1])
	}
	if slices.Min(got) != 15 {
		t.Errorf("restored ring's oldest sample %v, want 15", slices.Min(got))
	}
}

// TestEngineAdmitValidation exercises the rejection paths.
func TestEngineAdmitValidation(t *testing.T) {
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	eng, err := NewEngine(g, SEBFOnline{}, Config{EpochLength: 1})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	ok := coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 2}}}

	cases := []struct {
		name string
		cf   coflow.Coflow
		at   float64
	}{
		{"no flows", coflow.Coflow{Weight: 1}, 0},
		{"negative weight", coflow.Coflow{Weight: -1, Flows: ok.Flows}, 0},
		{"NaN weight", coflow.Coflow{Weight: math.NaN(), Flows: ok.Flows}, 0},
		{"zero size", coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 0}}}, 0},
		{"bad endpoint", coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: -1, Dest: hosts[1], Size: 1}}}, 0},
		{"self loop", coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[0], Size: 1}}}, 0},
		{"NaN release", coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 1, Release: math.NaN()}}}, 0},
		{"NaN admission time", ok, math.NaN()},
	}
	for _, c := range cases {
		if _, err := eng.Admit(c.cf, c.at); err == nil {
			t.Errorf("%s: admission accepted", c.name)
		}
	}
	if st := eng.Stats(); st.Admitted != 0 {
		t.Fatalf("rejected admissions leaked state: %+v", st)
	}

	// Valid admission, then one in the past.
	if _, err := eng.Admit(ok, 0); err != nil {
		t.Fatalf("valid admission rejected: %v", err)
	}
	if err := eng.DecideSync(); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if err := eng.AdvanceTo(5); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if _, err := eng.Admit(ok, 3); err == nil {
		t.Errorf("admission in the past accepted")
	}
}

// TestApplyStaleOrder reproduces the async serving race: a decision solved
// from a snapshot taken before a coflow completed still names that coflow's
// (since pruned) flows. Applying it must succeed and rank the surviving
// flows, not reject the whole decision.
func TestApplyStaleOrder(t *testing.T) {
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	eng, err := NewEngine(g, FIFOOnline{}, Config{EpochLength: 1})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	small := coflow.Coflow{Name: "small", Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 1}}}
	big := coflow.Coflow{Name: "big", Weight: 1, Flows: []coflow.Flow{{Source: hosts[2], Dest: hosts[3], Size: 50}}}
	if _, err := eng.Admit(small, 0); err != nil {
		t.Fatalf("admit small: %v", err)
	}
	if _, err := eng.Admit(big, 0); err != nil {
		t.Fatalf("admit big: %v", err)
	}
	// Snapshot-then-decide while both coflows are live (the in-flight solve).
	snap := eng.Snapshot()
	stale, err := FIFOOnline{}.Decide(snap)
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	if len(stale) != 2 {
		t.Fatalf("stale order has %d flows, want 2", len(stale))
	}
	// The small coflow completes (disjoint paths) and is pruned mid-solve.
	if err := eng.AdvanceTo(5); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if st, _ := eng.CoflowStatus(0); !st.Done {
		t.Fatalf("small coflow not done at t=5: %+v", st)
	}
	// Applying the stale decision must not fail, and must keep the live flow.
	if err := eng.ApplyOrder(stale, time.Millisecond); err != nil {
		t.Fatalf("applying stale order: %v", err)
	}
	if st := eng.Stats(); st.Decisions != 1 {
		t.Errorf("decisions = %d, want 1", st.Decisions)
	}
	order := eng.Order()
	if len(order) != 1 || order[0].Coflow != 1 {
		t.Errorf("residual order %v, want the big coflow's flow only", order)
	}
	if err := eng.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSettleSameEpochInstallsAsDecided: an order settled in the epoch it was
// decided in is installed as decided, with no survivorship filter — so a ref
// the simulator does not know is SetOrder's error, not dropped, and the
// rejected order leaves the standing one, its churn and the decision count
// as they were.
func TestSettleSameEpochInstallsAsDecided(t *testing.T) {
	r := func(c int) coflow.FlowRef { return coflow.FlowRef{Coflow: c} }
	eng := churnEngine(t, 3)
	decided := []coflow.FlowRef{r(2), r(0), r(1)}
	if applied, err := eng.Settle(Decision{Order: decided, Epoch: eng.Epoch()}); !applied || err != nil {
		t.Fatalf("settle: applied %v, err %v", applied, err)
	}
	if got := eng.Order(); !slices.Equal(got, decided) {
		t.Fatalf("installed %v, decided %v", got, decided)
	}
	decisions, churnBefore := eng.Stats().Decisions, eng.OrderChurn()
	for _, bad := range [][]coflow.FlowRef{
		{r(0), r(7), r(1)},                    // never admitted
		{r(1), {Coflow: 0, Index: 1}, r(0)},   // past the coflow's flows
		{r(0), {Coflow: -1, Index: 0}, r(2)},  // negative
		{r(2), r(1), r(0), {Coflow: 1 << 40}}, // far past the last coflow
	} {
		if _, err := eng.Settle(Decision{Order: bad, Epoch: eng.Epoch()}); err == nil {
			t.Fatalf("order %v with an unknown ref installed", bad)
		}
		if got := eng.Order(); !slices.Equal(got, decided) {
			t.Fatalf("rejected order %v replaced the standing one: %v", bad, got)
		}
		if eng.Stats().Decisions != decisions || eng.OrderChurn() != churnBefore {
			t.Fatalf("rejected order %v counted as a decision", bad)
		}
	}
	// The same junk through ApplyOrder, the replay path, is dropped.
	if err := eng.ApplyOrder([]coflow.FlowRef{r(0), r(7), r(1)}, 0); err != nil {
		t.Fatalf("ApplyOrder: %v", err)
	}
	if got := eng.Order(); !slices.Equal(got, []coflow.FlowRef{r(0), r(1)}) {
		t.Fatalf("ApplyOrder installed %v, want the two known refs", got)
	}
}

// TestSettleAcrossAdvanceFilters: an order that an advance overtook — a
// synchronous decision settled after a tick, or an AsyncPolicy's order held
// to the next boundary — still goes through ApplyOrder and drops the refs of
// coflows that completed since its view, applying the rest.
func TestSettleAcrossAdvanceFilters(t *testing.T) {
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	small := coflow.Coflow{Name: "small", Weight: 1, Flows: []coflow.Flow{{Source: hosts[0], Dest: hosts[1], Size: 1}}}
	big := coflow.Coflow{Name: "big", Weight: 1, Flows: []coflow.Flow{{Source: hosts[2], Dest: hosts[3], Size: 50}}}
	for _, policy := range []Policy{FIFOOnline{}, &asyncFIFO{}} {
		eng, err := NewEngine(g, policy, Config{EpochLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, cf := range []coflow.Coflow{small, big} {
			if _, err := eng.Admit(cf, 0); err != nil {
				t.Fatal(err)
			}
		}
		snap := eng.Snapshot()
		order, err := policy.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		d := Decision{Order: order, Epoch: snap.Epoch}
		if _, async := policy.(AsyncPolicy); async {
			// A cold start applies at once and holds a copy for the boundary.
			if applied, err := eng.Settle(d); !applied || err != nil {
				t.Fatalf("%s: cold start applied %v, err %v", policy.Name(), applied, err)
			}
		}
		if err := eng.AdvanceTo(5); err != nil { // the small coflow completes
			t.Fatal(err)
		}
		if st, _ := eng.CoflowStatus(0); !st.Done {
			t.Fatalf("%s: small coflow not done at t=5", policy.Name())
		}
		if _, async := policy.(AsyncPolicy); async {
			held, applied, err := eng.ApplyHeld()
			if !applied || err != nil || held.Epoch != snap.Epoch {
				t.Fatalf("%s: held order applied %v (epoch %d), err %v", policy.Name(), applied, held.Epoch, err)
			}
		} else if applied, err := eng.Settle(d); !applied || err != nil {
			t.Fatalf("%s: overtaken order applied %v, err %v", policy.Name(), applied, err)
		}
		if got := eng.Order(); len(got) != 1 || got[0].Coflow != 1 {
			t.Errorf("%s: order %v, want the big coflow's flow only", policy.Name(), got)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineOracleRejected checks the Preparer guard.
func TestEngineOracleRejected(t *testing.T) {
	if _, err := NewEngine(graph.FatTree(4, 1), NewOracle(baselines.SEBF{}), Config{EpochLength: 1}); err == nil {
		t.Fatalf("engine accepted a hindsight policy")
	}
}

// TestEngineDrain admits a burst mid-run and drains to completion, checking
// stats, per-coflow status and the residual schedule view along the way.
func TestEngineDrain(t *testing.T) {
	inst, arrivals := engineWorkload(t, 9, 5)
	eng, err := NewEngine(inst.Network, SEBFOnline{}, Config{EpochLength: 2})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	last := 0.0
	for i, cf := range inst.Coflows {
		if _, err := eng.Admit(relativeCoflow(cf, arrivals[i]), arrivals[i]); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if arrivals[i] > last {
			last = arrivals[i]
		}
	}
	// Advance past the last arrival so every coflow is visible to the policy.
	if err := eng.AdvanceTo(last); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if err := eng.DecideSync(); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if got := len(eng.Order()); got == 0 {
		t.Fatalf("no priority order after a decision over %d coflows", eng.NumCoflows())
	}
	snap := eng.Snapshot()
	if len(snap.Coflows) == 0 {
		t.Fatalf("snapshot empty with admitted work")
	}
	if err := eng.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !eng.Done() {
		t.Fatalf("engine not done after drain")
	}
	st := eng.Stats()
	if st.Completed != len(inst.Coflows) || st.Active != 0 || st.ActiveFlows != 0 {
		t.Fatalf("post-drain stats inconsistent: %+v", st)
	}
	if st.WeightedCCT <= 0 || st.WeightedResponse <= 0 {
		t.Fatalf("post-drain objectives not positive: %+v", st)
	}
	if len(st.Slowdowns) != len(inst.Coflows) {
		t.Fatalf("got %d slowdowns for %d coflows", len(st.Slowdowns), len(inst.Coflows))
	}
	for i, s := range st.Slowdowns {
		if s < 1-1e-9 {
			t.Errorf("slowdown %d = %v below 1 (faster than isolated bottleneck?)", i, s)
		}
	}
	if len(eng.Order()) != 0 {
		t.Errorf("residual order not empty after drain")
	}
	if _, ok := eng.CoflowStatus(len(inst.Coflows)); ok {
		t.Errorf("status for unknown coflow id")
	}
}

// orderChurn is the map-based definition of the churn metric, kept as the
// oracle for the engine's kept-count arithmetic: the fraction of refs in the larger order whose
// rank changed (including refs present in only one of the two).
func orderChurn(old, new []coflow.FlowRef) float64 {
	denom := len(old)
	if len(new) > denom {
		denom = len(new)
	}
	if denom == 0 {
		return 0
	}
	oldRank := make(map[coflow.FlowRef]int, len(old))
	for i, r := range old {
		oldRank[r] = i
	}
	changed := len(old) - len(new) // refs dropped entirely, when old is longer
	if changed < 0 {
		changed = 0
	}
	for i, r := range new {
		if rank, ok := oldRank[r]; !ok || rank != i {
			changed++
		}
	}
	return float64(changed) / float64(denom)
}

// churnEngine admits n single-flow coflows at time 0 on a line network with
// every release far in the future, so no flow runs and the engine's orders
// rank pending flows only: the flow of coflow c is FlowRef{Coflow: c}.
func churnEngine(t *testing.T, n int) *Engine {
	t.Helper()
	eng, err := NewEngine(graph.Line(2, 1), FIFOOnline{}, Config{EpochLength: 1})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	for c := 0; c < n; c++ {
		cf := coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: 0, Dest: 1, Size: 1, Release: 100}}}
		if _, err := eng.Admit(cf, 0); err != nil {
			t.Fatalf("admit %d: %v", c, err)
		}
	}
	return eng
}

// TestOrderChurn pins the churn metric the /v1/epochs introspection surface
// reports, on the engine (standing order old, then new applied) and on its
// oracle.
func TestOrderChurn(t *testing.T) {
	r := func(c int) coflow.FlowRef { return coflow.FlowRef{Coflow: c} }
	cases := []struct {
		name     string
		old, new []coflow.FlowRef
		want     float64
	}{
		{"both empty", nil, nil, 0},
		{"reconfirmed", []coflow.FlowRef{r(0), r(1)}, []coflow.FlowRef{r(0), r(1)}, 0},
		{"swap", []coflow.FlowRef{r(0), r(1)}, []coflow.FlowRef{r(1), r(0)}, 1},
		{"from empty", nil, []coflow.FlowRef{r(0), r(1)}, 1},
		{"all dropped", []coflow.FlowRef{r(0), r(1)}, nil, 1},
		{"tail shift", []coflow.FlowRef{r(0), r(1), r(2), r(3)}, []coflow.FlowRef{r(0), r(1), r(3), r(2)}, 0.5},
		{"head drop", []coflow.FlowRef{r(0), r(1), r(2), r(3)}, []coflow.FlowRef{r(1), r(2), r(3)}, 1},
		{"tail drop", []coflow.FlowRef{r(0), r(1), r(2), r(3)}, []coflow.FlowRef{r(0), r(1)}, 0.5},
		{"append", []coflow.FlowRef{r(0), r(1)}, []coflow.FlowRef{r(0), r(1), r(2), r(3)}, 0.5},
		// r(2) ranked at the old order's length as an unlisted flow: it did
		// not keep a place it never held.
		{"unlisted joins at the end", []coflow.FlowRef{r(0), r(1)}, []coflow.FlowRef{r(0), r(1), r(2)}, 1.0 / 3},
	}
	for _, tc := range cases {
		if got := orderChurn(tc.old, tc.new); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: orderChurn = %v, want %v", tc.name, got, tc.want)
		}
		eng := churnEngine(t, 4)
		if err := eng.ApplyOrder(tc.old, 0); err != nil {
			t.Fatalf("%s: apply old: %v", tc.name, err)
		}
		if err := eng.ApplyOrder(tc.new, 0); err != nil {
			t.Fatalf("%s: apply new: %v", tc.name, err)
		}
		if got := eng.OrderChurn(); got != orderChurn(tc.old, tc.new) {
			t.Errorf("%s: engine churn = %v, oracle %v", tc.name, got, orderChurn(tc.old, tc.new))
		}
	}
}

// TestApplyOrderOutsideInput feeds ApplyOrder the refs a replayed log can hold
// (coflowd recovers orders from disk): refs the engine does not track are
// dropped without a panic, and a duplicate is an error that leaves the
// standing order, its churn, the decision count and the next order's churn as
// they were.
func TestApplyOrderOutsideInput(t *testing.T) {
	r := func(c, i int) coflow.FlowRef { return coflow.FlowRef{Coflow: c, Index: i} }
	eng := churnEngine(t, 3)
	done := coflow.Coflow{Weight: 1, Flows: []coflow.Flow{{Source: 0, Dest: 1, Size: 1}, {Source: 0, Dest: 1, Size: 1}}}
	if _, err := eng.Admit(done, 0); err != nil { // coflow 3, done by t=2
		t.Fatalf("admit: %v", err)
	}
	if err := eng.ApplyOrder([]coflow.FlowRef{r(3, 0), r(3, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.CoflowStatus(3); !st.Done {
		t.Fatalf("coflow 3 not done at t=5: %+v", st)
	}
	standing := []coflow.FlowRef{r(2, 0), r(0, 0)}
	if err := eng.ApplyOrder(standing, 0); err != nil {
		t.Fatal(err)
	}

	junk := []coflow.FlowRef{
		r(-1, 0), r(0, -1), r(-5, -5), // negative coflow or index
		r(4, 0), r(1<<40, 0), // past the last admitted coflow
		r(1, 1), r(1, 1<<40), // past the coflow's flows
		r(3, 0), r(3, 1), // a completed coflow's flows
	}
	live := []coflow.FlowRef{r(1, 0), r(0, 0)}
	for i, j := range junk { // interleave the junk with the live refs
		order := append([]coflow.FlowRef{j}, live[:1]...)
		order = append(order, junk[:i]...)
		order = append(order, live[1:]...)
		if err := eng.ApplyOrder(order, 0); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got := eng.Order(); !slices.Equal(got, live) {
			t.Fatalf("order %v ranks %v, want %v", order, got, live)
		}
		prev := standing
		if i > 0 {
			prev = live
		}
		if got, want := eng.OrderChurn(), orderChurn(prev, live); got != want {
			t.Fatalf("order %v: churn %v, oracle %v", order, got, want)
		}
	}

	decisions := eng.Stats().Decisions
	churnBefore := eng.OrderChurn()
	for _, dup := range [][]coflow.FlowRef{
		{r(0, 0), r(1, 0), r(0, 0)},
		{r(2, 0), r(1, 0), r(0, 0), r(1, 0)},
		{r(2, 0), r(2, 0)},
	} {
		if err := eng.ApplyOrder(dup, 0); err == nil {
			t.Fatalf("order %v with a duplicate ref accepted", dup)
		}
		if got := eng.Order(); !slices.Equal(got, live) {
			t.Fatalf("rejected order %v changed the standing order to %v", dup, got)
		}
		if got := eng.OrderChurn(); got != churnBefore {
			t.Fatalf("rejected order %v changed the churn to %v", dup, got)
		}
		if got := eng.Stats().Decisions; got != decisions {
			t.Fatalf("rejected order %v counted as decision %d", dup, got)
		}
	}
	next := []coflow.FlowRef{r(1, 0), r(2, 0), r(0, 0)}
	if err := eng.ApplyOrder(next, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.OrderChurn(), orderChurn(live, next); got != want {
		t.Fatalf("churn after rejected orders %v, oracle %v", got, want)
	}
}

// TestEngineIntrospection covers the accessors the daemon's epoch ring is
// built from: Epoch, ActiveCounts, OrderChurn and TakeCompleted across a
// short admit/decide/advance lifetime.
func TestEngineIntrospection(t *testing.T) {
	inst, arrivals := engineWorkload(t, 11, 3)
	eng, err := NewEngine(inst.Network, SEBFOnline{}, Config{EpochLength: 1})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}

	if e := eng.Epoch(); e != 0 {
		t.Errorf("fresh engine Epoch = %d, want 0", e)
	}
	if c, f := eng.ActiveCounts(); c != 0 || f != 0 {
		t.Errorf("fresh engine ActiveCounts = %d, %d, want 0, 0", c, f)
	}
	if done := eng.TakeCompleted(); done != nil {
		t.Errorf("fresh engine TakeCompleted = %v, want nil", done)
	}
	if ch := eng.OrderChurn(); ch != 0 {
		t.Errorf("fresh engine OrderChurn = %v, want 0", ch)
	}

	wantFlows := 0
	for i := range inst.Coflows {
		if _, err := eng.Admit(relativeCoflow(inst.Coflows[i], arrivals[i]), 0); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		wantFlows += len(inst.Coflows[i].Flows)
	}
	if c, f := eng.ActiveCounts(); c != len(inst.Coflows) || f != wantFlows {
		t.Errorf("ActiveCounts after admits = %d, %d, want %d, %d", c, f, len(inst.Coflows), wantFlows)
	}

	// The first decision replaces the empty standing order wholesale.
	if err := eng.DecideSync(); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if ch := eng.OrderChurn(); ch != 1 {
		t.Errorf("OrderChurn after first decision = %v, want 1", ch)
	}

	// Run to completion, one epoch at a time; every coflow id must be
	// surfaced by TakeCompleted exactly once.
	seen := map[int]int{}
	now := 0.0
	for i := 0; !eng.Done() && i < 10000; i++ {
		now += 1
		if err := eng.AdvanceTo(now); err != nil {
			t.Fatalf("advance: %v", err)
		}
		if e := eng.Epoch(); e != i+1 {
			t.Errorf("Epoch after %d advances = %d", i+1, e)
		}
		for _, id := range eng.TakeCompleted() {
			seen[id]++
		}
	}
	if !eng.Done() {
		t.Fatal("engine never drained")
	}
	for i := range inst.Coflows {
		if seen[i] != 1 {
			t.Errorf("coflow %d surfaced %d times by TakeCompleted, want 1", i, seen[i])
		}
	}
	if c, f := eng.ActiveCounts(); c != 0 || f != 0 {
		t.Errorf("drained ActiveCounts = %d, %d, want 0, 0", c, f)
	}
	if done := eng.TakeCompleted(); done != nil {
		t.Errorf("second TakeCompleted = %v, want nil (log resets)", done)
	}
}
