package sim

import (
	"math"
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// stepInstance builds a small random fat-tree instance with staggered
// releases, shortest paths assigned.
func stepInstance(t *testing.T, seed int64) *coflow.Instance {
	t.Helper()
	g := graph.FatTree(4, 1)
	rng := rand.New(rand.NewSource(seed))
	inst, err := workload.GenerateWithPaths(g, workload.Config{
		NumCoflows: 4, Width: 3, MeanSize: 4, MeanRelease: 3,
	}, rng)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return inst
}

// TestRunUntilEquivalence checks that advancing the simulator in many small
// steps produces exactly the schedule a single Run call produces, as long as
// the order is not changed between steps.
func TestRunUntilEquivalence(t *testing.T) {
	inst := stepInstance(t, 7)
	order := inst.FlowRefs()

	want, err := Run(inst, Config{Order: order, Policy: Priority})
	if err != nil {
		t.Fatalf("offline run: %v", err)
	}

	s, err := New(inst, Config{Order: order, Policy: Priority})
	if err != nil {
		t.Fatalf("new simulator: %v", err)
	}
	horizon := inst.TimeHorizon()
	step := horizon / 37 // deliberately not aligned with any event
	for until := step; !s.Done(); until += step {
		if err := s.RunUntil(until); err != nil {
			t.Fatalf("run until %v: %v", until, err)
		}
		if until > 10*horizon {
			t.Fatalf("simulation did not finish within 10x the horizon")
		}
	}
	got := s.Schedule()

	for _, ref := range inst.FlowRefs() {
		w, g := want.Get(ref).CompletionTime(), got.Get(ref).CompletionTime()
		if math.Abs(w-g) > 1e-9 {
			t.Errorf("flow %s: stepped completion %v, offline %v", ref, g, w)
		}
	}
	if w, g := want.Objective(inst), got.Objective(inst); math.Abs(w-g) > 1e-6 {
		t.Errorf("objective: stepped %v, offline %v", g, w)
	}
	if err := got.Validate(inst); err != nil {
		t.Errorf("stepped schedule infeasible: %v", err)
	}
}

// TestRunUntilBoundary checks that RunUntil stops exactly at the boundary and
// neither loses nor double-counts volume across it.
func TestRunUntilBoundary(t *testing.T) {
	inst := stepInstance(t, 11)
	order := inst.FlowRefs()
	s, err := New(inst, Config{Order: order, Policy: Priority})
	if err != nil {
		t.Fatalf("new simulator: %v", err)
	}
	boundary := inst.TimeHorizon() / 3
	if err := s.RunUntil(boundary); err != nil {
		t.Fatalf("run until: %v", err)
	}
	if s.Now() > boundary+1e-12 {
		t.Fatalf("simulator overshot boundary: now=%v boundary=%v", s.Now(), boundary)
	}
	for _, fs := range s.Residuals() {
		if fs.Remaining < -1e-9 || fs.Remaining > fs.Size+1e-9 {
			t.Errorf("flow %s: remaining %v outside [0, %v]", fs.Ref, fs.Remaining, fs.Size)
		}
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run to completion: %v", err)
	}
	if !s.Done() {
		t.Fatalf("simulator not done after RunUntil(+Inf)")
	}
	// Conservation: every flow delivered exactly its size.
	cs := s.Schedule()
	for _, ref := range inst.FlowRefs() {
		delivered := cs.Get(ref).Delivered()
		size := inst.Flow(ref).Size
		if math.Abs(delivered-size) > 1e-6*size {
			t.Errorf("flow %s delivered %v of %v", ref, delivered, size)
		}
	}
}

// TestSetOrderBetweenSteps re-prioritizes mid-run and checks the result is
// still a feasible, volume-conserving schedule.
func TestSetOrderBetweenSteps(t *testing.T) {
	inst := stepInstance(t, 13)
	refs := inst.FlowRefs()
	s, err := New(inst, Config{Order: refs, Policy: Priority})
	if err != nil {
		t.Fatalf("new simulator: %v", err)
	}
	horizon := inst.TimeHorizon()
	step := horizon / 8
	flip := false
	for until := step; !s.Done(); until += step {
		// Alternate between forward and reversed order each step.
		order := append([]coflow.FlowRef(nil), refs...)
		if flip {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		flip = !flip
		if _, err := s.SetOrder(order); err != nil {
			t.Fatalf("set order: %v", err)
		}
		if err := s.RunUntil(until); err != nil {
			t.Fatalf("run until %v: %v", until, err)
		}
		if until > 20*horizon {
			t.Fatalf("simulation did not finish")
		}
	}
	cs := s.Schedule()
	if err := cs.Validate(inst); err != nil {
		t.Fatalf("schedule with mid-run re-ordering infeasible: %v", err)
	}
}

// TestPartialOrder checks that New accepts a partial priority order and ranks
// unlisted flows last.
func TestPartialOrder(t *testing.T) {
	inst := stepInstance(t, 17)
	refs := inst.FlowRefs()
	partial := refs[:len(refs)/2]
	s, err := New(inst, Config{Order: partial, Policy: Priority})
	if err != nil {
		t.Fatalf("new simulator with partial order: %v", err)
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := s.Schedule().Validate(inst); err != nil {
		t.Fatalf("schedule from partial order infeasible: %v", err)
	}

	// Run still insists on a complete order.
	if _, err := Run(inst, Config{Order: partial, Policy: Priority}); err == nil {
		t.Fatalf("Run accepted a partial priority order")
	}
	// Duplicates are rejected.
	bad := append([]coflow.FlowRef(nil), refs...)
	bad[1] = bad[0]
	if _, err := New(inst, Config{Order: bad, Policy: Priority}); err == nil {
		t.Fatalf("New accepted a duplicated priority order")
	}
}

// TestReleaseHeap exercises the typed release min-heap directly: ordering by
// (time, reference) and batch-draining of equal release times, which is how
// the event loop guarantees no event time is processed twice even though
// many flows may share it.
func TestReleaseHeap(t *testing.T) {
	var h releaseHeap
	mk := func(t float64, cf, idx int) *flowState {
		return &flowState{ref: coflow.FlowRef{Coflow: cf, Index: idx}, release: t}
	}
	in := []*flowState{mk(5, 0, 0), mk(1, 2, 0), mk(1, 0, 1), mk(1, 0, 0), mk(9, 1, 0), mk(0.25, 3, 3), mk(1, 1, 2)}
	for _, st := range in {
		h.Push(st)
	}
	var got []*flowState
	prev := math.Inf(-1)
	for h.Len() > 0 {
		if h.Peek().release != h.PeekTime() {
			t.Fatalf("peek mismatch")
		}
		st := h.Pop()
		if st.release < prev {
			t.Fatalf("heap popped %v after %v", st.release, prev)
		}
		prev = st.release
		got = append(got, st)
	}
	if len(got) != len(in) {
		t.Fatalf("popped %d entries, pushed %d", len(got), len(in))
	}
	// The four equal-time entries must come out contiguously in reference
	// order, ready to drain as one event batch.
	wantRefs := []coflow.FlowRef{{Coflow: 0, Index: 0}, {Coflow: 0, Index: 1}, {Coflow: 1, Index: 2}, {Coflow: 2, Index: 0}}
	for i, want := range wantRefs {
		if got[1+i].ref != want {
			t.Errorf("equal-time pop %d = %v, want %v", i, got[1+i].ref, want)
		}
	}
}

// TestReferenceEventHeapDedup checks the reference simulator's event heap
// drops duplicate-time pushes on Pop — the fix for the old design where New
// deduped release times through a fragile map[float64]bool and AddFlow could
// still enqueue duplicates.
func TestReferenceEventHeapDedup(t *testing.T) {
	var h refEventHeap
	for _, v := range []float64{3, 1, 3, 1, 1, 2, 3, 0.5} {
		h.Push(v)
	}
	var got []float64
	for h.Len() > 0 {
		got = append(got, h.Pop())
	}
	want := []float64{0.5, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

// TestDuplicateReleaseTimesSimulate checks end-to-end that many flows
// sharing one release time (plus an AddFlow duplicating an existing event
// time) simulate correctly: one event batch, every flow served.
func TestDuplicateReleaseTimesSimulate(t *testing.T) {
	g := graph.Star(5, 1)
	h := g.Hosts()
	inst := &coflow.Instance{Network: g}
	for i := 1; i < len(h); i++ {
		inst.Coflows = append(inst.Coflows, coflow.Coflow{
			Name: "dup", Weight: 1,
			Flows: []coflow.Flow{{Source: h[i], Dest: h[0], Size: 2, Release: 3}},
		})
	}
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatal(err)
	}
	s, err := New(inst, Config{Order: inst.FlowRefs(), Policy: Priority})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// Admit one more flow at the exact same release time mid-setup.
	add := coflow.Flow{Source: h[0], Dest: h[1], Size: 1, Release: 3}
	ref := coflow.FlowRef{Coflow: len(inst.Coflows), Index: 0}
	if err := s.AddFlow(ref, add, g.ShortestPath(h[0], h[1])); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Shared link into h0 serializes the four size-2 flows: 5, 7, 9, 11.
	// The added flow runs on the disjoint h0->h1 direction: 3 + 1.
	wantTimes := []float64{5, 7, 9, 11}
	for i, want := range wantTimes {
		fs, ok := s.Status(coflow.FlowRef{Coflow: i, Index: 0})
		if !ok || !fs.Done {
			t.Fatalf("flow %d not done", i)
		}
		if math.Abs(fs.Completion-want) > 1e-9 {
			t.Errorf("flow %d completed at %v, want %v", i, fs.Completion, want)
		}
	}
	if fs, _ := s.Status(ref); math.Abs(fs.Completion-4) > 1e-9 {
		t.Errorf("added flow completed at %v, want 4", fs.Completion)
	}
}
