package sim

import (
	"math"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// TestAddFlowFromEmpty builds a simulator over an instance with no flows and
// admits every flow through AddFlow, as the online serving engine does. After
// a full-order SetOrder the run must match a batch Run over the complete
// instance exactly.
func TestAddFlowFromEmpty(t *testing.T) {
	inst := stepInstance(t, 19)
	refs := inst.FlowRefs()

	want, err := Run(inst, Config{Order: refs, Policy: Priority})
	if err != nil {
		t.Fatalf("offline run: %v", err)
	}

	s, err := New(&coflow.Instance{Network: inst.Network}, Config{Policy: Priority})
	if err != nil {
		t.Fatalf("new empty simulator: %v", err)
	}
	if !s.Done() {
		t.Fatalf("empty simulator reports not done")
	}
	for _, ref := range refs {
		if err := s.AddFlow(ref, *inst.Flow(ref), nil); err != nil {
			t.Fatalf("add flow %s: %v", ref, err)
		}
	}
	if _, err := s.SetOrder(refs); err != nil {
		t.Fatalf("set order: %v", err)
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := s.Schedule()
	for _, ref := range refs {
		w, g := want.Get(ref).CompletionTime(), got.Get(ref).CompletionTime()
		if math.Abs(w-g) > 1e-9 {
			t.Errorf("flow %s: admitted completion %v, batch %v", ref, g, w)
		}
	}
	if err := got.Validate(inst); err != nil {
		t.Errorf("admitted schedule infeasible: %v", err)
	}
}

// TestAddFlowMidRun admits a flow while the simulation is already under way
// and checks conservation, completion reporting, and the rejection cases.
func TestAddFlowMidRun(t *testing.T) {
	g := graph.Line(3, 1)
	base := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{
			{Name: "a", Weight: 1, Flows: []coflow.Flow{{Source: 0, Dest: 1, Size: 4}}},
		},
	}
	if err := base.AssignShortestPaths(); err != nil {
		t.Fatalf("paths: %v", err)
	}
	s, err := New(base, Config{Order: base.FlowRefs(), Policy: Priority})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.RunUntil(2); err != nil {
		t.Fatalf("run until 2: %v", err)
	}

	// Admission in the simulator's past must be rejected.
	late := coflow.Flow{Source: 1, Dest: 2, Size: 1, Release: 1}
	if err := s.AddFlow(coflow.FlowRef{Coflow: 1, Index: 0}, late, g.ShortestPath(1, 2)); err == nil {
		t.Fatalf("AddFlow accepted a release in the past")
	}
	// Duplicate references must be rejected.
	dup := coflow.Flow{Source: 0, Dest: 1, Size: 1, Release: 3}
	if err := s.AddFlow(coflow.FlowRef{Coflow: 0, Index: 0}, dup, g.ShortestPath(0, 1)); err == nil {
		t.Fatalf("AddFlow accepted a duplicate flow reference")
	}
	// Pathless flows must be rejected.
	nopath := coflow.Flow{Source: 1, Dest: 2, Size: 1, Release: 3}
	if err := s.AddFlow(coflow.FlowRef{Coflow: 1, Index: 0}, nopath, nil); err == nil {
		t.Fatalf("AddFlow accepted a flow with no path")
	}

	// A valid mid-run admission: released strictly in the future.
	add := coflow.Flow{Source: 1, Dest: 2, Size: 3, Release: 5}
	ref := coflow.FlowRef{Coflow: 1, Index: 0}
	if err := s.AddFlow(ref, add, g.ShortestPath(1, 2)); err != nil {
		t.Fatalf("add flow: %v", err)
	}
	if s.Done() {
		t.Fatalf("simulator done with an unfinished admitted flow")
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run to completion: %v", err)
	}
	for _, fs := range s.Residuals() {
		if !fs.Done {
			t.Errorf("flow %s not done after RunUntil(+Inf)", fs.Ref)
		}
		if fs.Completion <= 0 {
			t.Errorf("flow %s reports completion %v", fs.Ref, fs.Completion)
		}
	}
	// The admitted flow starts at its release on an idle link: 5 + 3/1.
	cs := s.Schedule()
	if c := cs.Get(ref).CompletionTime(); math.Abs(c-8) > 1e-9 {
		t.Errorf("admitted flow completed at %v, want 8", c)
	}
	if d := cs.Get(ref).Delivered(); math.Abs(d-add.Size) > 1e-9 {
		t.Errorf("admitted flow delivered %v of %v", d, add.Size)
	}
}

// TestForget checks pruning of finished coflows: rejected while a flow of the
// coflow is unfinished or for an unknown coflow, the whole row removed from
// every view once done, with the rest of the run unaffected.
func TestForget(t *testing.T) {
	g := graph.Line(3, 1)
	inst := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{
			{Name: "a", Weight: 1, Flows: []coflow.Flow{
				{Source: 0, Dest: 1, Size: 2},
				{Source: 0, Dest: 1, Size: 1},
			}},
			{Name: "b", Weight: 1, Flows: []coflow.Flow{{Source: 1, Dest: 2, Size: 6}}},
		},
	}
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatalf("paths: %v", err)
	}
	refs := inst.FlowRefs()
	s, err := New(inst, Config{Order: refs, Policy: Priority})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// Coflow a's flows share link 0-1 at rate 1 in turn: (0,0) finishes at
	// t=2, (0,1) at t=3.
	if err := s.RunUntil(2.5); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fs, ok := s.Status(refs[0]); !ok || !fs.Done {
		t.Fatalf("flow %s not done at t=2.5: %+v", refs[0], fs)
	}
	if err := s.ForgetCoflow(0); err == nil {
		t.Fatalf("ForgetCoflow accepted a coflow with an unfinished flow")
	}
	if _, ok := s.Status(refs[0]); !ok {
		t.Fatalf("a rejected ForgetCoflow dropped a finished flow")
	}
	for _, id := range []int{-1, 2, 9} {
		if err := s.ForgetCoflow(id); err == nil {
			t.Fatalf("ForgetCoflow accepted unknown coflow %d", id)
		}
	}
	if err := s.RunUntil(3.5); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := s.ForgetCoflow(0); err != nil {
		t.Fatalf("forget: %v", err)
	}
	for _, r := range refs[:2] {
		if _, ok := s.Status(r); ok {
			t.Errorf("forgotten flow %s still visible in Status", r)
		}
		if s.FlowSchedule(r) != nil {
			t.Errorf("forgotten flow %s still has a schedule", r)
		}
	}
	if err := s.ForgetCoflow(0); err == nil {
		t.Errorf("ForgetCoflow forgot coflow 0 twice")
	}
	if len(s.Residuals()) != 1 {
		t.Errorf("Residuals reports %d flows, want 1", len(s.Residuals()))
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run to completion: %v", err)
	}
	if !s.Done() {
		t.Fatalf("not done after completion with a forgotten coflow")
	}
	if fs, _ := s.Status(refs[2]); math.Abs(fs.Completion-6) > 1e-9 {
		t.Errorf("surviving flow completed at %v, want 6", fs.Completion)
	}
}

// TestResidualsCompletionMatchesSchedule cross-checks the cheap per-flow
// completion times surfaced by Residuals against the authoritative schedule
// reconstruction.
func TestResidualsCompletionMatchesSchedule(t *testing.T) {
	inst := stepInstance(t, 23)
	s, err := New(inst, Config{Order: inst.FlowRefs(), Policy: Priority})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run: %v", err)
	}
	completion := s.Schedule().CompletionTimes()
	for _, fs := range s.Residuals() {
		if want := completion[fs.Ref]; math.Abs(fs.Completion-want) > 1e-9 {
			t.Errorf("flow %s: Residuals completion %v, schedule %v", fs.Ref, fs.Completion, want)
		}
	}
}

// TestRemovePendingFlow checks the admission-rollback primitive: adding and
// removing a pending flow leaves the simulator's observable state unchanged,
// and removal of released/unknown flows is rejected.
func TestRemovePendingFlow(t *testing.T) {
	g := graph.Line(4, 1)
	inst := diffInstance(t, g, 7, 4, 3)
	s, err := New(inst, Config{Order: inst.FlowRefs(), Policy: Priority})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// Advance until at least one flow has been released.
	for tEnd := 1.0; ; tEnd *= 2 {
		if err := s.RunUntil(tEnd); err != nil {
			t.Fatalf("run: %v", err)
		}
		released := false
		for _, st := range s.registered() {
			if st.active || st.done {
				released = true
				break
			}
		}
		if released {
			break
		}
		if tEnd > 1e6 {
			t.Fatalf("no flow ever released")
		}
	}
	before := s.Residuals()
	ref := coflow.FlowRef{Coflow: 900, Index: 0}
	f := coflow.Flow{Source: 0, Dest: 3, Size: 5, Release: s.Now() + 1}
	path := g.ShortestPath(0, 3)
	if err := s.AddFlow(ref, f, path); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := s.Remove(ref); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, ok := s.Status(ref); ok {
		t.Fatalf("removed flow still registered")
	}
	after := s.Residuals()
	if len(after) != len(before) {
		t.Fatalf("residual count changed: %d != %d", len(after), len(before))
	}
	for i := range before {
		b, a := before[i], after[i]
		if b.Ref != a.Ref || b.Remaining != a.Remaining || b.Done != a.Done || b.Completion != a.Completion {
			t.Fatalf("flow %s state changed across add+remove", b.Ref)
		}
	}
	if err := s.Remove(ref); err == nil {
		t.Fatalf("removing unknown flow succeeded")
	}
	// A released (active or done) flow must be rejected.
	released := coflow.FlowRef{Coflow: -1}
	for _, st := range s.registered() {
		if st.active || st.done {
			released = st.ref
			break
		}
	}
	if released.Coflow == -1 {
		t.Fatalf("no released flow to probe")
	}
	if err := s.Remove(released); err == nil {
		t.Fatalf("removing released flow succeeded")
	}
	// The simulator still runs to completion afterwards.
	if err := s.RunUntil(math.Inf(1)); err != nil {
		t.Fatalf("run to completion: %v", err)
	}
	if !s.Done() {
		t.Fatalf("simulation did not finish")
	}
}
