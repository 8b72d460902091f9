package sim

import (
	"math"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// figure1Instance reproduces the paper's Figure 1 instance (coflow A with
// flows of size 2 and 1, coflows B and C with one flow each) on the triangle
// network, with shortest (direct) paths assigned.
func figure1Instance(t *testing.T) *coflow.Instance {
	t.Helper()
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	z, _ := g.FindNode("z")
	inst := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{
			{Name: "A", Weight: 1, Flows: []coflow.Flow{
				{Source: x, Dest: y, Size: 2},
				{Source: y, Dest: z, Size: 1},
			}},
			{Name: "B", Weight: 1, Flows: []coflow.Flow{{Source: y, Dest: z, Size: 1}}},
			{Name: "C", Weight: 1, Flows: []coflow.Flow{{Source: x, Dest: z, Size: 2}}},
		},
	}
	if err := inst.Validate(false); err != nil {
		t.Fatalf("invalid instance: %v", err)
	}
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatalf("paths: %v", err)
	}
	return inst
}

func defaultOrder(inst *coflow.Instance) []coflow.FlowRef { return inst.FlowRefs() }

// registered lists the flow table's states in reference order.
func (s *Simulator) registered() []*flowState {
	var out []*flowState
	s.each(func(st *flowState) { out = append(out, st) })
	return out
}

func TestRunPriorityProducesValidSchedule(t *testing.T) {
	inst := figure1Instance(t)
	cs, err := Run(inst, Config{Order: defaultOrder(inst), Policy: Priority})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cs.Validate(inst); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// With coflow-order priorities A1,A2,B,C: A finishes at 2 (A1 at 2, A2 at
	// 1), B waits for A2's edge and finishes at 2, C shares no edge and runs
	// immediately, finishing at 2. Objective = 2 + 2 + 2 = 6.
	if got := cs.Objective(inst); math.Abs(got-6) > 1e-6 {
		t.Errorf("objective = %v, want 6", got)
	}
}

func TestRunFairShareMatchesFigure1S1(t *testing.T) {
	inst := figure1Instance(t)
	cs, err := Run(inst, Config{Policy: FairShare})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cs.Validate(inst); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// Max-min fair sharing on the triangle: A2 and B share edge y->z at rate
	// 1/2 each; A1 and C have their edges to themselves... but fair share is
	// global per edge, so A1 and C run at rate 1 and finish at 2; A2 and B
	// finish at 2 as well. Objective = 2+2+2 = 6. The paper's (s1) instead
	// fixes every rate to 1/2 which is not max-min fair; we only require the
	// schedule to be feasible and no better than optimal (6 is optimal here).
	if got := cs.Objective(inst); got < 6-1e-6 {
		t.Errorf("objective = %v below optimal 6", got)
	}
}

func TestRunRespectsReleaseTimes(t *testing.T) {
	g := graph.Line(2, 1)
	h := g.Hosts()
	inst := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{
			{Name: "late", Weight: 1, Flows: []coflow.Flow{{Source: h[0], Dest: h[1], Size: 1, Release: 5}}},
		},
	}
	_ = inst.AssignShortestPaths()
	cs, err := Run(inst, Config{Order: defaultOrder(inst), Policy: Priority})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cs.Validate(inst); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if got := cs.Objective(inst); math.Abs(got-6) > 1e-9 {
		t.Errorf("completion = %v, want 6 (release 5 + size 1)", got)
	}
}

func TestRunPriorityOrderMatters(t *testing.T) {
	// Two coflows share one unit link; sizes 4 and 1, unit weights.
	// Serving the small one first gives 1 + 5 = 6; big first gives 4 + 5 = 9.
	g := graph.Line(2, 1)
	h := g.Hosts()
	inst := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{
			{Name: "big", Weight: 1, Flows: []coflow.Flow{{Source: h[0], Dest: h[1], Size: 4}}},
			{Name: "small", Weight: 1, Flows: []coflow.Flow{{Source: h[0], Dest: h[1], Size: 1}}},
		},
	}
	_ = inst.AssignShortestPaths()
	bigFirst := []coflow.FlowRef{{Coflow: 0, Index: 0}, {Coflow: 1, Index: 0}}
	smallFirst := []coflow.FlowRef{{Coflow: 1, Index: 0}, {Coflow: 0, Index: 0}}

	csBig, err := Run(inst, Config{Order: bigFirst, Policy: Priority})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	csSmall, err := Run(inst, Config{Order: smallFirst, Policy: Priority})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := csBig.Validate(inst); err != nil {
		t.Fatalf("big-first invalid: %v", err)
	}
	if err := csSmall.Validate(inst); err != nil {
		t.Fatalf("small-first invalid: %v", err)
	}
	if got := csBig.Objective(inst); math.Abs(got-9) > 1e-6 {
		t.Errorf("big-first objective = %v, want 9", got)
	}
	if got := csSmall.Objective(inst); math.Abs(got-6) > 1e-6 {
		t.Errorf("small-first objective = %v, want 6", got)
	}
}

func TestRunCustomPathsOverride(t *testing.T) {
	// Force a flow onto a two-hop route even though a direct edge exists.
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	z, _ := g.FindNode("z")
	inst := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{{Name: "A", Weight: 1, Flows: []coflow.Flow{{Source: x, Dest: z, Size: 1}}}},
	}
	_ = inst.AssignShortestPaths()
	var xy, yz graph.EdgeID = -1, -1
	for _, e := range g.Out(x) {
		if g.Edge(e).To == y {
			xy = e
		}
	}
	for _, e := range g.Out(y) {
		if g.Edge(e).To == z {
			yz = e
		}
	}
	ref := coflow.FlowRef{Coflow: 0, Index: 0}
	cs, err := Run(inst, Config{
		Order:  []coflow.FlowRef{ref},
		Paths:  map[coflow.FlowRef]graph.Path{ref: {xy, yz}},
		Policy: Priority,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cs.Validate(inst); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(cs.Get(ref).Path) != 2 {
		t.Errorf("override path not used")
	}
}

func TestRunErrors(t *testing.T) {
	inst := figure1Instance(t)
	t.Run("short order", func(t *testing.T) {
		if _, err := Run(inst, Config{Order: inst.FlowRefs()[:1], Policy: Priority}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("duplicate in order", func(t *testing.T) {
		refs := inst.FlowRefs()
		refs[1] = refs[0]
		if _, err := Run(inst, Config{Order: refs, Policy: Priority}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("missing path", func(t *testing.T) {
		bad := figure1Instance(t)
		bad.Coflows[0].Flows[0].Path = nil
		if _, err := Run(bad, Config{Order: bad.FlowRefs(), Policy: Priority}); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("bad override path", func(t *testing.T) {
		refs := inst.FlowRefs()
		paths := map[coflow.FlowRef]graph.Path{refs[0]: {graph.EdgeID(5)}}
		if _, err := Run(inst, Config{Order: refs, Paths: paths, Policy: Priority}); err == nil {
			t.Error("expected error")
		}
	})
}

func TestRunManyFlowsContention(t *testing.T) {
	// A star network where every host sends to host 0 through the switch:
	// the shared link into h0 serializes everything under priority order.
	g := graph.Star(5, 1)
	h := g.Hosts()
	inst := &coflow.Instance{Network: g}
	for i := 1; i < len(h); i++ {
		inst.Coflows = append(inst.Coflows, coflow.Coflow{
			Name:   "c",
			Weight: 1,
			Flows:  []coflow.Flow{{Source: h[i], Dest: h[0], Size: 1}},
		})
	}
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatal(err)
	}
	cs, err := Run(inst, Config{Order: inst.FlowRefs(), Policy: Priority})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cs.Validate(inst); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Serialized completions 1,2,3,4: objective 10, makespan 4.
	if got := cs.Objective(inst); math.Abs(got-10) > 1e-6 {
		t.Errorf("objective = %v, want 10", got)
	}
	if got := cs.Makespan(); math.Abs(got-4) > 1e-6 {
		t.Errorf("makespan = %v, want 4", got)
	}
	// Fair sharing the bottleneck link gives everyone rate 1/4 initially; all
	// finish later than serialized average but makespan stays 4.
	fair, err := Run(inst, Config{Policy: FairShare})
	if err != nil {
		t.Fatalf("Run fair: %v", err)
	}
	if err := fair.Validate(inst); err != nil {
		t.Fatalf("fair invalid: %v", err)
	}
	if got := fair.Makespan(); math.Abs(got-4) > 1e-6 {
		t.Errorf("fair makespan = %v, want 4", got)
	}
	if !(fair.Objective(inst) >= cs.Objective(inst)-1e-6) {
		t.Errorf("fair sharing (%v) should not beat shortest-first priority (%v) here",
			fair.Objective(inst), cs.Objective(inst))
	}
}
