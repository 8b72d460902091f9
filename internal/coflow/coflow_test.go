package coflow

import (
	"math"
	"testing"

	"coflowsched/internal/graph"
)

// twoCoflowInstance builds a small instance on the triangle network used by
// several tests: coflow A with two flows, coflow B with one.
func twoCoflowInstance(t *testing.T) *Instance {
	t.Helper()
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	z, _ := g.FindNode("z")
	inst := &Instance{
		Network: g,
		Coflows: []Coflow{
			{Name: "A", Weight: 1, Flows: []Flow{
				{Source: x, Dest: y, Size: 2},
				{Source: y, Dest: z, Size: 1},
			}},
			{Name: "B", Weight: 2, Flows: []Flow{
				{Source: x, Dest: z, Size: 1, Release: 0.5},
			}},
		},
	}
	if err := inst.Validate(false); err != nil {
		t.Fatalf("instance invalid: %v", err)
	}
	return inst
}

func TestInstanceAccessors(t *testing.T) {
	inst := twoCoflowInstance(t)
	if inst.NumFlows() != 3 {
		t.Errorf("NumFlows = %d, want 3", inst.NumFlows())
	}
	refs := inst.FlowRefs()
	if len(refs) != 3 || refs[0] != (FlowRef{0, 0}) || refs[2] != (FlowRef{1, 0}) {
		t.Errorf("FlowRefs = %v", refs)
	}
	if inst.MaxRelease() != 0.5 {
		t.Errorf("MaxRelease = %v, want 0.5", inst.MaxRelease())
	}
	if inst.TotalSize() != 4 {
		t.Errorf("TotalSize = %v, want 4", inst.TotalSize())
	}
	if inst.HasPaths() {
		t.Errorf("HasPaths should be false before assignment")
	}
	if inst.TimeHorizon() < 4.5 {
		t.Errorf("TimeHorizon = %v, want >= 4.5", inst.TimeHorizon())
	}
	if got := inst.Flow(FlowRef{0, 1}).Size; got != 1 {
		t.Errorf("Flow(0,1).Size = %v, want 1", got)
	}
	if (FlowRef{1, 0}).String() != "c1.f0" {
		t.Errorf("FlowRef.String = %q", FlowRef{1, 0}.String())
	}
}

func TestAssignShortestPaths(t *testing.T) {
	inst := twoCoflowInstance(t)
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatalf("AssignShortestPaths: %v", err)
	}
	if !inst.HasPaths() {
		t.Errorf("HasPaths should be true after assignment")
	}
	for _, ref := range inst.FlowRefs() {
		f := inst.Flow(ref)
		if err := f.Path.Validate(inst.Network, f.Source, f.Dest); err != nil {
			t.Errorf("flow %s path invalid: %v", ref, err)
		}
		if len(f.Path) != 1 {
			t.Errorf("triangle paths should be direct, got %d hops", len(f.Path))
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	inst := twoCoflowInstance(t)
	_ = inst.AssignShortestPaths()
	clone := inst.Clone()
	clone.Coflows[0].Flows[0].Size = 99
	clone.Coflows[0].Flows[0].Path[0] = graph.EdgeID(5)
	if inst.Coflows[0].Flows[0].Size == 99 {
		t.Errorf("Clone shares flow slices")
	}
	if inst.Coflows[0].Flows[0].Path[0] == graph.EdgeID(5) {
		t.Errorf("Clone shares path slices")
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	valid := func() *Instance {
		return &Instance{Network: g, Coflows: []Coflow{{Weight: 1, Flows: []Flow{{Source: x, Dest: y, Size: 1}}}}}
	}
	cases := map[string]func() *Instance{
		"no network": func() *Instance { i := valid(); i.Network = nil; return i },
		"no coflows": func() *Instance { i := valid(); i.Coflows = nil; return i },
		"no flows":   func() *Instance { i := valid(); i.Coflows[0].Flows = nil; return i },
		"neg weight": func() *Instance { i := valid(); i.Coflows[0].Weight = -1; return i },
		"bad source": func() *Instance {
			i := valid()
			i.Coflows[0].Flows[0].Source = 99
			return i
		},
		"src==dst": func() *Instance {
			i := valid()
			i.Coflows[0].Flows[0].Dest = x
			return i
		},
		"zero size": func() *Instance { i := valid(); i.Coflows[0].Flows[0].Size = 0; return i },
		"nan size":  func() *Instance { i := valid(); i.Coflows[0].Flows[0].Size = math.NaN(); return i },
		"neg release": func() *Instance {
			i := valid()
			i.Coflows[0].Flows[0].Release = -1
			return i
		},
		"inf release": func() *Instance {
			i := valid()
			i.Coflows[0].Flows[0].Release = math.Inf(1)
			return i
		},
		"bad path": func() *Instance {
			i := valid()
			i.Coflows[0].Flows[0].Path = graph.Path{graph.EdgeID(3)} // wrong edge
			return i
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			if err := build().Validate(false); err == nil {
				t.Errorf("Validate accepted a bad instance (%s)", name)
			}
		})
	}
	if err := valid().Validate(false); err != nil {
		t.Errorf("Validate rejected a good instance: %v", err)
	}
}

func TestValidatePacketModel(t *testing.T) {
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	inst := &Instance{Network: g, Coflows: []Coflow{{Weight: 1, Flows: []Flow{{Source: x, Dest: y, Size: 2}}}}}
	if err := inst.Validate(true); err == nil {
		t.Errorf("packet validation should reject size != 1")
	}
	inst.Coflows[0].Flows[0].Size = 1
	if err := inst.Validate(true); err != nil {
		t.Errorf("packet validation rejected size-1 flow: %v", err)
	}
}

func TestValidateUnreachable(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", graph.KindHost)
	b := g.AddNode("b", graph.KindHost)
	c := g.AddNode("c", graph.KindHost)
	g.AddEdge(a, b, 1)
	inst := &Instance{Network: g, Coflows: []Coflow{{Weight: 1, Flows: []Flow{{Source: a, Dest: c, Size: 1}}}}}
	if err := inst.Validate(false); err == nil {
		t.Errorf("Validate should reject unreachable destination")
	}
}

func TestObjectiveFromCompletionTimes(t *testing.T) {
	inst := twoCoflowInstance(t)
	completion := map[FlowRef]float64{
		{0, 0}: 2, {0, 1}: 4, // coflow A completes at 4
		{1, 0}: 3, // coflow B completes at 3
	}
	// objective = 1*4 + 2*3 = 10.
	if got := inst.ObjectiveFromCompletionTimes(completion); got != 10 {
		t.Errorf("objective = %v, want 10", got)
	}
	cct := inst.CoflowCompletionTimes(completion)
	if cct[0] != 4 || cct[1] != 3 {
		t.Errorf("coflow completion times = %v, want [4 3]", cct)
	}
	if got := totalWeightedCompletion(inst, completion); got != 10 {
		t.Errorf("helper objective = %v, want 10", got)
	}
}

// totalWeightedCompletion is the objective recomputed from scratch with an
// explicit max.
func totalWeightedCompletion(inst *Instance, completion map[FlowRef]float64) float64 {
	total := 0.0
	for i, cf := range inst.Coflows {
		cmax := math.Inf(-1)
		for j := range cf.Flows {
			if c := completion[FlowRef{i, j}]; c > cmax {
				cmax = c
			}
		}
		if math.IsInf(cmax, -1) {
			cmax = 0
		}
		total += cf.Weight * cmax
	}
	return total
}
