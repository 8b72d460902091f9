package coflow

import (
	"testing"

	"coflowsched/internal/graph"
)

// packetInstance builds a small packet-based instance on a 4-node line:
// two packets from h0 to h2 (coflow P) and one from h1 to h3 (coflow Q).
func packetInstance(t *testing.T) *Instance {
	t.Helper()
	g := graph.Line(4, 1)
	h := g.Hosts()
	inst := &Instance{
		Network: g,
		Coflows: []Coflow{
			{Name: "P", Weight: 1, Flows: []Flow{
				{Source: h[0], Dest: h[2], Size: 1},
				{Source: h[0], Dest: h[2], Size: 1},
			}},
			{Name: "Q", Weight: 3, Flows: []Flow{
				{Source: h[1], Dest: h[3], Size: 1, Release: 1},
			}},
		},
	}
	if err := inst.Validate(true); err != nil {
		t.Fatalf("packet instance invalid: %v", err)
	}
	return inst
}

// edgeBetween finds the directed edge from a to b.
func edgeBetween(t *testing.T, g *graph.Graph, a, b graph.NodeID) graph.EdgeID {
	t.Helper()
	for _, eid := range g.Out(a) {
		if g.Edge(eid).To == b {
			return eid
		}
	}
	t.Fatalf("no edge %d->%d", a, b)
	return -1
}

func TestPacketScheduleValidAndObjective(t *testing.T) {
	inst := packetInstance(t)
	g := inst.Network
	h := g.Hosts()
	e01 := edgeBetween(t, g, h[0], h[1])
	e12 := edgeBetween(t, g, h[1], h[2])
	e23 := edgeBetween(t, g, h[2], h[3])

	ps := NewPacketSchedule()
	// Packet (0,0): moves at steps 0 and 1.
	ps.Set(FlowRef{0, 0}, &PacketFlowSchedule{Moves: []PacketMove{{0, e01}, {1, e12}}})
	// Packet (0,1): must wait one step at h0 because e01 is busy at step 0.
	ps.Set(FlowRef{0, 1}, &PacketFlowSchedule{Moves: []PacketMove{{1, e01}, {2, e12}}})
	// Packet (1,0): released at 1, uses e12 at step 3 (after (0,1) clears it) and e23 at 4.
	ps.Set(FlowRef{1, 0}, &PacketFlowSchedule{Moves: []PacketMove{{3, e12}, {4, e23}}})

	if err := ps.Validate(inst); err != nil {
		t.Fatalf("schedule should be valid: %v", err)
	}
	// Completion: coflow P = max(2, 3) = 3; coflow Q = 5. Objective = 1*3 + 3*5 = 18.
	if got := ps.Objective(inst); got != 18 {
		t.Errorf("objective = %v, want 18", got)
	}
	if ps.Makespan() != 5 {
		t.Errorf("makespan = %v, want 5", ps.Makespan())
	}
	if ps.Get(FlowRef{0, 0}).CompletionTime() != 2 {
		t.Errorf("packet completion = %v, want 2", ps.Get(FlowRef{0, 0}).CompletionTime())
	}
}

func TestPacketScheduleValidateCatchesViolations(t *testing.T) {
	inst := packetInstance(t)
	g := inst.Network
	h := g.Hosts()
	e01 := edgeBetween(t, g, h[0], h[1])
	e12 := edgeBetween(t, g, h[1], h[2])
	e23 := edgeBetween(t, g, h[2], h[3])

	valid := func() *PacketSchedule {
		ps := NewPacketSchedule()
		ps.Set(FlowRef{0, 0}, &PacketFlowSchedule{Moves: []PacketMove{{0, e01}, {1, e12}}})
		ps.Set(FlowRef{0, 1}, &PacketFlowSchedule{Moves: []PacketMove{{1, e01}, {2, e12}}})
		ps.Set(FlowRef{1, 0}, &PacketFlowSchedule{Moves: []PacketMove{{3, e12}, {4, e23}}})
		return ps
	}
	if err := valid().Validate(inst); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}

	t.Run("missing packet", func(t *testing.T) {
		ps := valid()
		delete(ps.Flows, FlowRef{0, 1})
		if ps.Validate(inst) == nil {
			t.Error("expected error")
		}
	})
	t.Run("empty moves", func(t *testing.T) {
		ps := valid()
		ps.Set(FlowRef{0, 1}, &PacketFlowSchedule{})
		if ps.Validate(inst) == nil {
			t.Error("expected error")
		}
	})
	t.Run("before release", func(t *testing.T) {
		ps := valid()
		ps.Set(FlowRef{1, 0}, &PacketFlowSchedule{Moves: []PacketMove{{0, e12}, {4, e23}}})
		if ps.Validate(inst) == nil {
			t.Error("expected error")
		}
	})
	t.Run("edge collision", func(t *testing.T) {
		ps := valid()
		ps.Set(FlowRef{0, 1}, &PacketFlowSchedule{Moves: []PacketMove{{0, e01}, {2, e12}}})
		if ps.Validate(inst) == nil {
			t.Error("expected error")
		}
	})
	t.Run("non-increasing times", func(t *testing.T) {
		ps := valid()
		ps.Set(FlowRef{0, 1}, &PacketFlowSchedule{Moves: []PacketMove{{1, e01}, {1, e12}}})
		if ps.Validate(inst) == nil {
			t.Error("expected error")
		}
	})
	t.Run("wrong destination", func(t *testing.T) {
		ps := valid()
		ps.Set(FlowRef{0, 1}, &PacketFlowSchedule{Moves: []PacketMove{{1, e01}}})
		if ps.Validate(inst) == nil {
			t.Error("expected error")
		}
	})
	t.Run("assigned path violated", func(t *testing.T) {
		inst2 := packetInstance(t)
		// Pin packet (0,0) to the 2-hop path and schedule it on a different
		// (here impossible, so reuse same edges but longer) walk.
		inst2.Coflows[0].Flows[0].Path = graph.Path{e01, e12}
		ps := valid()
		e10 := edgeBetween(t, g, h[1], h[0])
		ps.Set(FlowRef{0, 0}, &PacketFlowSchedule{Moves: []PacketMove{{0, e01}, {1, e10}, {2, e01}, {3, e12}}})
		if ps.Validate(inst2) == nil {
			t.Error("expected error for deviating from the assigned path")
		}
	})
}
