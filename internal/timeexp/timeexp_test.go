package timeexp

import (
	"testing"

	"coflowsched/internal/graph"
)

func lineGraph(t *testing.T) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	g := graph.Line(4, 1)
	return g, g.Hosts()
}

func TestNewPanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(graph.Triangle(), 0)
}

func TestEarliestArrivalUnobstructed(t *testing.T) {
	g, h := lineGraph(t)
	te := New(g, 10)
	moves := te.EarliestArrival(h[0], h[3], 0, nil)
	if len(moves) != 3 {
		t.Fatalf("moves = %v, want 3 hops", moves)
	}
	for i, m := range moves {
		if m.Time != i {
			t.Errorf("move %d at time %d, want %d", i, m.Time, i)
		}
	}
	p := CollapseMoves(moves)
	if err := p.Validate(g, h[0], h[3]); err != nil {
		t.Errorf("collapsed path invalid: %v", err)
	}
	// Start offset shifts everything.
	moves = te.EarliestArrival(h[0], h[3], 4, nil)
	if len(moves) != 3 || moves[0].Time != 4 {
		t.Errorf("delayed start moves = %v", moves)
	}
	// src == dst gives an empty schedule.
	if got := te.EarliestArrival(h[0], h[0], 0, nil); got == nil || len(got) != 0 {
		t.Errorf("self arrival = %v, want empty", got)
	}
}

func TestEarliestArrivalWaitsForOccupiedSlots(t *testing.T) {
	g, h := lineGraph(t)
	te := New(g, 10)
	var firstEdge graph.EdgeID = -1
	for _, e := range g.Out(h[0]) {
		if g.Edge(e).To == h[1] {
			firstEdge = e
		}
	}
	// The first edge is busy at steps 0 and 1: the packet must wait at its
	// source and arrive two steps later than unobstructed.
	occupied := func(e graph.EdgeID, t int) bool { return e == firstEdge && t < 2 }
	moves := te.EarliestArrival(h[0], h[3], 0, occupied)
	if len(moves) != 3 {
		t.Fatalf("moves = %v", moves)
	}
	if moves[0].Time != 2 || moves[2].Time != 4 {
		t.Errorf("expected departure at 2 and arrival after step 4, got %v", moves)
	}
}

func TestEarliestArrivalRoutesAroundCongestion(t *testing.T) {
	// Triangle: direct edge x->z blocked forever; the packet must go via y.
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	z, _ := g.FindNode("z")
	var direct graph.EdgeID = -1
	for _, e := range g.Out(x) {
		if g.Edge(e).To == z {
			direct = e
		}
	}
	te := New(g, 10)
	moves := te.EarliestArrival(x, z, 0, func(e graph.EdgeID, t int) bool { return e == direct })
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want 2-hop detour", moves)
	}
	path := CollapseMoves(moves)
	nodes := path.Nodes(g)
	if nodes[1] != y {
		t.Errorf("detour should pass through y, got %v", nodes)
	}
}

func TestEarliestArrivalUnreachable(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", graph.KindHost)
	b := g.AddNode("b", graph.KindHost)
	c := g.AddNode("c", graph.KindHost)
	g.AddEdge(a, b, 1)
	te := New(g, 5)
	if moves := te.EarliestArrival(a, c, 0, nil); moves != nil {
		t.Errorf("unreachable destination should return nil, got %v", moves)
	}
	// Horizon too small: a 1-hop move cannot happen if start is at the horizon.
	if moves := te.EarliestArrival(a, b, 5, nil); moves != nil {
		t.Errorf("start at horizon should return nil, got %v", moves)
	}
	// Everything occupied: unreachable.
	if moves := te.EarliestArrival(a, b, 0, func(graph.EdgeID, int) bool { return true }); moves != nil {
		t.Errorf("fully occupied network should return nil, got %v", moves)
	}
}
