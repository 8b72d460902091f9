package graph

import (
	"strings"
	"testing"
)

func TestAddNodesAndEdges(t *testing.T) {
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	e := g.AddEdge(a, b, 2.5)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts = (%d,%d), want (2,1)", g.NumNodes(), g.NumEdges())
	}
	edge := g.Edge(e)
	if edge.From != a || edge.To != b || edge.Capacity != 2.5 {
		t.Errorf("edge = %+v", edge)
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 || len(g.Out(b)) != 0 {
		t.Errorf("adjacency wrong: out(a)=%v in(b)=%v out(b)=%v", g.Out(a), g.In(b), g.Out(b))
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	for name, fn := range map[string]func(){
		"zero capacity":  func() { g.AddEdge(a, b, 0) },
		"negative cap":   func() { g.AddEdge(a, b, -1) },
		"bad endpoint":   func() { g.AddEdge(a, NodeID(99), 1) },
		"negative nodes": func() { g.AddEdge(NodeID(-1), b, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestBidirectional(t *testing.T) {
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	e1, e2 := g.AddBidirectional(a, b, 3)
	if g.Edge(e1).From != a || g.Edge(e2).From != b {
		t.Errorf("bidirectional edges wrong: %+v %+v", g.Edge(e1), g.Edge(e2))
	}
}

func TestHostsAndFindNode(t *testing.T) {
	g := Star(4, 1)
	hosts := g.Hosts()
	if len(hosts) != 4 {
		t.Fatalf("hosts = %d, want 4", len(hosts))
	}
	id, ok := g.FindNode("h2")
	if !ok {
		t.Fatalf("FindNode(h2) not found")
	}
	if g.Node(id).Name != "h2" {
		t.Errorf("FindNode returned wrong node %v", g.Node(id))
	}
	if _, ok := g.FindNode("nope"); ok {
		t.Errorf("FindNode(nope) should fail")
	}
}

func TestMinCapacity(t *testing.T) {
	g := New()
	if g.MinCapacity() != 0 {
		t.Errorf("empty graph MinCapacity = %v, want 0", g.MinCapacity())
	}
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	g.AddEdge(a, b, 5)
	g.AddEdge(b, a, 2)
	if g.MinCapacity() != 2 {
		t.Errorf("MinCapacity = %v, want 2", g.MinCapacity())
	}
}

func TestPathValidateAndNodes(t *testing.T) {
	g := Line(4, 1)
	src, _ := g.FindNode("h0")
	dst, _ := g.FindNode("h3")
	p := g.ShortestPath(src, dst)
	if p == nil {
		t.Fatal("no path found on line graph")
	}
	if err := p.Validate(g, src, dst); err != nil {
		t.Errorf("Validate: %v", err)
	}
	nodes := p.Nodes(g)
	if len(nodes) != len(p)+1 || nodes[0] != src || nodes[len(nodes)-1] != dst {
		t.Errorf("Nodes() = %v", nodes)
	}
	if err := p.Validate(g, dst, src); err == nil {
		t.Errorf("Validate with swapped endpoints should fail")
	}
	var empty Path
	if err := empty.Validate(g, src, src); err != nil {
		t.Errorf("empty path src==dst should validate: %v", err)
	}
	if err := empty.Validate(g, src, dst); err == nil {
		t.Errorf("empty path src!=dst should fail")
	}
}

func TestPathMinCapacity(t *testing.T) {
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	c := g.AddNode("c", KindHost)
	e1 := g.AddEdge(a, b, 5)
	e2 := g.AddEdge(b, c, 2)
	p := Path{e1, e2}
	if p.MinCapacity(g) != 2 {
		t.Errorf("MinCapacity = %v, want 2", p.MinCapacity(g))
	}
	var empty Path
	if empty.MinCapacity(g) != 0 {
		t.Errorf("empty MinCapacity = %v, want 0", empty.MinCapacity(g))
	}
}

func TestReachable(t *testing.T) {
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	c := g.AddNode("c", KindHost)
	g.AddEdge(a, b, 1)
	if !g.Reachable(a, b) || g.Reachable(b, a) {
		t.Errorf("reachability wrong for a->b")
	}
	if g.Reachable(a, c) {
		t.Errorf("c should be unreachable")
	}
	if !g.Reachable(a, a) {
		t.Errorf("node should reach itself")
	}
}

func TestTriangleTopology(t *testing.T) {
	g := Triangle()
	if g.NumNodes() != 3 || g.NumEdges() != 6 {
		t.Fatalf("triangle: %d nodes %d edges, want 3, 6", g.NumNodes(), g.NumEdges())
	}
	if !g.StronglyConnectedHosts() {
		t.Errorf("triangle should be strongly connected")
	}
	if g.MinCapacity() != 1 {
		t.Errorf("triangle capacities should be 1")
	}
}

func TestLineRingStarGrid(t *testing.T) {
	if g := Line(5, 2); g.NumNodes() != 5 || g.NumEdges() != 8 {
		t.Errorf("line(5): %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g := Ring(5, 1); g.NumNodes() != 5 || g.NumEdges() != 10 {
		t.Errorf("ring(5): %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g := Star(6, 1); len(g.Hosts()) != 6 || g.NumEdges() != 12 {
		t.Errorf("star(6): %d hosts %d edges", len(g.Hosts()), g.NumEdges())
	}
	g := Grid(3, 4, 1)
	if g.NumNodes() != 12 {
		t.Errorf("grid(3,4): %d nodes", g.NumNodes())
	}
	// Grid edges: horizontal 3*3=9, vertical 2*4=8, each bidirectional.
	if g.NumEdges() != 2*(9+8) {
		t.Errorf("grid(3,4): %d edges, want %d", g.NumEdges(), 2*(9+8))
	}
	if !g.StronglyConnectedHosts() {
		t.Errorf("grid should be strongly connected")
	}
}

func TestTopologyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"line too small": func() { Line(1, 1) },
		"ring too small": func() { Ring(2, 1) },
		"star too small": func() { Star(1, 1) },
		"grid too small": func() { Grid(1, 1, 1) },
		"fattree odd":    func() { FatTree(3, 1) },
		"fattree small":  func() { FatTree(0, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		g := FatTree(k, 1)
		wantHosts := NumFatTreeHosts(k)
		if got := len(g.Hosts()); got != wantHosts {
			t.Errorf("FatTree(%d): %d hosts, want %d", k, got, wantHosts)
		}
		// Switches: k^2/4 core + k*k/2 agg + k*k/2 edge.
		wantNodes := wantHosts + k*k/4 + k*k
		if g.NumNodes() != wantNodes {
			t.Errorf("FatTree(%d): %d nodes, want %d", k, g.NumNodes(), wantNodes)
		}
		// Links: hosts k^3/4, edge-agg k*(k/2)^2, agg-core k*(k/2)^2; doubled
		// for direction.
		wantEdges := 2 * (wantHosts + k*(k/2)*(k/2)*2)
		if g.NumEdges() != wantEdges {
			t.Errorf("FatTree(%d): %d edges, want %d", k, g.NumEdges(), wantEdges)
		}
		if !g.StronglyConnectedHosts() {
			t.Errorf("FatTree(%d) should be strongly connected", k)
		}
	}
}

func TestFatTreePathsExist(t *testing.T) {
	g := FatTree(4, 1)
	hosts := g.Hosts()
	p := g.ShortestPath(hosts[0], hosts[len(hosts)-1])
	if p == nil {
		t.Fatal("no path across fat-tree")
	}
	// Cross-pod paths in a fat-tree have exactly 6 hops
	// (host-edge-agg-core-agg-edge-host).
	if len(p) != 6 {
		t.Errorf("cross-pod path length = %d, want 6", len(p))
	}
	// Same-rack paths have 2 hops.
	p2 := g.ShortestPath(hosts[0], hosts[1])
	if len(p2) != 2 {
		t.Errorf("same-rack path length = %d, want 2", len(p2))
	}
}

func TestGraphString(t *testing.T) {
	g := FatTree(2, 1)
	s := g.String()
	for _, want := range []string{"nodes", "edges", "host", "core"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if NodeKind(99).String() != "unknown" {
		t.Errorf("unexpected NodeKind string")
	}
}
