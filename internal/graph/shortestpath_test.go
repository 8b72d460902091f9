package graph

import (
	"testing"
)

func TestShortestPathBasics(t *testing.T) {
	g := Ring(6, 1)
	h := g.Hosts()
	p := g.ShortestPath(h[0], h[2])
	if p == nil || len(p) != 2 {
		t.Fatalf("shortest path h0->h2 on ring(6) = %v, want 2 hops", p)
	}
	if err := p.Validate(g, h[0], h[2]); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Same node: empty path.
	if p := g.ShortestPath(h[0], h[0]); len(p) != 0 || p == nil {
		t.Errorf("self path = %v, want empty non-nil", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	c := g.AddNode("c", KindHost)
	g.AddEdge(a, b, 1)
	if p := g.ShortestPath(a, c); p != nil {
		t.Errorf("path to unreachable node = %v, want nil", p)
	}
}

// TestShortestPathWeighted checks the weighted search of the retained
// reference (reference_test.go); the library itself only searches by hops.
func TestShortestPathWeighted(t *testing.T) {
	// Two routes a->c: direct with weight 10, via b with weight 2+2.
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	c := g.AddNode("c", KindHost)
	direct := g.AddEdge(a, c, 1)
	ab := g.AddEdge(a, b, 1)
	bc := g.AddEdge(b, c, 1)
	weights := map[EdgeID]float64{direct: 10, ab: 2, bc: 2}
	p := g.refShortestPathWeighted(a, c, func(e EdgeID) float64 { return weights[e] })
	if len(p) != 2 || p[0] != ab || p[1] != bc {
		t.Errorf("weighted path = %v, want via b", p)
	}
	// With uniform weights the direct edge wins.
	p2 := g.ShortestPath(a, c)
	if len(p2) != 1 || p2[0] != direct {
		t.Errorf("hop-count path = %v, want direct", p2)
	}
}

func TestWidestPath(t *testing.T) {
	// a->c direct capacity 1; a->b->c capacity 5 each. Widest picks the
	// two-hop route.
	g := New()
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	c := g.AddNode("c", KindHost)
	direct := g.AddEdge(a, c, 1)
	ab := g.AddEdge(a, b, 5)
	bc := g.AddEdge(b, c, 5)
	p := g.WidestPath(a, c, g.Capacity)
	if len(p) != 2 || p[0] != ab || p[1] != bc {
		t.Errorf("widest path = %v, want [%d %d]", p, ab, bc)
	}
	// When widths tie, the fewer-hop path wins.
	weights := map[EdgeID]float64{direct: 5, ab: 5, bc: 5}
	p2 := g.WidestPath(a, c, func(e EdgeID) float64 { return weights[e] })
	if len(p2) != 1 || p2[0] != direct {
		t.Errorf("tie-break path = %v, want direct", p2)
	}
	// Zero-width edges are unusable.
	p3 := g.WidestPath(a, c, func(e EdgeID) float64 { return 0 })
	if p3 != nil {
		t.Errorf("widest path over zero widths = %v, want nil", p3)
	}
	// Self path.
	if p := g.WidestPath(a, a, g.Capacity); p == nil || len(p) != 0 {
		t.Errorf("self widest path = %v, want empty", p)
	}
}

func TestKShortestPaths(t *testing.T) {
	// Fat-tree has multiple equal-cost paths between cross-pod hosts.
	g := FatTree(4, 1)
	h := g.Hosts()
	src, dst := h[0], h[len(h)-1]
	paths := g.KShortestPaths(src, dst, 4)
	if len(paths) < 2 {
		t.Fatalf("expected at least 2 paths in fat-tree, got %d", len(paths))
	}
	for i, p := range paths {
		if err := p.Validate(g, src, dst); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
	}
	// Paths must be distinct.
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			same := len(paths[i]) == len(paths[j])
			if same {
				for k := range paths[i] {
					if paths[i][k] != paths[j][k] {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
	if got := g.KShortestPaths(src, dst, 0); got != nil {
		t.Errorf("k=0 should return nil")
	}
	// Unreachable destination.
	iso := g.AddNode("isolated", KindHost)
	if got := g.KShortestPaths(src, iso, 3); got != nil {
		t.Errorf("unreachable should return nil, got %v", got)
	}
}

func TestKShortestPathsLineOnlyOnePath(t *testing.T) {
	g := Line(4, 1)
	h := g.Hosts()
	paths := g.KShortestPaths(h[0], h[3], 5)
	if len(paths) != 1 {
		t.Errorf("line graph has exactly one simple path, got %d", len(paths))
	}
}

// TestKShortestPathsCached checks memoized results match the uncached search
// and that mutation invalidates the memo.
func TestKShortestPathsCached(t *testing.T) {
	g := FatTree(4, 1.0)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	want := g.KShortestPaths(src, dst, 4)
	got := g.KShortestPathsCached(src, dst, 4)
	if len(got) != len(want) {
		t.Fatalf("cached returned %d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("path %d differs in length", i)
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("path %d edge %d differs", i, j)
			}
		}
	}
	// Second call returns the identical shared slice.
	again := g.KShortestPathsCached(src, dst, 4)
	if len(again) > 0 && len(got) > 0 && &again[0] != &got[0] {
		t.Fatalf("cache miss on repeat lookup")
	}
	// Mutation drops the memo.
	n := g.AddNode("extra", KindHost)
	g.AddEdge(n, src, 1.0)
	fresh := g.KShortestPathsCached(src, dst, 4)
	if len(fresh) != len(want) {
		t.Fatalf("post-mutation lookup returned %d paths, want %d", len(fresh), len(want))
	}
}
