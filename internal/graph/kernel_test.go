package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomMultigraph builds a seeded directed multigraph with parallel edges,
// one-way links and (at low density) unreachable pairs.
func randomMultigraph(rng *rand.Rand, n, m int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%d", i), KindHost)
	}
	for i := 0; i < m; i++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		g.AddEdge(a, b, 1+float64(rng.Intn(3)))
		if rng.Intn(4) == 0 { // parallel edge
			g.AddEdge(a, b, 1)
		}
		if rng.Intn(2) == 0 { // reverse direction
			g.AddEdge(b, a, 1)
		}
	}
	return g
}

// assertSamePaths compares the kernel with the reference for one query:
// identical path lists, in order, nil-ness included.
func assertSamePaths(t *testing.T, g *Graph, label string, src, dst NodeID, k int) {
	t.Helper()
	got, want := g.KShortestPaths(src, dst, k), g.refKShortestPaths(src, dst, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: KShortestPaths(%d,%d,%d)\n got %v\nwant %v", label, src, dst, k, got, want)
	}
	sp := g.ShortestPath(src, dst)
	if ref := g.refShortestPathWeighted(src, dst, func(EdgeID) float64 { return 1 }); !reflect.DeepEqual(sp, ref) {
		t.Fatalf("%s: ShortestPath(%d,%d) = %v, reference %v", label, src, dst, sp, ref)
	}
	if got := g.Reachable(src, dst); got != (sp != nil) {
		t.Fatalf("%s: Reachable(%d,%d) = %v but ShortestPath = %v", label, src, dst, got, sp)
	}
}

// TestKShortestPathsMatchesReference is the differential test behind the
// kernel rewrite: every query returns what the retained reference returns.
func TestKShortestPathsMatchesReference(t *testing.T) {
	t.Run("fattree4-all-node-pairs", func(t *testing.T) {
		g := FatTree(4, 1)
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				for k := 1; k <= 6; k++ {
					assertSamePaths(t, g, "fattree4", NodeID(src), NodeID(dst), k)
				}
			}
		}
	})
	t.Run("fattree8-sampled", func(t *testing.T) {
		g := FatTree(8, 1)
		rng := rand.New(rand.NewSource(8))
		pairs := 3000
		if testing.Short() {
			pairs = 300
		}
		for i := 0; i < pairs; i++ {
			src, dst := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
			assertSamePaths(t, g, "fattree8", src, dst, 1+i%6)
		}
	})
	t.Run("line", func(t *testing.T) {
		g := Line(6, 1)
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				assertSamePaths(t, g, "line", NodeID(src), NodeID(dst), 1+(src+dst)%6)
			}
		}
	})
	t.Run("random-multigraphs", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(12)
			g := randomMultigraph(rng, n, n+rng.Intn(3*n))
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					assertSamePaths(t, g, fmt.Sprintf("seed %d", seed), NodeID(src), NodeID(dst), 1+rng.Intn(6))
				}
			}
		}
	})
}

// TestWidestPathMatchesReference: flow decomposition (and through it every
// rounded LP schedule) is pinned to the widest path's tie-breaking too.
func TestWidestPathMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := randomMultigraph(rng, n, 2*n+rng.Intn(2*n))
		widths := make([]float64, g.NumEdges())
		for i := range widths {
			widths[i] = float64(rng.Intn(4)) * 0.25 // few distinct values, zeros included: many ties
		}
		width := func(e EdgeID) float64 { return widths[e] }
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				got, want := g.WidestPath(NodeID(src), NodeID(dst), width), g.refWidestPath(NodeID(src), NodeID(dst), width)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: WidestPath(%d,%d) = %v, reference %v", seed, src, dst, got, want)
				}
			}
		}
	}
}

// TestHopSearchStopsAtFirstRelaxation pins where a search ends. From a host of
// FatTree(8), 112 of the 128 hosts are six hops away. A search that ran until
// dst settled reached all 208 nodes first; one that returns at dst's first
// relaxation stops while dst's edge switch is being expanded.
func TestHopSearchStopsAtFirstRelaxation(t *testing.T) {
	g := FatTree(8, 1)
	hosts := g.Hosts()
	src := hosts[0]
	s := g.getPathScratch()
	for _, tc := range []struct {
		name string
		dst  NodeID
		seen int
	}{
		{"other-pod", hosts[len(hosts)-1], 124},
		{"same-pod", hosts[len(hosts)/8-1], 53},
	} {
		s.next()
		if !s.hopSearch(g, src, tc.dst) {
			t.Fatalf("%s: dst unreachable", tc.name)
		}
		seen := 0
		for _, n := range s.nodes {
			if n.seen == s.gen {
				seen++
			}
		}
		if seen != tc.seen {
			t.Errorf("%s: search reached %d of %d nodes, want %d", tc.name, seen, g.NumNodes(), tc.seen)
		}
		if got, want := s.appendPath(g, Path{}, src, tc.dst), g.refShortestPathWeighted(src, tc.dst, func(EdgeID) float64 { return 1 }); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: path %v, reference %v", tc.name, got, want)
		}
	}
}

// TestCutOffRefusesOnlyUnreachable holds the spur refusal to the reference:
// whenever cutOff says no edge into dst can be taken, the reference search
// under the same blocked edges and nodes finds no path. On a fat-tree it
// refuses a host whose one edge in is blocked, or whose edge switch is, but
// not one whose edge switch has lost only a way in.
func TestCutOffRefusesOnlyUnreachable(t *testing.T) {
	refused := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randomMultigraph(rng, n, n+rng.Intn(2*n))
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		s := g.getPathScratch()
		s.next()
		noEdge, noNode := map[EdgeID]bool{}, map[NodeID]bool{}
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(2) == 0 {
				s.noEdge[e], noEdge[EdgeID(e)] = s.gen, true
			}
		}
		for v := NodeID(0); int(v) < n; v++ {
			if v != src && v != dst && rng.Intn(3) == 0 {
				s.nodes[v].noNode, noNode[v] = s.gen, true
			}
		}
		if !s.cutOff(g, dst) {
			continue
		}
		refused++
		if p := g.refShortestPathWeighted(src, dst, func(e EdgeID) float64 {
			if noEdge[e] || noNode[g.Edge(e).To] {
				return math.Inf(1)
			}
			return 1
		}); p != nil {
			t.Fatalf("seed %d: cutOff refused %d -> %d, which the reference reaches by %v", seed, src, dst, p)
		}
	}
	if refused == 0 {
		t.Fatal("no random blocking cut dst off: the check above never ran")
	}

	g := FatTree(8, 1)
	dst := g.Hosts()[5]
	in := g.In(dst)[0]
	edge := g.Edge(in).From
	s := g.getPathScratch()
	s.next()
	if s.cutOff(g, dst) {
		t.Fatal("nothing blocked, yet dst is cut off")
	}
	s.noEdge[g.In(edge)[0]] = s.gen // a way into the edge switch, not into dst
	if s.cutOff(g, dst) {
		t.Fatal("dst is cut off by a block one hop before its edge in")
	}
	s.noEdge[in] = s.gen
	if !s.cutOff(g, dst) {
		t.Fatal("dst's one edge in is blocked, but cutOff lets the spur search run")
	}
	s.next()
	s.nodes[edge].noNode = s.gen
	if !s.cutOff(g, dst) {
		t.Fatal("dst's edge switch is blocked, but cutOff lets the spur search run")
	}
}

// FuzzKShortestPaths decodes a multigraph and a query from the input and
// compares the kernel with the reference.
func FuzzKShortestPaths(f *testing.F) {
	f.Add([]byte{5, 0, 4, 3, 0, 1, 1, 2, 2, 4, 0, 3, 3, 4, 0, 1, 1, 4})
	f.Add([]byte{3, 0, 2, 6, 0, 1, 0, 1, 1, 2, 1, 2, 2, 0})
	f.Add([]byte{4, 1, 1, 2, 0, 1})
	// dst 4 has one edge in, so every spur at 3 is cut off; then the same with
	// a parallel edge into dst, which cutOff must not refuse; then dst with
	// edges in from every node of a root path.
	f.Add([]byte{3, 0, 4, 3, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4})
	f.Add([]byte{3, 0, 4, 3, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 3, 4})
	f.Add([]byte{3, 0, 4, 5, 0, 1, 1, 2, 2, 3, 0, 4, 1, 4, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		src, dst, k := NodeID(int(data[1])%n), NodeID(int(data[2])%n), 1+int(data[3])%6
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode("", KindHost)
		}
		edges := data[4:]
		if len(edges) > 120 { // Yen's loop is superlinear in the path count
			edges = edges[:120]
		}
		for i := 0; i+1 < len(edges); i += 2 {
			if a, b := NodeID(int(edges[i])%n), NodeID(int(edges[i+1])%n); a != b {
				g.AddEdge(a, b, 1)
			}
		}
		assertSamePaths(t, g, "fuzz", src, dst, k)
	})
}

// TestKShortestPathsAllocs pins the kernel's allocation contract: on a warm
// scratch a search allocates the path list and one slice per returned path,
// nothing else. It holds the scratch itself because sync.Pool may drop one at
// any time (and under -race does so at random).
func TestKShortestPathsAllocs(t *testing.T) {
	g := FatTree(8, 1)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	s := g.getPathScratch()
	paths := s.kShortestPaths(g, src, dst, 8) // grows the heap and candidate arenas
	if len(paths) != 8 {
		t.Fatalf("got %d paths, want 8", len(paths))
	}
	if got, want := testing.AllocsPerRun(100, func() { s.kShortestPaths(g, src, dst, 8) }), float64(len(paths)+1); got != want {
		t.Errorf("%v allocs per miss, want %v", got, want)
	}
	g.KShortestPathsCached(src, dst, 8)
	if got := testing.AllocsPerRun(100, func() { g.KShortestPathsCached(src, dst, 8) }); got != 0 {
		t.Errorf("memo hit: %v allocs, want 0", got)
	}
}

// TestPathMemoBound pins the memo's two sizing promises: a k=4 fat-tree's
// 240 host pairs all stay resident (a second lookup returns the same backing
// slice), and no number of distinct pairs leaves more than the cap behind.
func TestPathMemoBound(t *testing.T) {
	g := FatTree(4, 1)
	hosts := g.Hosts()
	first := map[[2]NodeID][]Path{}
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				first[[2]NodeID{a, b}] = g.KShortestPathsCached(a, b, 4)
			}
		}
	}
	if len(first) != 240 {
		t.Fatalf("k=4 fat-tree has %d host pairs, want 240", len(first))
	}
	for pair, paths := range first {
		if again := g.KShortestPathsCached(pair[0], pair[1], 4); &again[0] != &paths[0] {
			t.Fatalf("pair %v was evicted: the k=4 working set must stay resident", pair)
		}
	}

	g = FatTree(8, 1)
	hosts = g.Hosts()
	distinct := 0
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b && distinct < 3000 {
				g.KShortestPathsCached(a, b, 4)
				distinct++
			}
		}
	}
	g.kspMu.RLock()
	resident := len(g.kspMemo)
	g.kspMu.RUnlock()
	if resident > kspMemoCap || resident == 0 {
		t.Fatalf("%d entries resident after %d distinct pairs, want 1..%d", resident, distinct, kspMemoCap)
	}
}

// TestPathMemoConcurrent hammers one graph's memo and scratch pool from
// several goroutines over more distinct pairs than the memo holds, so misses,
// duplicate insertions and clears interleave. Run under -race.
func TestPathMemoConcurrent(t *testing.T) {
	g := FatTree(8, 1)
	hosts := g.Hosts()
	want := map[[2]NodeID][]Path{}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if i != j {
				want[[2]NodeID{hosts[i], hosts[j]}] = g.KShortestPaths(hosts[i], hosts[j], 3)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 1500; n++ {
				a, b := hosts[rng.Intn(40)], hosts[rng.Intn(40)]
				if a == b {
					continue
				}
				if got := g.KShortestPathsCached(a, b, 3); !reflect.DeepEqual(got, want[[2]NodeID{a, b}]) {
					t.Errorf("worker %d: (%d,%d) = %v, want %v", w, a, b, got, want[[2]NodeID{a, b}])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

var benchPaths []Path

// BenchmarkKShortestPaths measures one candidate-set lookup on the two
// fat-trees the repository serves: miss is the search itself (uncached, warm
// scratch), hit is the memo.
func BenchmarkKShortestPaths(b *testing.B) {
	for _, k := range []int{4, 8} {
		g := FatTree(k, 1)
		hosts := g.Hosts()
		b.Run(fmt.Sprintf("k%d/miss", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPaths = g.KShortestPaths(hosts[i%len(hosts)], hosts[(i+len(hosts)/2)%len(hosts)], 4)
			}
		})
		b.Run(fmt.Sprintf("k%d/hit", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := range hosts { // fill the memo: the timed loop must not miss
				g.KShortestPathsCached(hosts[i], hosts[(i+len(hosts)/2)%len(hosts)], 4)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPaths = g.KShortestPathsCached(hosts[i%len(hosts)], hosts[(i+len(hosts)/2)%len(hosts)], 4)
			}
		})
	}
}
