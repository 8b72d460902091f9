package graph

// The path searches as they stood before the pooled kernel of
// shortestpath.go, kept verbatim (names prefixed ref) as the oracle for the
// differential tests and FuzzKShortestPaths in kernel_test.go: container/heap
// over pointer items, per-call dist/prev/visited slices, blocked-edge and
// blocked-node maps behind a +Inf weight closure. Every schedule, golden and
// exact benchmark metric in the repository is pinned to the path lists this
// code returns, in this order; do not "fix" or tidy it.

import (
	"container/heap"
	"math"
)

// refNodeItem is a priority queue entry used by the Dijkstra variants.
type refNodeItem struct {
	node NodeID
	prio float64
	idx  int
}

type refNodePQ struct {
	items []*refNodeItem
	less  func(a, b float64) bool
}

func (pq *refNodePQ) Len() int           { return len(pq.items) }
func (pq *refNodePQ) Less(i, j int) bool { return pq.less(pq.items[i].prio, pq.items[j].prio) }
func (pq *refNodePQ) Swap(i, j int) {
	pq.items[i], pq.items[j] = pq.items[j], pq.items[i]
	pq.items[i].idx = i
	pq.items[j].idx = j
}
func (pq *refNodePQ) Push(x any) {
	it := x.(*refNodeItem)
	it.idx = len(pq.items)
	pq.items = append(pq.items, it)
}
func (pq *refNodePQ) Pop() any {
	old := pq.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	pq.items = old[:n-1]
	return it
}

func (g *Graph) refShortestPathWeighted(src, dst NodeID, weight func(EdgeID) float64) Path {
	if src == dst {
		return Path{}
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prevEdge := make([]EdgeID, n)
	visited := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0

	pq := &refNodePQ{less: func(a, b float64) bool { return a < b }}
	heap.Push(pq, &refNodeItem{node: src, prio: 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*refNodeItem)
		v := it.node
		if visited[v] {
			continue
		}
		visited[v] = true
		if v == dst {
			break
		}
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			w := weight(eid)
			if w < 0 {
				w = 0
			}
			nd := dist[v] + w
			if nd < dist[e.To] {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				heap.Push(pq, &refNodeItem{node: e.To, prio: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	return g.refTracePath(src, dst, prevEdge)
}

// refWidestPath returns a path from src to dst maximizing the bottleneck value
// of width(edge); ties are broken toward fewer hops. It returns nil if dst is
// unreachable or every path has zero (or negative) bottleneck width. This is
// the "thickest path" routine used by flow decomposition (§4.2 of the paper).
func (g *Graph) refWidestPath(src, dst NodeID, width func(EdgeID) float64) Path {
	if src == dst {
		return Path{}
	}
	n := g.NumNodes()
	best := make([]float64, n)
	hops := make([]int, n)
	prevEdge := make([]EdgeID, n)
	visited := make([]bool, n)
	for i := range best {
		best[i] = math.Inf(-1)
		prevEdge[i] = -1
		hops[i] = math.MaxInt32
	}
	best[src] = math.Inf(1)
	hops[src] = 0

	pq := &refNodePQ{less: func(a, b float64) bool { return a > b }} // max-heap on bottleneck
	heap.Push(pq, &refNodeItem{node: src, prio: best[src]})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*refNodeItem)
		v := it.node
		if visited[v] {
			continue
		}
		visited[v] = true
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			w := width(eid)
			if w <= 0 {
				continue
			}
			bottleneck := math.Min(best[v], w)
			if bottleneck > best[e.To]+1e-15 ||
				(bottleneck > best[e.To]-1e-15 && hops[v]+1 < hops[e.To]) {
				best[e.To] = bottleneck
				hops[e.To] = hops[v] + 1
				prevEdge[e.To] = eid
				heap.Push(pq, &refNodeItem{node: e.To, prio: bottleneck})
			}
		}
	}
	if math.IsInf(best[dst], -1) || best[dst] <= 0 {
		return nil
	}
	return g.refTracePath(src, dst, prevEdge)
}

// refKShortestPaths returns up to k loop-free minimum-hop paths from src to dst
// using a simple Yen-like expansion on the hop metric. It is used by the
// Route-only baseline to pick among candidate paths for load balancing.
func (g *Graph) refKShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first := g.refShortestPathWeighted(src, dst, func(EdgeID) float64 { return 1 })
	if first == nil {
		return nil
	}
	paths := []Path{first}
	candidates := []Path{}
	for len(paths) < k {
		last := paths[len(paths)-1]
		lastNodes := last.Nodes(g)
		for spur := 0; spur < len(last); spur++ {
			// Block the edges used at this spur position by previously found
			// paths sharing the same prefix, then reroute.
			blocked := map[EdgeID]bool{}
			for _, p := range paths {
				if len(p) > spur && refSamePrefix(g, p, last, spur) {
					blocked[p[spur]] = true
				}
			}
			// Also block revisiting root-path nodes to keep paths simple.
			blockedNodes := map[NodeID]bool{}
			for i := 0; i < spur; i++ {
				blockedNodes[lastNodes[i]] = true
			}
			spurNode := lastNodes[spur]
			detour := g.refShortestPathWeighted(spurNode, dst, func(eid EdgeID) float64 {
				e := g.Edge(eid)
				if blocked[eid] || blockedNodes[e.To] {
					return math.Inf(1)
				}
				return 1
			})
			if detour == nil || refPathUsesInfEdge(g, detour, blocked, blockedNodes) {
				continue
			}
			full := append(append(Path{}, last[:spur]...), detour...)
			if !refContainsPath(paths, full) && !refContainsPath(candidates, full) {
				candidates = append(candidates, full)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Pick the shortest candidate.
		bestIdx := 0
		for i := range candidates {
			if len(candidates[i]) < len(candidates[bestIdx]) {
				bestIdx = i
			}
		}
		paths = append(paths, candidates[bestIdx])
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
	}
	return paths
}

func refPathUsesInfEdge(g *Graph, p Path, blocked map[EdgeID]bool, blockedNodes map[NodeID]bool) bool {
	for _, eid := range p {
		if blocked[eid] || blockedNodes[g.Edge(eid).To] {
			return true
		}
	}
	return false
}

func refSamePrefix(g *Graph, a, b Path, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refContainsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if len(q) != len(p) {
			continue
		}
		same := true
		for i := range q {
			if q[i] != p[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// refTracePath reconstructs a path from prevEdge pointers.
func (g *Graph) refTracePath(src, dst NodeID, prevEdge []EdgeID) Path {
	var rev Path
	cur := dst
	for cur != src {
		eid := prevEdge[cur]
		if eid < 0 {
			return nil
		}
		rev = append(rev, eid)
		cur = g.Edge(eid).From
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
