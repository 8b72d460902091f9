package graph

import (
	"math"
	"slices"
)

// pathScratch is the working set of one path search, pooled per graph so that
// a search allocates nothing but the paths it returns. Node and edge state
// counts only when stamped with the current generation, so starting the next
// search (Yen's loop runs one per spur node) costs O(1), not O(nodes).
type pathScratch struct {
	gen    uint32
	nodes  []nodeState
	noEdge []uint32 // edge may not be used iff == gen (Yen: taken by a found path)
	heap   []heapItem
	queue  []NodeID // Reachable's breadth-first frontier
	cands  []EdgeID // Yen's candidate paths, back to back
	spans  []candSpan
}

type nodeState struct {
	seen   uint32 // dist, hops and prev are valid iff == gen
	done   uint32 // settled iff == gen (WidestPath only)
	noNode uint32 // may not be entered iff == gen (Yen: on the root path)
	hops   int32
	dist   float64
	prev   EdgeID
}

type heapItem struct {
	prio float64
	node NodeID
}

// candSpan locates one candidate path inside pathScratch.cands.
type candSpan struct{ off, n int }

// getPathScratch checks a scratch out of the pool, (re)allocating when the
// pool is empty or the graph grew since the scratch was built. Return it with
// g.pathPool.Put.
func (g *Graph) getPathScratch() *pathScratch {
	s, _ := g.pathPool.Get().(*pathScratch)
	if s == nil || len(s.nodes) < len(g.nodes) || len(s.noEdge) < len(g.edges) {
		s = &pathScratch{nodes: make([]nodeState, len(g.nodes)), noEdge: make([]uint32, len(g.edges))}
	}
	return s
}

// next opens a fresh generation: every stamp written before it is void.
func (s *pathScratch) next() {
	s.gen++
	if s.gen == 0 { // generation counter wrapped: stale stamps could collide
		clear(s.nodes)
		clear(s.noEdge)
		s.gen = 1
	}
}

// push and pop keep a binary min-heap on prio with exactly the sift order of
// container/heap, which the retained reference uses: among equal priorities the
// pop order decides which of several equally good paths a search returns, and
// every schedule downstream is pinned to those paths.
func (s *pathScratch) push(it heapItem) {
	h := append(s.heap, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *pathScratch) pop() heapItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].prio < h[j].prio {
			j = r
		}
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}

// hopSearch runs Dijkstra on the hop metric from src, skipping the edges and
// nodes blocked in the current generation, and reports whether dst was
// reached. The caller opens the generation with next.
//
// Under unit weights a node's first relaxation is final. Nodes leave the heap
// in order of distance, so a later relaxation comes from a node no nearer and
// is never strictly shorter, and Dijkstra replaces prev only on a strictly
// shorter one. So each node is pushed once, popped once and needs no settled
// mark, and the search returns the moment dst is first reached: prev already
// holds what a run until dst settles would leave there.
func (s *pathScratch) hopSearch(g *Graph, src, dst NodeID) bool {
	if src == dst {
		return true
	}
	gen, nodes := s.gen, s.nodes
	nodes[src].seen, nodes[src].dist = gen, 0
	s.heap = s.heap[:0]
	s.push(heapItem{prio: 0, node: src})
	for len(s.heap) > 0 {
		v := s.pop().node
		nd := nodes[v].dist + 1
		for _, eid := range g.out[v] {
			to := g.edges[eid].To
			t := &nodes[to]
			if t.seen == gen || s.noEdge[eid] == gen || t.noNode == gen {
				continue
			}
			t.seen, t.dist, t.prev = gen, nd, eid
			if to == dst {
				return true
			}
			s.push(heapItem{prio: nd, node: to})
		}
	}
	return false
}

// cutOff reports whether every edge into dst is blocked in the current
// generation, by its own stamp or by its tail's (a blocked node cannot be
// entered, and Yen never blocks the spur node a search starts from). A spur
// search towards such a dst cannot succeed, and would visit everything the
// spur node reaches before saying so. On a fat-tree that is the last spur of
// every path: a host has one edge in, and every path found so far ends with it.
func (s *pathScratch) cutOff(g *Graph, dst NodeID) bool {
	for _, eid := range g.in[dst] {
		if s.noEdge[eid] != s.gen && s.nodes[g.edges[eid].From].noNode != s.gen {
			return false
		}
	}
	return true
}

// appendPath appends the path the last search found from src to dst to buf.
func (s *pathScratch) appendPath(g *Graph, buf Path, src, dst NodeID) Path {
	n := 0
	for v := dst; v != src; v = g.edges[s.nodes[v].prev].From {
		n++
	}
	i := len(buf) + n
	if i > cap(buf) { // exactly n for a fresh path, doubling for the candidate arena
		buf = append(make(Path, 0, max(i, 2*cap(buf))), buf...)
	}
	buf = buf[:i]
	for v := dst; v != src; {
		i--
		buf[i] = s.nodes[v].prev
		v = g.edges[buf[i]].From
	}
	return buf
}

// ShortestPath returns a minimum-hop path from src to dst, or nil if dst is
// unreachable. Every edge counts as one hop regardless of capacity.
func (g *Graph) ShortestPath(src, dst NodeID) Path {
	s := g.getPathScratch()
	defer g.pathPool.Put(s)
	s.next()
	if !s.hopSearch(g, src, dst) {
		return nil
	}
	return s.appendPath(g, Path{}, src, dst)
}

// WidestPath returns a path from src to dst maximizing the bottleneck value
// of width(edge); ties are broken toward fewer hops. It returns nil if dst is
// unreachable or every path has zero (or negative) bottleneck width. This is
// the "thickest path" routine used by flow decomposition (§4.2 of the paper).
func (g *Graph) WidestPath(src, dst NodeID, width func(EdgeID) float64) Path {
	if src == dst {
		return Path{}
	}
	s := g.getPathScratch()
	defer g.pathPool.Put(s)
	s.next()
	gen, nodes := s.gen, s.nodes
	nodes[src].seen, nodes[src].dist, nodes[src].hops = gen, math.Inf(1), 0
	// Max-heap on the bottleneck: the min-heap orders its negation.
	s.heap = s.heap[:0]
	s.push(heapItem{prio: math.Inf(-1), node: src})
	for len(s.heap) > 0 {
		v := s.pop().node
		if nodes[v].done == gen {
			continue
		}
		nodes[v].done = gen
		for _, eid := range g.out[v] {
			w := width(eid)
			if w <= 0 {
				continue
			}
			to := g.edges[eid].To
			t := &nodes[to]
			bottleneck := math.Min(nodes[v].dist, w)
			if t.seen != gen || bottleneck > t.dist+1e-15 ||
				(bottleneck > t.dist-1e-15 && nodes[v].hops+1 < t.hops) {
				t.seen, t.dist, t.hops, t.prev = gen, bottleneck, nodes[v].hops+1, eid
				s.push(heapItem{prio: -bottleneck, node: to})
			}
		}
	}
	if nodes[dst].seen != gen || nodes[dst].dist <= 0 {
		return nil
	}
	return s.appendPath(g, Path{}, src, dst)
}

// KShortestPaths returns up to k loop-free minimum-hop paths from src to dst
// using a simple Yen-like expansion on the hop metric. It is used by the
// Route-only baseline to pick among candidate paths for load balancing.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	s := g.getPathScratch()
	defer g.pathPool.Put(s)
	return s.kShortestPaths(g, src, dst, k)
}

// kShortestPaths is Yen's loop over hopSearch. It allocates the returned list
// and one slice per returned path; candidates live in the scratch.
func (s *pathScratch) kShortestPaths(g *Graph, src, dst NodeID, k int) []Path {
	s.next()
	if !s.hopSearch(g, src, dst) {
		return nil
	}
	paths := make([]Path, 1, min(k, 16))
	paths[0] = s.appendPath(g, Path{}, src, dst)
	s.cands, s.spans = s.cands[:0], s.spans[:0]
	for len(paths) < k {
		last := paths[len(paths)-1]
		for spur := range last {
			s.next()
			// Block the edges used at this spur position by previously found
			// paths sharing the same prefix, then reroute.
			for _, p := range paths {
				if len(p) > spur && slices.Equal(p[:spur], last[:spur]) {
					s.noEdge[p[spur]] = s.gen
				}
			}
			// Also block revisiting root-path nodes to keep paths simple.
			for _, e := range last[:spur] {
				s.nodes[g.edges[e].From].noNode = s.gen
			}
			spurNode := g.edges[last[spur]].From
			if s.cutOff(g, dst) || !s.hopSearch(g, spurNode, dst) {
				continue
			}
			off := len(s.cands)
			s.cands = s.appendPath(g, append(s.cands, last[:spur]...), spurNode, dst)
			full := s.cands[off:]
			if containsPath(paths, full) || s.hasCandidate(full) {
				s.cands = s.cands[:off]
				continue
			}
			s.spans = append(s.spans, candSpan{off: off, n: len(full)})
		}
		if len(s.spans) == 0 {
			break
		}
		// Pick the shortest candidate, the earliest found among equals.
		best := 0
		for i, c := range s.spans {
			if c.n < s.spans[best].n {
				best = i
			}
		}
		c := s.spans[best]
		paths = append(paths, append(Path{}, s.cands[c.off:c.off+c.n]...))
		s.spans = slices.Delete(s.spans, best, best+1)
	}
	return paths
}

func (s *pathScratch) hasCandidate(p Path) bool {
	for _, c := range s.spans {
		if slices.Equal(s.cands[c.off:c.off+c.n], p) {
			return true
		}
	}
	return false
}

func containsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if slices.Equal(q, p) {
			return true
		}
	}
	return false
}
