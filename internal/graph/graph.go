// Package graph provides the network substrate for coflow scheduling: a
// directed capacitated multigraph, datacenter and synthetic topology
// generators, shortest/widest path search, max-flow, and the flow
// decomposition used by the paper's rounding step (§2.2).
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a node of a Graph.
type NodeID int

// EdgeID identifies a directed edge of a Graph.
type EdgeID int

// Edge is a directed capacitated edge.
type Edge struct {
	ID       EdgeID
	From     NodeID
	To       NodeID
	Capacity float64
}

// Node is a vertex of the network. Kind distinguishes hosts from switches in
// datacenter topologies; synthetic topologies use KindHost for every node.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// NodeKind classifies nodes in datacenter topologies.
type NodeKind int

const (
	// KindHost is an end host (server); flows originate and terminate here.
	KindHost NodeKind = iota
	// KindEdgeSwitch is a top-of-rack/edge switch.
	KindEdgeSwitch
	// KindAggSwitch is an aggregation switch.
	KindAggSwitch
	// KindCoreSwitch is a core switch.
	KindCoreSwitch
)

// String returns a short label for the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindEdgeSwitch:
		return "edge"
	case KindAggSwitch:
		return "agg"
	case KindCoreSwitch:
		return "core"
	}
	return "unknown"
}

// Graph is a directed capacitated multigraph. The zero value is an empty
// graph ready for use.
type Graph struct {
	nodes []Node
	edges []Edge
	out   [][]EdgeID // outgoing edge ids per node
	in    [][]EdgeID // incoming edge ids per node

	// Derived-state caches, shared by every consumer of the topology and
	// dropped on mutation. Graphs are handled by pointer throughout, so the
	// synchronization state is never copied.
	kspMu    sync.RWMutex
	kspMemo  map[kspKey][]Path // see pathcache.go
	btPool   sync.Pool         // *btScratch, see load.go
	pathPool sync.Pool         // *pathScratch, see shortestpath.go
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode adds a node with the given name and kind and returns its id.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.invalidateCaches()
	return id
}

// AddEdge adds a directed edge from -> to with the given capacity and returns
// its id. Capacity must be positive.
func (g *Graph) AddEdge(from, to NodeID, capacity float64) EdgeID {
	if capacity <= 0 {
		panic(fmt.Sprintf("graph: non-positive capacity %v on edge %d->%d", capacity, from, to))
	}
	if int(from) >= len(g.nodes) || int(to) >= len(g.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: edge endpoints %d->%d out of range", from, to))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.invalidateCaches()
	return id
}

// btGet checks a scratch arena out of the pool, (re)allocating when the pool
// is empty or the graph grew since the arena was built.
func (g *Graph) btGet() *btScratch {
	s, _ := g.btPool.Get().(*btScratch)
	if s == nil || len(s.vals) < len(g.edges) {
		s = &btScratch{
			vals:  make([]float64, len(g.edges)),
			stamp: make([]uint32, len(g.edges)),
		}
	}
	s.cur++
	if s.cur == 0 { // generation counter wrapped: stale stamps could collide
		clear(s.stamp)
		s.cur = 1
	}
	return s
}

// AddBidirectional adds a pair of opposite directed edges with the same
// capacity (a full-duplex link) and returns both ids.
func (g *Graph) AddBidirectional(a, b NodeID, capacity float64) (EdgeID, EdgeID) {
	return g.AddEdge(a, b, capacity), g.AddEdge(b, a, capacity)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node record for id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge record for id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Capacity returns the capacity of edge id.
func (g *Graph) Capacity(id EdgeID) float64 { return g.edges[id].Capacity }

// Out returns the ids of edges leaving node v. The returned slice must not be
// modified.
func (g *Graph) Out(v NodeID) []EdgeID { return g.out[v] }

// In returns the ids of edges entering node v. The returned slice must not be
// modified.
func (g *Graph) In(v NodeID) []EdgeID { return g.in[v] }

// Nodes returns a copy of all node records.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns a copy of all edge records.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Hosts returns the ids of all nodes with KindHost, in id order.
func (g *Graph) Hosts() []NodeID {
	var hosts []NodeID
	for _, n := range g.nodes {
		if n.Kind == KindHost {
			hosts = append(hosts, n.ID)
		}
	}
	return hosts
}

// MinCapacity returns the smallest edge capacity in the graph, or 0 for an
// edgeless graph.
func (g *Graph) MinCapacity() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	min := g.edges[0].Capacity
	for _, e := range g.edges[1:] {
		if e.Capacity < min {
			min = e.Capacity
		}
	}
	return min
}

// FindNode returns the id of the first node with the given name.
func (g *Graph) FindNode(name string) (NodeID, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return -1, false
}

// Path is a sequence of edge ids forming a walk in the graph. An empty path
// is valid only when source equals destination.
type Path []EdgeID

// Nodes returns the node sequence visited by the path, starting at the source
// of its first edge. It returns nil for an empty path.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p)+1)
	nodes = append(nodes, g.Edge(p[0]).From)
	for _, e := range p {
		nodes = append(nodes, g.Edge(e).To)
	}
	return nodes
}

// MinCapacity returns the bottleneck capacity of the path, or +Inf-like large
// value (0) semantics: for an empty path it returns 0.
func (p Path) MinCapacity(g *Graph) float64 {
	if len(p) == 0 {
		return 0
	}
	min := g.Capacity(p[0])
	for _, e := range p[1:] {
		if c := g.Capacity(e); c < min {
			min = c
		}
	}
	return min
}

// Validate checks that the path is a contiguous walk from src to dst using
// edges of g.
func (p Path) Validate(g *Graph, src, dst NodeID) error {
	if len(p) == 0 {
		if src == dst {
			return nil
		}
		return fmt.Errorf("graph: empty path but src %d != dst %d", src, dst)
	}
	cur := src
	for i, eid := range p {
		if int(eid) < 0 || int(eid) >= g.NumEdges() {
			return fmt.Errorf("graph: path edge %d (%d) out of range", i, eid)
		}
		e := g.Edge(eid)
		if e.From != cur {
			return fmt.Errorf("graph: path edge %d starts at %d, want %d", i, e.From, cur)
		}
		cur = e.To
	}
	if cur != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", cur, dst)
	}
	return nil
}

// Reachable reports whether dst is reachable from src following directed
// edges.
func (g *Graph) Reachable(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	// Breadth-first on the pooled search scratch (shortestpath.go): instance
	// validation asks this once per flow, and a fresh seen-set and queue per
	// call were most of a k=8 engine's set-up time.
	s := g.getPathScratch()
	defer g.pathPool.Put(s)
	s.next()
	s.nodes[src].seen = s.gen
	s.queue = append(s.queue[:0], src)
	for i := 0; i < len(s.queue); i++ {
		for _, eid := range g.out[s.queue[i]] {
			to := g.edges[eid].To
			if s.nodes[to].seen == s.gen {
				continue
			}
			if to == dst {
				return true
			}
			s.nodes[to].seen = s.gen
			s.queue = append(s.queue, to)
		}
	}
	return false
}

// StronglyConnectedHosts reports whether every ordered pair of hosts is
// connected by a directed path.
func (g *Graph) StronglyConnectedHosts() bool {
	hosts := g.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if !g.Reachable(a, b) {
				return false
			}
		}
	}
	return true
}

// String summarizes the graph.
func (g *Graph) String() string {
	kinds := map[NodeKind]int{}
	for _, n := range g.nodes {
		kinds[n.Kind]++
	}
	keys := make([]int, 0, len(kinds))
	for k := range kinds {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	s := fmt.Sprintf("graph{%d nodes, %d edges", len(g.nodes), len(g.edges))
	for _, k := range keys {
		s += fmt.Sprintf(", %d %s", kinds[NodeKind(k)], NodeKind(k))
	}
	return s + "}"
}
