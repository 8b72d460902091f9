// Package timeexp implements time-expanded graphs (Ford–Fulkerson), the
// substrate behind the paper's packet-routing algorithm for coflows without
// given paths (§3.2, Figure 2).
//
// Given a directed graph G and a horizon T, the time-expanded graph G^T has a
// node (v, t) for every node v of G and every 0 <= t <= T. Movement edges
// connect (u, t) to (v, t+1) for every edge (u, v) of G; queue edges connect
// (v, t) to (v, t+1) and model a packet waiting one step at v.
package timeexp

import (
	"container/heap"
	"fmt"

	"coflowsched/internal/graph"
)

// Move records a packet crossing Edge of the base graph during step Time.
type Move struct {
	Time int
	Edge graph.EdgeID
}

// Graph is a time-expanded view of a base graph over T steps. It stores no
// explicit edge list: movement and queue edges are enumerated on demand,
// keeping the structure O(|V|·T) in memory.
type Graph struct {
	base *graph.Graph
	t    int
}

// New builds the time-expanded graph of base over horizon T (T >= 1).
func New(base *graph.Graph, T int) *Graph {
	if T < 1 {
		panic(fmt.Sprintf("timeexp: horizon must be >= 1, got %d", T))
	}
	return &Graph{base: base, t: T}
}

// arrivalItem is a priority-queue entry for EarliestArrival.
type arrivalItem struct {
	node graph.NodeID
	time int
}

type arrivalPQ []arrivalItem

func (q arrivalPQ) Len() int           { return len(q) }
func (q arrivalPQ) Less(i, j int) bool { return q[i].time < q[j].time }
func (q arrivalPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *arrivalPQ) Push(x any)        { *q = append(*q, x.(arrivalItem)) }
func (q *arrivalPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// EarliestArrival finds a schedule of moves that brings a packet from src
// (available at time start) to dst as early as possible, never using an
// (edge, time) slot for which occupied returns true. Waiting at intermediate
// nodes (queue edges of G^T) is free and unlimited. It returns nil if dst
// cannot be reached within the horizon, and an empty slice when src == dst.
//
// Because waiting is always allowed, the earliest arrival time at each node
// dominates any later arrival, so a Dijkstra-style search over (node,
// earliest arrival) is exact. The packet routing + scheduling step of the
// paper's §3.2 algorithm applies this packet by packet in LP priority order;
// the queue edges are what "simulate packets waiting for one or more rounds
// at a node" (Figure 2).
func (g *Graph) EarliestArrival(src, dst graph.NodeID, start int, occupied func(e graph.EdgeID, t int) bool) []Move {
	if src == dst {
		return []Move{}
	}
	if start < 0 {
		start = 0
	}
	if start > g.t {
		return nil
	}
	n := g.base.NumNodes()
	arrive := make([]int, n)
	visited := make([]bool, n)
	prevMove := make([]Move, n)
	prevNode := make([]graph.NodeID, n)
	for i := range arrive {
		arrive[i] = -1
		prevNode[i] = -1
	}
	arrive[src] = start

	pq := &arrivalPQ{{node: src, time: start}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(arrivalItem)
		v := it.node
		if visited[v] {
			continue
		}
		visited[v] = true
		if v == dst {
			break
		}
		for _, eid := range g.base.Out(v) {
			to := g.base.Edge(eid).To
			if visited[to] {
				continue
			}
			// Depart on the first non-occupied step at or after arrival.
			dep := it.time
			for dep < g.t && occupied != nil && occupied(eid, dep) {
				dep++
			}
			if dep >= g.t {
				continue
			}
			arr := dep + 1
			if arrive[to] < 0 || arr < arrive[to] {
				arrive[to] = arr
				prevMove[to] = Move{Time: dep, Edge: eid}
				prevNode[to] = v
				heap.Push(pq, arrivalItem{node: to, time: arr})
			}
		}
	}
	if arrive[dst] < 0 {
		return nil
	}
	var rev []Move
	cur := dst
	for cur != src {
		rev = append(rev, prevMove[cur])
		cur = prevNode[cur]
		if cur < 0 {
			return nil
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// CollapseMoves converts time-expanded moves back to a plain path in the base
// graph (Figure 2's "collapse" step), dropping queue waits.
func CollapseMoves(moves []Move) graph.Path {
	p := make(graph.Path, 0, len(moves))
	for _, m := range moves {
		p = append(p, m.Edge)
	}
	return p
}
