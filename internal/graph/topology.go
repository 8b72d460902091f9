package graph

import "fmt"

// Triangle builds the 3-node triangle network of the paper's Figure 1: nodes
// x, y, z with unit-capacity bidirectional links between every pair.
func Triangle() *Graph {
	g := New()
	x := g.AddNode("x", KindHost)
	y := g.AddNode("y", KindHost)
	z := g.AddNode("z", KindHost)
	g.AddBidirectional(x, y, 1)
	g.AddBidirectional(y, z, 1)
	g.AddBidirectional(x, z, 1)
	return g
}

// Line builds a directed path topology h0 -> h1 -> ... -> h(n-1) with the
// given link capacity, plus the reverse edges so traffic can flow both ways.
func Line(n int, capacity float64) *Graph {
	if n < 2 {
		panic("graph: Line requires at least 2 nodes")
	}
	g := New()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("h%d", i), KindHost)
	}
	for i := 0; i+1 < n; i++ {
		g.AddBidirectional(ids[i], ids[i+1], capacity)
	}
	return g
}

// Ring builds a bidirectional ring of n hosts with the given link capacity.
func Ring(n int, capacity float64) *Graph {
	if n < 3 {
		panic("graph: Ring requires at least 3 nodes")
	}
	g := New()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("h%d", i), KindHost)
	}
	for i := 0; i < n; i++ {
		g.AddBidirectional(ids[i], ids[(i+1)%n], capacity)
	}
	return g
}

// Star builds a star of n hosts around a central switch; every host-switch
// link has the given capacity. This models a single non-blocking switch with
// per-port capacities, the topology assumed by earlier coflow work
// (Varys/Aalo and the big-switch model).
func Star(n int, capacity float64) *Graph {
	if n < 2 {
		panic("graph: Star requires at least 2 hosts")
	}
	g := New()
	sw := g.AddNode("switch", KindCoreSwitch)
	for i := 0; i < n; i++ {
		h := g.AddNode(fmt.Sprintf("h%d", i), KindHost)
		g.AddBidirectional(h, sw, capacity)
	}
	return g
}

// Grid builds an r x c bidirectional grid (mesh) of hosts with uniform link
// capacity. Used by the packet-based coflow examples and tests.
func Grid(rows, cols int, capacity float64) *Graph {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("graph: Grid requires at least 2 nodes")
	}
	g := New()
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(fmt.Sprintf("g%d_%d", r, c), KindHost)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddBidirectional(id(r, c), id(r, c+1), capacity)
			}
			if r+1 < rows {
				g.AddBidirectional(id(r, c), id(r+1, c), capacity)
			}
		}
	}
	return g
}

// FatTree builds a k-ary fat-tree datacenter topology (Al-Fares et al.):
// k pods, each with k/2 edge and k/2 aggregation switches, (k/2)^2 core
// switches and k^3/4 hosts. Every link is bidirectional with the given
// capacity. k must be even and >= 2.
//
// The paper's evaluation uses a 128-server fat-tree (k=8) with 1 Gb/s links;
// FatTree(8, 1.0) reproduces that topology.
func FatTree(k int, capacity float64) *Graph {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("graph: FatTree requires even k >= 2, got %d", k))
	}
	g := New()
	half := k / 2
	numCore := half * half

	core := make([]NodeID, numCore)
	for i := 0; i < numCore; i++ {
		core[i] = g.AddNode(fmt.Sprintf("core%d", i), KindCoreSwitch)
	}
	for pod := 0; pod < k; pod++ {
		aggs := make([]NodeID, half)
		edges := make([]NodeID, half)
		for i := 0; i < half; i++ {
			aggs[i] = g.AddNode(fmt.Sprintf("agg%d_%d", pod, i), KindAggSwitch)
		}
		for i := 0; i < half; i++ {
			edges[i] = g.AddNode(fmt.Sprintf("edge%d_%d", pod, i), KindEdgeSwitch)
		}
		// Hosts under each edge switch.
		for i := 0; i < half; i++ {
			for h := 0; h < half; h++ {
				host := g.AddNode(fmt.Sprintf("h%d_%d_%d", pod, i, h), KindHost)
				g.AddBidirectional(host, edges[i], capacity)
			}
		}
		// Edge <-> aggregation full bipartite within the pod.
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				g.AddBidirectional(edges[i], aggs[j], capacity)
			}
		}
		// Aggregation <-> core: agg j connects to core group j.
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				g.AddBidirectional(aggs[j], core[j*half+c], capacity)
			}
		}
	}
	return g
}

// NumFatTreeHosts returns the number of hosts in a k-ary fat-tree.
func NumFatTreeHosts(k int) int { return k * k * k / 4 }
