package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// relaxationInstance draws a small free-path instance: 4-5 nodes on a directed
// ring (so every pair is connected) plus random chords, capacities 1 or 2,
// 2-3 coflows of 1-2 flows, sizes 1-4, releases 0-2.
func relaxationInstance(rng *rand.Rand) *coflow.Instance {
	g := graph.New()
	n := 4 + rng.Intn(2)
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("n%d", i), graph.KindHost)
	}
	capacity := func() float64 { return float64(1 + rng.Intn(2)) }
	for i := range nodes {
		g.AddEdge(nodes[i], nodes[(i+1)%n], capacity())
	}
	for i := range nodes {
		for j := range nodes {
			if j != i && j != (i+1)%n && rng.Intn(3) == 0 {
				g.AddEdge(nodes[i], nodes[j], capacity())
			}
		}
	}
	inst := &coflow.Instance{Network: g}
	for c := 2 + rng.Intn(2); c > 0; c-- {
		cf := coflow.Coflow{Weight: float64(1 + rng.Intn(3))}
		for f := 1 + rng.Intn(2); f > 0; f-- {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			cf.Flows = append(cf.Flows, coflow.Flow{
				Source: nodes[src], Dest: nodes[dst],
				Size: float64(1 + rng.Intn(4)), Release: float64(rng.Intn(3)),
			})
		}
		inst.Coflows = append(inst.Coflows, cf)
	}
	return inst
}

// simplePaths counts the simple paths from src to dst.
func simplePaths(g *graph.Graph, src, dst graph.NodeID) int {
	visited := make([]bool, g.NumNodes())
	var walk func(v graph.NodeID) int
	walk = func(v graph.NodeID) int {
		if v == dst {
			return 1
		}
		visited[v] = true
		count := 0
		for _, e := range g.Out(v) {
			if to := g.Edge(e).To; !visited[to] {
				count += walk(to)
			}
		}
		visited[v] = false
		return count
	}
	return walk(src)
}

// TestExactLPRelaxesCandidateLP holds the two formulations against each other:
// a candidate-path solution is an arc flow, so the arc-flow LP's optimum is at
// most the candidate-path LP's for any candidate count, and once every simple
// path of every flow is a candidate the two are the same LP up to cycles,
// which deliver nothing. A routing block that drops or mis-scales a row breaks
// one side of this, whichever block it is.
func TestExactLPRelaxesCandidateLP(t *testing.T) {
	const tol = 1e-7
	equalities := 0
	for seed := int64(1); seed <= 30; seed++ {
		inst := relaxationInstance(rand.New(rand.NewSource(seed)))
		if err := inst.Validate(false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, err := CircuitFreePathsExact{}.ScheduleASAP(inst, nil)
		if err != nil {
			t.Fatalf("seed %d: exact LP: %v", seed, err)
		}
		for _, k := range []int{1, 4, 64} {
			cand, err := CircuitFreePaths{Opts: Options{CandidatePaths: k}}.ScheduleASAP(inst, nil)
			if err != nil {
				t.Fatalf("seed %d, %d candidates: %v", seed, k, err)
			}
			slack := tol * math.Max(1, math.Abs(cand.LPObjective))
			if exact.LPObjective > cand.LPObjective+slack {
				t.Errorf("seed %d: arc-flow LP optimum %v above the %d-candidate LP's %v",
					seed, exact.LPObjective, k, cand.LPObjective)
			}
			if k != 64 {
				continue
			}
			all := true
			for _, ref := range inst.FlowRefs() {
				f := inst.Flow(ref)
				if simplePaths(inst.Network, f.Source, f.Dest) > k {
					all = false
				}
			}
			if !all {
				continue
			}
			equalities++
			if math.Abs(exact.LPObjective-cand.LPObjective) > slack {
				t.Errorf("seed %d: every simple path is a candidate, but the arc-flow LP optimum is %v and the candidate LP's %v",
					seed, exact.LPObjective, cand.LPObjective)
			}
		}
	}
	if equalities < 20 {
		t.Errorf("only %d of 30 instances had every simple path among 64 candidates: the equality went mostly unchecked", equalities)
	}
}
