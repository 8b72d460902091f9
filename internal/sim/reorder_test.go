package sim

import (
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// reorderCase is one order installation over n active flows, flow i being the
// i-th in the standing order: the new order takes the standing one, drops the
// last `unlisted` flows from it, and pulls `moves` random listed flows out to
// random new positions (moves >= n shuffles outright).
type reorderCase struct {
	n, moves, unlisted int
	seed               int64
}

// runReorderCase installs the case's order on two identically built sets —
// one through the Reorder sweep, one through the Rebuild oracle (ranks and
// keys assigned by hand, everything re-sorted) — and checks they end up the
// same structure: level-0 order, every tower link at every level, Len(), and
// every flow still on the node it had.
func runReorderCase(t testing.TB, c reorderCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	build := func() (*activeSet, []*flowState) {
		a := newActiveSet()
		flows := make([]*flowState, c.n)
		for i := range flows {
			flows[i] = asFlow(i, i/3, i%3)
			a.Insert(flows[i])
		}
		return a, flows
	}
	got, gotFlows := build()
	want, wantFlows := build()
	nodes := make([]*activeNode, c.n)
	for i, st := range gotFlows {
		nodes[i] = st.node
	}

	listed := c.n - c.unlisted
	order := make([]int, listed)
	for i := range order {
		order[i] = i
	}
	if c.moves >= c.n {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	} else if listed > 1 {
		for m := 0; m < c.moves; m++ {
			from, to := rng.Intn(listed), rng.Intn(listed)
			v := order[from]
			copy(order[from:], order[from+1:])
			copy(order[to+1:], order[to:listed-1])
			order[to] = v
		}
	}
	inOrder := true
	for i, f := range order {
		inOrder = inOrder && f == i
	}

	const gen = 7
	for rank, f := range order {
		gotFlows[f].rank, gotFlows[f].orderSeq = rank, gen
		wantFlows[f].rank = rank
	}
	for f := listed; f < c.n; f++ {
		wantFlows[f].rank = listed // what the sweep must assign on its own
	}
	if reordered := got.Reorder(gen, listed); reordered == inOrder {
		t.Fatalf("%+v: Reorder reported %v for an order that left the list sorted=%v", c, reordered, inOrder)
	}
	want.Rebuild()

	keys := collectKeys(t, got) // sorted at every level, Len() consistent
	if len(keys) != c.n {
		t.Fatalf("%+v: %d nodes after Reorder, want %d", c, len(keys), c.n)
	}
	for lvl := 0; lvl < activeMaxLevel; lvl++ {
		x, y := got.head.next[lvl], want.head.next[lvl]
		for x != nil && y != nil {
			if x.st.ref != y.st.ref || x.key != y.key || len(x.next) != len(y.next) {
				t.Fatalf("%+v: level %d: sweep links %v (key %+v, height %d), Rebuild %v (key %+v, height %d)",
					c, lvl, x.st.ref, x.key, len(x.next), y.st.ref, y.key, len(y.next))
			}
			x, y = x.next[lvl], y.next[lvl]
		}
		if x != nil || y != nil {
			t.Fatalf("%+v: level %d chains differ in length", c, lvl)
		}
	}
	for i, st := range gotFlows {
		if st.node != nodes[i] || st.node.st != st {
			t.Fatalf("%+v: flow %d lost its node", c, i)
		}
	}
}

// TestReorderMatchesRebuild runs the install sweep against the Rebuild oracle
// with nothing, one, a few, more than an eighth (the sort fallback) and all
// nodes out of place, with and without an unlisted tail.
func TestReorderMatchesRebuild(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 64, 500} {
		for _, moves := range []int{0, 1, 3, n/8 + 1, n / 3, n} {
			for _, unlisted := range []int{0, 1, n / 4} {
				if unlisted > n {
					continue
				}
				for seed := int64(1); seed <= 3; seed++ {
					runReorderCase(t, reorderCase{n: n, moves: moves, unlisted: unlisted, seed: seed})
				}
			}
		}
	}
}

// FuzzInstallOrder lets the mutator pick the set size, how many flows move,
// how many the order leaves out and the permutation seed.
func FuzzInstallOrder(f *testing.F) {
	f.Add(uint16(500), uint16(3), uint16(0), int64(1))
	f.Add(uint16(64), uint16(9), uint16(5), int64(2))
	f.Add(uint16(9), uint16(9), uint16(9), int64(3))
	f.Fuzz(func(t *testing.T, n, moves, unlisted uint16, seed int64) {
		c := reorderCase{n: int(n % 700), moves: int(moves), seed: seed}
		c.unlisted = int(unlisted) % (c.n + 1)
		runReorderCase(t, c)
	})
}

// TestTakeProgressedCoversEveryChange steps a contended simulation and checks
// the progress log's contract after every step: any flow whose residual
// volume or done flag differs from the previous step's is in the drained
// log, each flow at most once.
func TestTakeProgressedCoversEveryChange(t *testing.T) {
	for _, policy := range []Policy{Priority, FairShare} {
		rng := rand.New(rand.NewSource(5))
		inst, err := workload.GenerateWithPaths(graph.FatTree(4, 1), workload.Config{
			NumCoflows: 30, Width: 4, MeanSize: 4, MeanRelease: 10,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		refs := inst.FlowRefs()
		s, err := New(inst, Config{Policy: policy, Order: refs})
		if err != nil {
			t.Fatal(err)
		}
		prev := map[coflow.FlowRef]FlowStatus{}
		for _, fs := range s.Residuals() {
			prev[fs.Ref] = fs
		}
		var log []coflow.FlowRef
		logged := 0
		for step := 1; !s.Done(); step++ {
			if step%3 == 0 { // re-prioritize between steps, as the online engine does
				rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
				if err := s.SetOrder(refs); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RunUntil(s.Now() + 0.7); err != nil {
				t.Fatal(err)
			}
			log = s.TakeProgressed(log[:0])
			logged += len(log)
			in := map[coflow.FlowRef]bool{}
			for _, r := range log {
				if in[r] {
					t.Fatalf("policy %d step %d: flow %s logged twice", policy, step, r)
				}
				in[r] = true
			}
			for _, fs := range s.Residuals() {
				if p := prev[fs.Ref]; (p.Remaining != fs.Remaining || p.Done != fs.Done) && !in[fs.Ref] {
					t.Fatalf("policy %d step %d: flow %s moved (%v -> %v, done %v) outside the progress log",
						policy, step, fs.Ref, p.Remaining, fs.Remaining, fs.Done)
				}
				prev[fs.Ref] = fs
			}
			if step > 100000 {
				t.Fatal("simulation did not finish")
			}
		}
		if logged == 0 {
			t.Fatalf("policy %d: progress log never reported a flow", policy)
		}
	}
}

// BenchmarkSetOrderHandles measures one order installation on a 2 000-flow
// active set: re-confirming the standing order (the sweep alone), moving the
// eight flows of one coflow (sweep plus eight searches — the online steady
// state), and a full shuffle (the sort fallback).
func BenchmarkSetOrderHandles(b *testing.B) {
	for _, bc := range []struct {
		name  string
		moved int
	}{{"stable", 0}, {"few-moved", 8}, {"shuffled", 2000}} {
		b.Run(bc.name, func(b *testing.B) {
			inst := benchWorkload(b, 250, 8)
			for i := range inst.Coflows {
				for j := range inst.Coflows[i].Flows {
					inst.Coflows[i].Flows[j].Release = 0
				}
			}
			refs := inst.FlowRefs()
			s, err := New(inst, Config{Policy: Priority, Order: refs})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RunUntil(1e-9); err != nil { // release everything
				b.Fatal(err)
			}
			order := make([]Handle, len(refs))
			for i, r := range refs {
				order[i], _ = s.Handle(r)
			}
			rng := rand.New(rand.NewSource(1))
			block := make([]Handle, bc.moved)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch {
				case bc.moved >= len(order):
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				case bc.moved > 0:
					// Move a block of `moved` flows from the tail to a random position.
					at := rng.Intn(len(order) - bc.moved)
					copy(block, order[len(order)-bc.moved:])
					copy(order[at+bc.moved:], order[at:len(order)-bc.moved])
					copy(order[at:], block)
				}
				if err := s.SetOrderHandles(order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
