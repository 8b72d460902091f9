package sim

import (
	"math/rand"
	"slices"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// reorderCase is one order installation over n active flows, flow i being the
// i-th in the standing order: the new order takes the standing one, drops the
// last `unlisted` flows from it, and pulls `moves` random listed flows out to
// random new positions (moves >= n shuffles outright). Every fourth position
// of the installed order names a pending flow, which ranks but is no member.
type reorderCase struct {
	n, moves, unlisted int
	seed               int64
}

// runReorderCase installs the case's order the way SetOrder does —
// ranks stamped, the listed members collected in order — and checks Install
// against the oracle: the members re-keyed by hand (an unlisted one ranks
// after every listed one) and fully sorted. Install must report a change
// exactly when the sequence changed, and keep no member in its spare buffer.
func runReorderCase(t testing.TB, c reorderCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	var a activeSet
	flows := make([]*flowState, c.n)
	for i := range flows {
		flows[i] = asFlow(i, i/3, i%3)
	}
	a.Splice(0, flows)
	old := slices.Clone(a.fs)

	listed := c.n - c.unlisted
	perm := make([]int, listed)
	for i := range perm {
		perm[i] = i
	}
	if c.moves >= c.n {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	} else if listed > 1 {
		for m := 0; m < c.moves; m++ {
			from, to := rng.Intn(listed), rng.Intn(listed)
			v := perm[from]
			copy(perm[from:], perm[from+1:])
			copy(perm[to+1:], perm[to:listed-1])
			perm[to] = v
		}
	}
	var order []*flowState
	for i, f := range perm {
		if i%4 == 3 {
			order = append(order, asFlow(0, c.n+i, 0)) // pending: no member
		}
		order = append(order, flows[f])
	}

	const gen = 7
	next := a.next[:0]
	for rank, st := range order {
		st.rank, st.orderSeq = rank, gen
		if st.active {
			next = append(next, st)
		}
	}
	changed := a.Install(next, gen, len(order))

	want := slices.Clone(old)
	for _, st := range want {
		if st.orderSeq != gen && st.rank != len(order) {
			t.Fatalf("%+v: unlisted flow %v ranks %d, want %d", c, st.ref, st.rank, len(order))
		}
	}
	slices.SortFunc(want, keyCmp)
	checkSorted(t, &a, want)
	if moved := !slices.Equal(old, want); changed != moved {
		t.Fatalf("%+v: Install reported a change %v for a sequence that changed %v", c, changed, moved)
	}
	for _, st := range a.next[:cap(a.next)] {
		if st != nil {
			t.Fatalf("%+v: Install's spare buffer still holds %v", c, st.ref)
		}
	}
}

// TestReorderMatchesRebuild runs Install against the full-sort oracle with
// nothing, one, a few, many and all flows out of place, with and without an
// unlisted tail.
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
				if _, err := s.SetOrder(refs); err != nil {
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

// BenchmarkSetOrder measures one order installation on a 2 000-flow active
// set: re-confirming the standing order, moving the eight flows of one coflow
// (the online steady state), and a full shuffle. Install reads the sequence
// off the order in each case, so the three should cost the same.
func BenchmarkSetOrder(b *testing.B) {
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
			order := slices.Clone(refs)
			rng := rand.New(rand.NewSource(1))
			block := make([]coflow.FlowRef, bc.moved)
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
				if _, err := s.SetOrder(order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
