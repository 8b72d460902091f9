package online

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"coflowsched/internal/coflow"
)

// fuzzSnapshot builds a hand-made snapshot of n coflows whose sort keys tie
// often: Γ, weight and arrival come from small sets, and the distinct Index
// values are shuffled, so slot order says nothing about the sorted order.
func fuzzSnapshot(rng *rand.Rand, n int) *Snapshot {
	snap := &Snapshot{Coflows: make([]ResidualCoflow, n)}
	for i, id := range rng.Perm(3 * n)[:n] {
		cf := &snap.Coflows[i]
		cf.Index = id
		cf.Weight = float64(rng.Intn(3)) // 0: Γ is not divided
		cf.Arrival = float64(rng.Intn(3))
		cf.gamma, cf.hasGamma = float64(1+rng.Intn(4))/2, true
		for j := 0; j <= rng.Intn(3); j++ {
			cf.Flows = append(cf.Flows, ResidualFlow{Ref: coflow.FlowRef{Coflow: id, Index: j}})
		}
	}
	return snap
}

// referenceOrder sorts the snapshot's coflows by the given key, ties by
// Index, with no seed and no arena, and expands them into a flow order.
func referenceOrder(snap *Snapshot, key func(cf *ResidualCoflow) float64) []coflow.FlowRef {
	pos := make([]int, len(snap.Coflows))
	for i := range pos {
		pos[i] = i
	}
	sort.SliceStable(pos, func(a, b int) bool {
		ca, cb := &snap.Coflows[pos[a]], &snap.Coflows[pos[b]]
		if ka, kb := key(ca), key(cb); ka != kb {
			return ka < kb
		}
		return ca.Index < cb.Index
	})
	var order []coflow.FlowRef
	for _, i := range pos {
		for _, f := range snap.Coflows[i].Flows {
			order = append(order, f.Ref)
		}
	}
	return order
}

func sebfKey(cf *ResidualCoflow) float64 {
	if cf.Weight > 0 {
		return cf.gamma / cf.Weight
	}
	return cf.gamma
}

func fifoKey(cf *ResidualCoflow) float64 { return cf.Arrival }

// FuzzSeededCoflowSort holds the seeded coflow sort to an unseeded reference:
// whatever the slots' seeds — the exact ranks of the previous order, a stale
// or shuffled order's, random, shared by several slots, or absent — SEBF and
// FIFO return the reference order, every coflow in it exactly once, and a
// second Decide on the same snapshot (its seat table reused) agrees.
func FuzzSeededCoflowSort(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed, uint8(20))
	}
	f.Add(int64(5), uint8(0))
	f.Add(int64(6), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size) % 64
		snap := fuzzSnapshot(rng, n)
		policies := []struct {
			p   Policy
			key func(*ResidualCoflow) float64
		}{{SEBFOnline{}, sebfKey}, {FIFOOnline{}, fifoKey}}
		// Ranks of each coflow's first flow in a previous order: one of the
		// two policies' own, or a random permutation's.
		prev := make(map[int]int, n)
		var from []coflow.FlowRef
		switch rng.Intn(3) {
		case 0, 1:
			from = referenceOrder(snap, policies[rng.Intn(2)].key)
		default:
			for _, i := range rng.Perm(n) {
				for _, fl := range snap.Coflows[i].Flows {
					from = append(from, fl.Ref)
				}
			}
		}
		for r, ref := range from {
			if ref.Index == 0 {
				prev[ref.Coflow] = r
			}
		}
		snap.seedSpan = max(len(from)+rng.Intn(3)-1, 0)
		for i := range snap.Coflows {
			cf := &snap.Coflows[i]
			switch rng.Intn(6) {
			case 0, 1: // the previous order's rank
				cf.seed = prev[cf.Index]
			case 2: // stale: a nearby rank
				cf.seed = prev[cf.Index] + rng.Intn(5) - 2
			case 3: // random, out of range included
				cf.seed = rng.Intn(snap.seedSpan+6) - 3
			case 4: // shared with an earlier slot
				if i > 0 {
					cf.seed = snap.Coflows[rng.Intn(i)].seed
				}
			default: // absent
				cf.seed = -1
			}
		}
		if rng.Intn(8) == 0 {
			snap.seedSpan = 0 // a hand-built snapshot: nothing is seated
		}
		for _, pc := range policies {
			want := referenceOrder(snap, pc.key)
			for call := 0; call < 2; call++ {
				got, err := pc.p.Decide(snap)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s call %d: order %v, want %v (seeds %v, span %d)", pc.p.Name(), call, got, want, seeds(snap), snap.seedSpan)
				}
			}
			seen := map[int]bool{}
			for _, ref := range want {
				if ref.Index == 0 {
					if seen[ref.Coflow] {
						t.Fatalf("%s: coflow %d appears twice", pc.p.Name(), ref.Coflow)
					}
					seen[ref.Coflow] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("%s: %d of %d coflows in the order", pc.p.Name(), len(seen), n)
			}
			for s, v := range snap.seatArena {
				if v != 0 {
					t.Fatalf("%s: seat %d still holds slot %d after the sort", pc.p.Name(), s, v-1)
				}
			}
		}
	})
}

func seeds(snap *Snapshot) []int {
	out := make([]int, len(snap.Coflows))
	for i := range snap.Coflows {
		out[i] = snap.Coflows[i].seed
	}
	return out
}

// TestSeededSortFollowsEngine runs the sort the way the engine seeds it: after
// each decision on a stream, the view's seeds are the ranks the applied order
// gave each coflow's first live flow, and every order equals the reference.
func TestSeededSortFollowsEngine(t *testing.T) {
	for _, policy := range []Policy{SEBFOnline{}, FIFOOnline{}} {
		key := sebfKey
		if _, ok := policy.(FIFOOnline); ok {
			key = fifoKey
		}
		inst, arrivals := engineWorkload(t, 11, 30)
		e, err := NewEngine(inst.Network, policy, Config{EpochLength: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		next, seated := 0, 0
		for step := 0; next < len(inst.Coflows) || !e.Done(); step++ {
			for ; next < len(inst.Coflows) && arrivals[next] <= e.Now(); next++ {
				if _, err := e.Admit(relativeCoflow(inst.Coflows[next], arrivals[next]), e.Now()); err != nil {
					t.Fatal(err)
				}
			}
			view := e.syncView()
			for i := range view.Coflows {
				if s := view.Coflows[i].seed; s >= 0 && s < view.seedSpan {
					seated++
				}
			}
			want := referenceOrder(view, key)
			if err := e.DecideSync(); err != nil {
				t.Fatal(err)
			}
			if got := e.order; len(view.Coflows) > 0 && !slices.Equal(got, want) {
				t.Fatalf("%s step %d: applied %v, reference %v", policy.Name(), step, got, want)
			}
			if err := e.AdvanceTo(e.Now() + 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if seated == 0 {
			t.Errorf("%s: no slot ever carried a seed inside the span", policy.Name())
		}
	}
}
