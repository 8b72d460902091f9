package sim

import (
	"math/rand"
	"slices"
	"testing"

	"coflowsched/internal/coflow"
)

func asFlow(rank, cf, idx int) *flowState {
	return &flowState{ref: coflow.FlowRef{Coflow: cf, Index: idx}, rank: rank}
}

// checkSorted verifies the set is strictly sorted by key, every member is
// marked active, and it holds exactly want's flows in want's order.
func checkSorted(t testing.TB, a *activeSet, want []*flowState) {
	t.Helper()
	for i, st := range a.fs {
		if !st.active {
			t.Fatalf("member %d (%v) is not marked active", i, st.ref)
		}
		if i > 0 && keyCmp(a.fs[i-1], st) >= 0 {
			t.Fatalf("keys out of order at %d: %v before %v", i, a.fs[i-1].ref, st.ref)
		}
	}
	if !slices.Equal(a.fs, want) {
		t.Fatalf("set holds %d flows, want %d in sorted order", len(a.fs), len(want))
	}
}

// TestActiveSetOrderedOps drives random batches of releases and completions
// through Splice, each from the batch's first key as the event loop does, and
// checks the set against a full sort of the live flows after every batch.
func TestActiveSetOrderedOps(t *testing.T) {
	var a activeSet
	rng := rand.New(rand.NewSource(3))
	var live []*flowState
	for op := 0; op < 400; op++ {
		var add []*flowState
		for n := rng.Intn(4); len(add) < n; {
			add = append(add, asFlow(rng.Intn(10), op, len(add)))
		}
		var first *flowState
		for d := rng.Intn(3); d > 0 && len(live) > 0; d-- {
			i := rng.Intn(len(live))
			live[i].done = true
			if first == nil || keyCmp(live[i], first) < 0 {
				first = live[i]
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		slices.SortFunc(add, keyCmp)
		if len(add) > 0 && (first == nil || keyCmp(add[0], first) < 0) {
			first = add[0]
		}
		if first == nil {
			continue
		}
		a.Splice(a.Seek(first), add)
		live = append(live, add...)
		want := slices.Clone(live)
		slices.SortFunc(want, keyCmp)
		checkSorted(t, &a, want)
	}
	if len(live) == 0 {
		t.Fatal("the walk left no live flows to check")
	}
}

// TestActiveSetSeek checks Seek returns the first position at or after a key.
func TestActiveSetSeek(t *testing.T) {
	var a activeSet
	a.Splice(0, []*flowState{asFlow(2, 2, 0), asFlow(4, 4, 0), asFlow(6, 6, 0), asFlow(8, 8, 0)})
	for _, c := range []struct{ rank, want int }{{5, 2}, {4, 1}, {9, 4}, {-1, 0}} {
		if got := a.Seek(asFlow(c.rank, c.rank, 0)); got != c.want {
			t.Errorf("Seek(rank %d) = %d, want %d", c.rank, got, c.want)
		}
	}
}

// TestCompHeapLazyDeletion checks stale entries (superseded rate changes)
// are skipped and compacted.
func TestCompHeapLazyDeletion(t *testing.T) {
	var h compHeap
	a, b := asFlow(0, 0, 0), asFlow(0, 1, 0)
	a.heapSeq, b.heapSeq = 1, 1
	h.Push(compEntry{t: 5, st: a, seq: 1})
	h.Push(compEntry{t: 3, st: b, seq: 1})
	// a's rate changes: old entry goes stale, new projection is earlier.
	a.heapSeq = 2
	h.Push(compEntry{t: 2, st: a, seq: 2})
	pop := func() compEntry {
		for h.Len() > 0 {
			e := h.Peek()
			if e.st.done || e.seq != e.st.heapSeq {
				h.Pop()
				continue
			}
			return h.Pop()
		}
		t.Fatalf("heap empty")
		return compEntry{}
	}
	if e := pop(); e.st != a || e.t != 2 {
		t.Fatalf("first valid pop = %+v, want a@2", e)
	}
	if e := pop(); e.st != b || e.t != 3 {
		t.Fatalf("second valid pop = %+v, want b@3", e)
	}
	// Compaction drops everything stale.
	for i := 0; i < 100; i++ {
		h.Push(compEntry{t: float64(i), st: a, seq: -1})
	}
	h.Push(compEntry{t: 7, st: a, seq: a.heapSeq})
	h.compact()
	if h.Len() != 1 || h.Peek().t != 7 {
		t.Fatalf("compact kept %d entries (top %+v), want the single live one", h.Len(), h.Peek())
	}
}
