package sim

import (
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
)

func asFlow(rank, cf, idx int) *flowState {
	return &flowState{ref: coflow.FlowRef{Coflow: cf, Index: idx}, rank: rank}
}

// collectKeys walks the level-0 chain and verifies every level is sorted.
func collectKeys(t testing.TB, a *activeSet) []activeKey {
	t.Helper()
	var keys []activeKey
	for n := a.First(); n != nil; n = n.next[0] {
		keys = append(keys, n.key)
	}
	for lvl := 0; lvl < activeMaxLevel; lvl++ {
		prev := a.head
		for n := a.head.next[lvl]; n != nil; n = n.next[lvl] {
			if prev != a.head && !keyLess(prev.key, n.key) {
				t.Fatalf("level %d out of order: %v before %v", lvl, prev.key, n.key)
			}
			prev = n
		}
	}
	if len(keys) != a.Len() {
		t.Fatalf("walked %d nodes, Len() = %d", len(keys), a.Len())
	}
	return keys
}

// TestActiveSetOrderedOps drives random inserts and deletes and checks the
// skip list stays sorted with exactly the live membership.
func TestActiveSetOrderedOps(t *testing.T) {
	a := newActiveSet()
	rng := rand.New(rand.NewSource(3))
	var live []*flowState
	for op := 0; op < 2000; op++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			st := asFlow(rng.Intn(10), op, rng.Intn(4))
			a.Insert(st)
			live = append(live, st)
		} else {
			i := rng.Intn(len(live))
			a.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	keys := collectKeys(t, a)
	if len(keys) != len(live) {
		t.Fatalf("set has %d members, want %d", len(keys), len(live))
	}
	for i := 1; i < len(keys); i++ {
		if !keyLess(keys[i-1], keys[i]) {
			t.Fatalf("keys out of order at %d: %v, %v", i, keys[i-1], keys[i])
		}
	}
}

// TestActiveSetSeek checks Seek returns the first node at or after a key.
func TestActiveSetSeek(t *testing.T) {
	a := newActiveSet()
	for _, r := range []int{2, 4, 6, 8} {
		a.Insert(asFlow(r, r, 0))
	}
	if n := a.Seek(activeKey{rank: 5}); n == nil || n.key.rank != 6 {
		t.Fatalf("Seek(5) = %+v, want rank 6", n)
	}
	if n := a.Seek(activeKey{rank: 4}); n == nil || n.key.rank != 4 {
		t.Fatalf("Seek(4) = %+v, want rank 4 (inclusive)", n)
	}
	if n := a.Seek(activeKey{rank: 9}); n != nil {
		t.Fatalf("Seek(9) = %+v, want nil", n)
	}
	if n := a.Seek(activeKey{rank: -1}); n == nil || n.key.rank != 2 {
		t.Fatalf("Seek(-1) = %+v, want first node", n)
	}
}

// TestActiveSetRebuild changes every rank and checks Rebuild restores
// order while reusing the nodes.
func TestActiveSetRebuild(t *testing.T) {
	a := newActiveSet()
	var flows []*flowState
	for i := 0; i < 50; i++ {
		st := asFlow(i, i, 0)
		a.Insert(st)
		flows = append(flows, st)
	}
	before := map[*flowState]*activeNode{}
	for _, st := range flows {
		before[st] = st.node
	}
	// Reverse the priority order.
	for i, st := range flows {
		st.rank = len(flows) - i
	}
	a.Rebuild()
	keys := collectKeys(t, a)
	if len(keys) != len(flows) {
		t.Fatalf("rebuild lost nodes: %d of %d", len(keys), len(flows))
	}
	for i := 1; i < len(keys); i++ {
		if !keyLess(keys[i-1], keys[i]) {
			t.Fatalf("rebuilt keys out of order: %v, %v", keys[i-1], keys[i])
		}
	}
	if first := a.First(); first.st != flows[len(flows)-1] {
		t.Errorf("highest priority after reversal is %v, want %v", first.st.ref, flows[len(flows)-1].ref)
	}
	for _, st := range flows {
		if st.node != before[st] {
			t.Fatalf("rebuild allocated a fresh node for %v", st.ref)
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
