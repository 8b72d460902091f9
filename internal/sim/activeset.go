package sim

// This file holds the simulator's incremental event-scheduling structures:
//
//   - activeSet: a deterministic skip list over the released, unfinished
//     flows, ordered by priority rank. Insert/Delete are O(log F) and the
//     greedy allocator walks the "dirty suffix" of the order through level-0
//     links, so maintaining the active set never rebuilds or re-sorts the
//     whole flow population the way the naive allocator does.
//   - releaseHeap: a typed min-heap of flows awaiting their release time,
//     one entry per flow. Equal release times are popped as one batch by the
//     event loop, which removes the old float-keyed dedup (a map[float64]bool
//     in New) and the duplicate-time event pushes of the previous design.
//   - compHeap: a lazy-deletion min-heap of projected flow completion times.
//     A flow's projection stays valid while its rate is unchanged (remaining
//     shrinks exactly as the clock advances), so only flows whose rate
//     actually changed push new entries; stale entries are skipped on pop and
//     compacted when they outnumber live flows.

import "slices"

// activeKey orders active flows by priority rank, ties broken by flow
// reference for determinism.
type activeKey struct {
	rank   int
	coflow int
	index  int
}

func keyLess(a, b activeKey) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.coflow != b.coflow {
		return a.coflow < b.coflow
	}
	return a.index < b.index
}

// activeMaxLevel bounds the skip list height; 2^20 flows is far beyond any
// simulated instance.
const activeMaxLevel = 20

type activeNode struct {
	st   *flowState
	key  activeKey
	next []*activeNode
}

// activeSet is a deterministic skip list: levels are drawn from a seeded
// xorshift generator, so two simulators fed the same inputs build identical
// structures (and therefore identical iteration costs).
type activeSet struct {
	head    *activeNode
	n       int
	rng     uint64
	scratch []*activeNode // Rebuild's node buffer, reused across re-orderings
	moved   []*activeNode // Reorder's out-of-place nodes, reused likewise
}

func newActiveSet() *activeSet {
	return &activeSet{
		head: &activeNode{next: make([]*activeNode, activeMaxLevel)},
		rng:  0x9E3779B97F4A7C15,
	}
}

func (a *activeSet) Len() int { return a.n }

// First returns the highest-priority active flow's node (nil when empty).
func (a *activeSet) First() *activeNode { return a.head.next[0] }

// randLevel draws a geometric level with p = 1/4 from the deterministic
// generator.
func (a *activeSet) randLevel() int {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	lvl := 1
	for v := a.rng; lvl < activeMaxLevel && v&3 == 0; v >>= 2 {
		lvl++
	}
	return lvl
}

// Seek returns the first node whose key is >= k, or nil.
func (a *activeSet) Seek(k activeKey) *activeNode {
	x := a.head
	for i := activeMaxLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && keyLess(x.next[i].key, k) {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// Insert adds the flow under its current rank and records the node on the
// flow state. The flow must not already be in the set.
func (a *activeSet) Insert(st *flowState) {
	n := &activeNode{
		st:   st,
		key:  activeKey{rank: st.rank, coflow: st.ref.Coflow, index: st.ref.Index},
		next: make([]*activeNode, a.randLevel()),
	}
	a.insertNode(n)
	a.n++
	st.node = n
}

// insertNode links an already-built node at its key position.
func (a *activeSet) insertNode(n *activeNode) {
	var update [activeMaxLevel]*activeNode
	x := a.head
	for i := activeMaxLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && keyLess(x.next[i].key, n.key) {
			x = x.next[i]
		}
		update[i] = x
	}
	for i := range n.next {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
}

// Delete unlinks the flow's node. The flow must be in the set.
func (a *activeSet) Delete(st *flowState) {
	k := st.node.key
	x := a.head
	for i := activeMaxLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && keyLess(x.next[i].key, k) {
			x = x.next[i]
		}
		if x.next[i] == st.node {
			x.next[i] = st.node.next[i]
		}
	}
	st.node = nil
	a.n--
}

// Reorder restores the set's order after a new priority order assigned
// ranks (SetOrder stamped the flows it lists with gen), and reports whether
// any node had to move. It is one sweep of the level-0 chain: a flow the
// order left out takes the rank `unlisted`, every key is refreshed, and a
// node whose new key exceeds the last in-order node's stays where it is,
// re-linked at every level of its tower by tail-append — which unlinks the
// out-of-place nodes in passing, with no search by their (now stale) keys.
// Those are then re-inserted by search. An online policy re-deciding over a
// slowly changing backlog moves a handful of nodes per epoch (the flows of
// coflows that transmitted or were just admitted), so the usual cost is the
// sweep; once more than an eighth are out of place the per-node searches
// lose to sorting everything, and Rebuild takes over. Either way the result
// is the list sorted by the new keys with every node and tower reused, so it
// is the same structure Rebuild alone would have left.
func (a *activeSet) Reorder(gen uint64, unlisted int) bool {
	var tails [activeMaxLevel]*activeNode
	for i := range tails {
		tails[i] = a.head
	}
	moved := a.moved[:0]
	last := activeKey{rank: -1, coflow: -1, index: -1}
	for n := a.head.next[0]; n != nil; {
		next := n.next[0]
		st := n.st
		if st.orderSeq != gen {
			st.rank = unlisted
		}
		n.key = activeKey{rank: st.rank, coflow: st.ref.Coflow, index: st.ref.Index}
		if keyLess(last, n.key) {
			last = n.key
			for i := range n.next {
				tails[i].next[i] = n
				tails[i] = n
			}
		} else {
			moved = append(moved, n)
		}
		n = next
	}
	for i, t := range tails {
		t.next[i] = nil
	}
	if len(moved) > a.n/8 {
		// Hang the stragglers back on the level-0 chain for Rebuild to collect.
		t := tails[0]
		for _, n := range moved {
			t.next[0] = n
			t = n
		}
		t.next[0] = nil
		a.Rebuild()
	} else {
		for _, n := range moved {
			a.insertNode(n)
		}
	}
	reordered := len(moved) > 0
	clear(moved)
	a.moved = moved[:0]
	return reordered
}

// Rebuild re-sorts the set after the flows' ranks changed — Reorder's
// fallback for a wholesale re-ordering, and its test oracle: collect the
// member nodes, refresh their keys, sort, and re-link every
// level with a tail-append sweep — no per-node skip-list search. Nodes (and
// their tower slices) are reused, so a re-ordering's only allocation is the
// sort's. O(F log F) comparisons, paid once per re-ordering rather than
// once per event.
func (a *activeSet) Rebuild() {
	a.scratch = a.scratch[:0]
	for n := a.head.next[0]; n != nil; n = n.next[0] {
		a.scratch = append(a.scratch, n)
	}
	for _, n := range a.scratch {
		n.key = activeKey{rank: n.st.rank, coflow: n.st.ref.Coflow, index: n.st.ref.Index}
	}
	slices.SortFunc(a.scratch, func(x, y *activeNode) int {
		if keyLess(x.key, y.key) {
			return -1
		}
		return 1 // keys are unique per flow, so equality cannot occur
	})
	var tails [activeMaxLevel]*activeNode
	for i := range a.head.next {
		tails[i] = a.head
		a.head.next[i] = nil
	}
	for _, n := range a.scratch {
		for i := range n.next {
			n.next[i] = nil
			tails[i].next[i] = n
			tails[i] = n
		}
	}
}

// releaseHeap is a typed min-heap of flows awaiting release, ordered by
// (release time, flow reference). One entry per flow: equal release times
// coexist and are drained as a batch by the event loop, so no event time is
// ever processed twice.
type releaseHeap struct{ fs []*flowState }

func releaseLess(a, b *flowState) bool {
	if a.release != b.release {
		return a.release < b.release
	}
	if a.ref.Coflow != b.ref.Coflow {
		return a.ref.Coflow < b.ref.Coflow
	}
	return a.ref.Index < b.ref.Index
}

func (h *releaseHeap) Len() int          { return len(h.fs) }
func (h *releaseHeap) Peek() *flowState  { return h.fs[0] }
func (h *releaseHeap) PeekTime() float64 { return h.fs[0].release }

func (h *releaseHeap) Push(st *flowState) {
	h.fs = append(h.fs, st)
	i := len(h.fs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !releaseLess(h.fs[i], h.fs[p]) {
			break
		}
		h.fs[p], h.fs[i] = h.fs[i], h.fs[p]
		i = p
	}
}

func (h *releaseHeap) Pop() *flowState {
	top := h.fs[0]
	n := len(h.fs) - 1
	h.fs[0] = h.fs[n]
	h.fs[n] = nil
	h.fs = h.fs[:n]
	h.siftDown(0)
	return top
}

// Remove deletes one specific entry, restoring the heap property around the
// hole. O(n) search: it serves only Simulator.Remove's admission-rollback
// path, where the heap holds the handful of not-yet-released flows.
func (h *releaseHeap) Remove(st *flowState) bool {
	for i, f := range h.fs {
		if f != st {
			continue
		}
		n := len(h.fs) - 1
		h.fs[i] = h.fs[n]
		h.fs[n] = nil
		h.fs = h.fs[:n]
		if i < n {
			h.siftDown(i)
			h.siftUp(i)
		}
		return true
	}
	return false
}

func (h *releaseHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !releaseLess(h.fs[i], h.fs[p]) {
			return
		}
		h.fs[p], h.fs[i] = h.fs[i], h.fs[p]
		i = p
	}
}

func (h *releaseHeap) siftDown(i int) {
	n := len(h.fs)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && releaseLess(h.fs[l], h.fs[small]) {
			small = l
		}
		if r < n && releaseLess(h.fs[r], h.fs[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.fs[i], h.fs[small] = h.fs[small], h.fs[i]
		i = small
	}
}

// compEntry is one projected completion: flow st finishes at time t if its
// rate is unchanged since the entry was pushed (seq matches st.heapSeq).
type compEntry struct {
	t   float64
	st  *flowState
	seq int
}

func compLess(a, b compEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.st.ref.Coflow != b.st.ref.Coflow {
		return a.st.ref.Coflow < b.st.ref.Coflow
	}
	return a.st.ref.Index < b.st.ref.Index
}

// compHeap is a lazy-deletion min-heap of projected completions.
type compHeap struct{ es []compEntry }

func (h *compHeap) Len() int        { return len(h.es) }
func (h *compHeap) Peek() compEntry { return h.es[0] }

func (h *compHeap) Push(e compEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !compLess(h.es[i], h.es[p]) {
			break
		}
		h.es[p], h.es[i] = h.es[i], h.es[p]
		i = p
	}
}

func (h *compHeap) Pop() compEntry {
	top := h.es[0]
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es[n] = compEntry{}
	h.es = h.es[:n]
	h.siftDown(0)
	return top
}

func (h *compHeap) siftDown(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && compLess(h.es[l], h.es[small]) {
			small = l
		}
		if r < n && compLess(h.es[r], h.es[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.es[i], h.es[small] = h.es[small], h.es[i]
		i = small
	}
}

// compact drops stale entries in place and restores the heap property.
func (h *compHeap) compact() {
	kept := h.es[:0]
	for _, e := range h.es {
		if !e.st.done && e.seq == e.st.heapSeq {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(h.es); i++ {
		h.es[i] = compEntry{}
	}
	h.es = kept
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
