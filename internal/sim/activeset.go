package sim

// This file holds the simulator's incremental event-scheduling structures:
//
//   - activeSet: the released, unfinished flows in one slice sorted by
//     priority key. Seek is a binary search; an event batch's completions
//     and releases are compacted out of and merged into the dirty suffix
//     once per batch, at the cost of the allocator's own walk of that
//     suffix, and an order installation reads the new sequence straight off
//     the installed order, so maintaining the active set never re-sorts the
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

import (
	"cmp"
	"slices"
)

// refCmp orders flows by reference.
func refCmp(a, b *flowState) int {
	if c := cmp.Compare(a.ref.Coflow, b.ref.Coflow); c != 0 {
		return c
	}
	return cmp.Compare(a.ref.Index, b.ref.Index)
}

// keyCmp orders flows by priority key: rank, ties broken by flow reference
// for determinism. Keys are unique per flow.
func keyCmp(a, b *flowState) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return refCmp(a, b)
}

// activeSet is the active flows sorted by keyCmp. next is Install's double
// buffer: the caller builds the new sequence in it and Install swaps the two.
type activeSet struct {
	fs   []*flowState
	next []*flowState
}

func (a *activeSet) Len() int { return len(a.fs) }

// Seek returns the position of the first flow not ranked before st (st's own
// position when it is a member).
func (a *activeSet) Seek(st *flowState) int {
	i, _ := slices.BinarySearchFunc(a.fs, st, keyCmp)
	return i
}

// Splice rewrites the set from position i on: completed flows there leave,
// and add — sorted by key, none ranked before fs[i-1] — merges in. One pass
// of compaction and one backward merge in place, O(len(fs)-i+len(add)).
func (a *activeSet) Splice(i int, add []*flowState) {
	w := i
	for _, st := range a.fs[i:] {
		if st.done {
			st.active = false
			continue
		}
		a.fs[w] = st
		w++
	}
	clear(a.fs[w:])
	n := w + len(add)
	a.fs = slices.Grow(a.fs[:w], len(add))[:n]
	j := w - 1
	for k, o := len(add)-1, n-1; k >= 0; o-- {
		if j >= i && keyCmp(add[k], a.fs[j]) < 0 {
			a.fs[o] = a.fs[j]
			j--
		} else {
			add[k].active = true
			a.fs[o] = add[k]
			k--
		}
	}
}

// Install makes next — the members a new order lists (it stamped them with
// gen), in order — the set's sequence and reports whether it changed. The
// members left out, if any, take the rank unlisted and follow in reference
// order, where keyCmp puts them. The old slice, cleared, is the next buffer.
func (a *activeSet) Install(next []*flowState, gen uint64, unlisted int) bool {
	listed := len(next)
	if listed < len(a.fs) {
		for _, st := range a.fs {
			if st.orderSeq != gen {
				st.rank = unlisted
				next = append(next, st)
			}
		}
		slices.SortFunc(next[listed:], refCmp)
	}
	changed := !slices.Equal(next, a.fs)
	clear(a.fs)
	a.fs, a.next = next, a.fs[:0]
	return changed
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
