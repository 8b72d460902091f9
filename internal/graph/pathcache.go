package graph

// Candidate-path memoization. Yen's k-shortest-paths search is the single
// most expensive pure function in the serving stack — every online engine
// used to recompute the same (src, dst, k) candidate sets against the same
// immutable topology. The memo lives on the Graph so every engine, policy
// and benchmark sharing a topology shares one cache; it is safe for
// concurrent readers and is invalidated wholesale if the graph mutates.

// kspMemoCap bounds the memo: an insertion that finds it full clears it first.
// Unbounded, a daemon keeps every pair it ever routed — a k=8 fat-tree has
// 16 256 host pairs at several hundred bytes of paths each. 1024 entries hold
// all 240 pairs of a k=4 fat-tree, so the small fabric never misses after
// warm-up; on larger ones a miss is tens of microseconds (see
// BenchmarkKShortestPaths), cheap enough that clearing everything beats the
// per-hit bookkeeping an LRU would add to the 50 ns hit path.
const kspMemoCap = 1024

type kspKey struct {
	src, dst NodeID
	k        int
}

// KShortestPathsCached is KShortestPaths with per-graph memoization. The
// returned slice is shared: callers must treat it (and the contained paths)
// as read-only. Concurrent callers are safe; a cache miss may compute the
// same entry twice under contention, but both computations are identical so
// either result stands.
func (g *Graph) KShortestPathsCached(src, dst NodeID, k int) []Path {
	key := kspKey{src: src, dst: dst, k: k}
	g.kspMu.RLock()
	paths, ok := g.kspMemo[key]
	g.kspMu.RUnlock()
	if ok {
		return paths
	}
	paths = g.KShortestPaths(src, dst, k)
	g.kspMu.Lock()
	if g.kspMemo == nil {
		g.kspMemo = make(map[kspKey][]Path)
	}
	if prior, ok := g.kspMemo[key]; ok {
		paths = prior // keep the first insertion so callers share one slice
	} else {
		if len(g.kspMemo) >= kspMemoCap {
			clear(g.kspMemo)
		}
		g.kspMemo[key] = paths
	}
	g.kspMu.Unlock()
	return paths
}

// invalidateCaches drops memoized derived state after a topology mutation.
func (g *Graph) invalidateCaches() {
	g.kspMu.Lock()
	g.kspMemo = nil
	g.kspMu.Unlock()
}

// btScratch is the reusable accumulation arena for BottleneckTime. Entries
// are valid only when stamped with the current generation, so acquiring the
// scratch never pays an O(edges) clear.
type btScratch struct {
	vals  []float64
	stamp []uint32
	cur   uint32
}
