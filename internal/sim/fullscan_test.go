package sim

// This file keeps the greedy allocator's full path scan — allocGreedy without
// the memory of the edge that blocked a flow left at rate 0 — as the oracle
// for that shortcut, with a copy of the event loop that drives it. The copy shares the simulator's state and every other helper, so
// on the same inputs the two must agree to the bit: every rate, every
// residual volume, every completion. Priority policy only; it is the only
// policy that runs the greedy.
//
// Semantics must never drift from Simulator's. Fix bugs in both or neither.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// fullScanRunUntil is RunUntil with every allocation a full path scan.
func (s *Simulator) fullScanRunUntil(until float64) error {
	s.budget += stepBudget(s.numFlows)
	for {
		if s.Done() || s.now >= until-timeTol {
			return nil
		}
		s.guard++
		if s.guard > s.budget {
			return fmt.Errorf("sim: event budget exhausted (likely a starving flow)")
		}
		if s.dirtyAll {
			s.fullScanAll(s.now)
			s.dirtyAll = false
		}
		if s.active.Len() == 0 {
			if s.pending.Len() == 0 {
				if !math.IsInf(until, 1) {
					s.now = until
				}
				return nil
			}
			t := s.pending.PeekTime()
			if t > until {
				if !math.IsInf(until, 1) {
					s.now = until
				}
				return nil
			}
			s.now = t
			s.fullScanEvent(t)
			continue
		}
		next := until
		if s.pending.Len() > 0 {
			if t := s.pending.PeekTime(); t < next {
				next = t
			}
		}
		if t, ok := s.nextCompletion(); ok && t < next {
			next = t
		}
		if s.posRates == 0 && s.pending.Len() == 0 {
			return fmt.Errorf("sim: no progress possible at time %v", s.now)
		}
		s.now = next
		s.fullScanEvent(next)
	}
}

// fullScanEvent is processEvent under the Priority policy.
func (s *Simulator) fullScanEvent(next float64) {
	s.batchDone = s.batchDone[:0]
	s.batchReleased = s.batchReleased[:0]
	for s.comp.Len() > 0 {
		top := s.comp.Peek()
		st := top.st
		if st.done || top.seq != st.heapSeq {
			s.comp.Pop()
			continue
		}
		if st.rate*(top.t-next) > completionTol*st.size {
			break
		}
		s.comp.Pop()
		s.complete(st, next)
		s.batchDone = append(s.batchDone, st)
	}
	for s.pending.Len() > 0 && s.pending.PeekTime() <= next+timeTol {
		s.batchReleased = append(s.batchReleased, s.pending.Pop())
	}
	if len(s.batchDone) == 0 && len(s.batchReleased) == 0 {
		return
	}
	s.eventSeq++
	from := s.dirtyFrom()
	if s.eventSeq%rebaseEvery == 0 {
		for _, st := range s.batchDone {
			s.retire(st)
		}
		s.active.Splice(from, s.batchReleased)
		s.fullScanAll(next)
	} else {
		for _, st := range s.active.fs[from:] {
			if st.rate > 0 {
				for _, e := range st.path {
					s.residual[e] += st.rate
				}
			}
		}
		for _, st := range s.batchDone {
			s.retire(st)
		}
		s.active.Splice(from, s.batchReleased)
		s.fullScanRedo(from, next)
	}
	s.maybeCompact()
}

func (s *Simulator) fullScanAll(now float64) {
	copy(s.residual, s.caps)
	s.fullScanRedo(0, now)
}

func (s *Simulator) fullScanRedo(from int, now float64) {
	for _, st := range s.active.fs[from:] {
		s.fullScanGreedy(st, now)
	}
}

// fullScanGreedy gives one flow the bottleneck residual capacity of its
// path, scanning the whole path every time.
func (s *Simulator) fullScanGreedy(st *flowState, now float64) {
	r := math.Inf(1)
	for _, e := range st.path {
		if s.residual[e] < r {
			r = s.residual[e]
		}
	}
	if r < minRate || math.IsInf(r, 1) {
		r = 0
	}
	if r != st.rate {
		s.setRate(st, r, now)
	}
	if r > 0 {
		for _, e := range st.path {
			s.residual[e] -= r
		}
	}
}

// blockedCase draws a random fabric — a bidirectional ring plus random
// chords, some edges of capacity exactly minRate — and random flows on it,
// then steps the simulator and the full-scan copy side by side through random
// partial orders and mid-run admissions, comparing every flow with == after
// every step. It returns how many times a flow was seen remembering a
// blocking edge, so a sweep can check the shortcut had work to do.
func blockedCase(t testing.TB, seed int64, nodes, flows, satPct uint8) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	n := 3 + int(nodes)%6
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("h%d", i), graph.KindHost)
	}
	capacity := func() float64 {
		if rng.Intn(100) < int(satPct)%60 {
			return minRate
		}
		return []float64{0.5, 1, 1, 2, 3}[rng.Intn(5)]
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), capacity())
		g.AddEdge(graph.NodeID((i+1)%n), graph.NodeID(i), capacity())
	}
	for i := 0; i < n; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			g.AddEdge(graph.NodeID(a), graph.NodeID(b), capacity())
		}
	}
	flow := func(release float64) coflow.Flow {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		paths := g.KShortestPaths(graph.NodeID(src), graph.NodeID(dst), 3)
		return coflow.Flow{
			Source: graph.NodeID(src), Dest: graph.NodeID(dst),
			Size: 0.25 + 4*rng.Float64(), Release: release,
			Path: paths[rng.Intn(len(paths))],
		}
	}
	release := func(now float64) float64 {
		if rng.Intn(3) == 0 {
			return now + float64(rng.Intn(3)) // shared release times: batches
		}
		return now + 3*rng.Float64()
	}
	inst := &coflow.Instance{Network: g}
	for f := 1 + int(flows)%40; f > 0; {
		var cf coflow.Coflow
		for w := 1 + rng.Intn(4); w > 0 && f > 0; w, f = w-1, f-1 {
			cf.Flows = append(cf.Flows, flow(release(0)))
		}
		inst.Coflows = append(inst.Coflows, cf)
	}
	refs := inst.FlowRefs()
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	got, err := New(inst, Config{Order: refs, Policy: Priority})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(inst, Config{Order: refs, Policy: Priority})
	if err != nil {
		t.Fatal(err)
	}

	blocked := 0
	compare := func(step int) {
		t.Helper()
		if got.now != want.now {
			t.Fatalf("seed %d step %d: clock %v, full scan %v", seed, step, got.now, want.now)
		}
		for _, a := range got.registered() {
			ref, b := a.ref, want.flow(a.ref)
			if a.rate != b.rate || a.remaining != b.remaining || a.lastT != b.lastT ||
				a.done != b.done || a.completion != b.completion {
				t.Fatalf("seed %d step %d: flow %s rate %v remaining %v done %v at %v, full scan rate %v remaining %v done %v at %v",
					seed, step, ref, a.rate, a.remaining, a.done, a.completion, b.rate, b.remaining, b.done, b.completion)
			}
			if a.active && a.blocked >= 0 {
				blocked++
			}
		}
		if gc, wc := got.TakeCompletions(), want.TakeCompletions(); !slices.Equal(gc, wc) {
			t.Fatalf("seed %d step %d: completions %v, full scan %v", seed, step, gc, wc)
		}
	}
	for step := 0; step < 60 && !got.Done(); step++ {
		switch rng.Intn(4) {
		case 0: // a random partial order
			var order []coflow.FlowRef
			for _, st := range got.registered() {
				if !st.done {
					order = append(order, st.ref)
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			order = order[:rng.Intn(len(order)+1)]
			if _, err := got.SetOrder(order); err != nil {
				t.Fatal(err)
			}
			if _, err := want.SetOrder(order); err != nil {
				t.Fatal(err)
			}
		case 1: // a mid-run admission
			ref := coflow.FlowRef{Coflow: len(inst.Coflows) + step}
			f := flow(release(got.now))
			if err := got.AddFlow(ref, f, nil); err != nil {
				t.Fatal(err)
			}
			if err := want.AddFlow(ref, f, nil); err != nil {
				t.Fatal(err)
			}
		}
		until := got.now + 3*rng.Float64()
		errG, errW := got.RunUntil(until), want.fullScanRunUntil(until)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("seed %d step %d: RunUntil error %v, full scan %v", seed, step, errG, errW)
		}
		compare(step)
	}
	errG, errW := got.RunUntil(math.Inf(1)), want.fullScanRunUntil(math.Inf(1))
	if errG != nil || errW != nil {
		t.Fatalf("seed %d: run to completion: %v, full scan %v", seed, errG, errW)
	}
	compare(-1)
	return blocked
}

// TestBlockedFlowShortcutMatchesFullScan sweeps seeds and saturation levels
// through blockedCase and checks the shortcut was exercised at all.
func TestBlockedFlowShortcutMatchesFullScan(t *testing.T) {
	blocked := 0
	for seed := int64(1); seed <= 40; seed++ {
		blocked += blockedCase(t, seed, uint8(seed), uint8(3*seed), uint8(seed%4)*10)
	}
	if blocked == 0 {
		t.Fatal("no flow ever remembered a blocking edge: the sweep does not exercise the shortcut")
	}
}

// FuzzBlockedFlowShortcut lets the mutator pick the seed, the fabric size,
// the flow count and how often an edge has capacity exactly minRate.
func FuzzBlockedFlowShortcut(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(0))
	f.Add(int64(2), uint8(2), uint8(39), uint8(20))
	f.Add(int64(3), uint8(0), uint8(12), uint8(45))
	f.Fuzz(func(t *testing.T, seed int64, nodes, flows, satPct uint8) {
		blockedCase(t, seed, nodes, flows, satPct)
	})
}

// TestBlockedFlowSkipsOnlyWhileSaturated walks one flow through the
// shortcut's edges: blocked below minRate, granted exactly minRate (the scan
// does not round that to 0), and blocked again once the edge saturates — a
// flow holding a rate must not skip the scan on a stale memory.
func TestBlockedFlowSkipsOnlyWhileSaturated(t *testing.T) {
	s := &Simulator{residual: []float64{5, minRate / 2, 5}}
	st := &flowState{path: graph.Path{0, 1, 2}, remaining: 1, size: 1, blocked: -1}
	check := func(what string, rate float64, blocked graph.EdgeID) {
		t.Helper()
		if st.rate != rate || st.blocked != blocked {
			t.Fatalf("%s: rate %v blocked %d, want rate %v blocked %d", what, st.rate, st.blocked, rate, blocked)
		}
	}
	s.allocGreedy(st, 0)
	check("below minRate", 0, 1)
	s.residual[1] = minRate
	s.allocGreedy(st, 0)
	check("exactly minRate", minRate, -1)
	if s.residual[1] != 0 {
		t.Fatalf("grant left residual %v on the bottleneck, want 0", s.residual[1])
	}
	s.allocGreedy(st, 0)
	check("saturated again", 0, 1)
}
