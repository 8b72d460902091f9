package sim

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// tableInstance is three coflows of two flows on a 3-node line, contended
// enough that orders change rates and flows finish at different times.
func tableInstance(t testing.TB) *coflow.Instance {
	t.Helper()
	inst := &coflow.Instance{Network: graph.Line(3, 1)}
	for c := 0; c < 3; c++ {
		inst.Coflows = append(inst.Coflows, coflow.Coflow{Weight: 1, Flows: []coflow.Flow{
			{Source: 0, Dest: 2, Size: float64(1 + c), Release: float64(c) / 2},
			{Source: graph.NodeID(c % 2), Dest: graph.NodeID(1 + c%2), Size: 1},
		}})
	}
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatalf("paths: %v", err)
	}
	return inst
}

// outsideRefs are references the flow table of tableInstance cannot hold.
var outsideRefs = []coflow.FlowRef{
	{Coflow: -1, Index: 0}, {Coflow: 0, Index: -1}, {Coflow: -3, Index: -3},
	{Coflow: 3, Index: 0}, {Coflow: 1 << 40, Index: 0},
	{Coflow: 1, Index: 2}, {Coflow: 1, Index: 1 << 40},
}

// TestFlowTableOutsideRefs checks that negative references cannot be
// registered and that every query answers "unknown" for a reference outside
// the table instead of indexing past it.
func TestFlowTableOutsideRefs(t *testing.T) {
	inst := tableInstance(t)
	if _, err := New(inst, Config{Order: []coflow.FlowRef{{Coflow: -1, Index: 0}}}); err == nil {
		t.Errorf("New accepted an order naming a negative reference")
	}
	s, err := New(inst, Config{Order: inst.FlowRefs()})
	if err != nil {
		t.Fatal(err)
	}
	f := coflow.Flow{Source: 0, Dest: 1, Size: 1}
	for _, r := range []coflow.FlowRef{{Coflow: -1, Index: 0}, {Coflow: 5, Index: -1}, {Coflow: -1, Index: -1}} {
		if err := s.AddFlow(r, f, nil); err == nil {
			t.Errorf("AddFlow accepted negative reference %s", r)
		}
	}
	if s.numFlows != 6 || len(s.flows) != 3 {
		t.Fatalf("rejected registrations changed the table: %d flows in %d rows", s.numFlows, len(s.flows))
	}
	for _, r := range outsideRefs {
		if _, ok := s.Status(r); ok {
			t.Errorf("Status answered for %s", r)
		}
		if _, _, _, ok := s.Residual(r); ok {
			t.Errorf("Residual answered for %s", r)
		}
		if s.FlowSchedule(r) != nil {
			t.Errorf("FlowSchedule answered for %s", r)
		}
		if err := s.Remove(r); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("Remove(%s) = %v, want an unknown-flow error", r, err)
		}
		if _, err := s.SetOrder([]coflow.FlowRef{{Coflow: 0, Index: 0}, r}); err == nil {
			t.Errorf("SetOrder accepted %s", r)
		}
	}
	for _, id := range []int{-1, 3, 1 << 40} {
		if err := s.ForgetCoflow(id); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("ForgetCoflow(%d) = %v, want an unknown-coflow error", id, err)
		}
	}
}

// TestSetOrderKeptIgnoresStaleRanks pins the case that needs the listed
// stamp, not the rank alone: a flow that finished under one order, was left
// out of the next, and comes back at its old position. Nothing re-ranks a
// finished flow the order leaves out, so it still holds that position as its
// rank, yet it did not keep a place in the order it was missing from.
func TestSetOrderKeptIgnoresStaleRanks(t *testing.T) {
	inst := tableInstance(t)
	s, err := New(inst, Config{})
	if err != nil {
		t.Fatal(err)
	}
	short := coflow.FlowRef{Coflow: 0, Index: 1} // size 1 on 0-1: done at t=1
	other := coflow.FlowRef{Coflow: 2, Index: 1}
	if kept, err := s.SetOrder([]coflow.FlowRef{short, other}); err != nil || kept != 0 {
		t.Fatalf("first order: kept %d, %v", kept, err)
	}
	if kept, err := s.SetOrder([]coflow.FlowRef{short, other}); err != nil || kept != 2 {
		t.Fatalf("re-confirmed order: kept %d, want 2 (%v)", kept, err)
	}
	if err := s.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	if fs, _ := s.Status(short); !fs.Done {
		t.Fatalf("flow %s not done at t=1.5", short)
	}
	if kept, err := s.SetOrder([]coflow.FlowRef{other}); err != nil || kept != 0 {
		t.Fatalf("order without the finished flow: kept %d, want 0 (%v)", kept, err)
	}
	if kept, err := s.SetOrder([]coflow.FlowRef{short, other}); err != nil || kept != 0 {
		t.Fatalf("finished flow back at its old position: kept %d, want 0 (%v)", kept, err)
	}
}

// orderChurn is the map-based definition of the online engine's churn metric:
// the fraction of refs in the larger order whose rank changed (including refs
// present in only one of the two).
func orderChurn(old, new []coflow.FlowRef) float64 {
	denom := max(len(old), len(new))
	if denom == 0 {
		return 0
	}
	oldRank := make(map[coflow.FlowRef]int, len(old))
	for i, r := range old {
		oldRank[r] = i
	}
	changed := max(len(old)-len(new), 0)
	for i, r := range new {
		if rank, ok := oldRank[r]; !ok || rank != i {
			changed++
		}
	}
	return float64(changed) / float64(denom)
}

// FuzzSetOrder drives a small simulator through random sequences of orders
// (naming unknown, negative and duplicate references too), clock advances
// that finish flows, and coflow pruning. After every SetOrder it checks the
// error, every rank and the kept count against a map-based model of the
// previous order, and that the churn computed from the kept count is
// orderChurn's. A rejected order must leave every rank as it was.
func FuzzSetOrder(f *testing.F) {
	f.Add([]byte{0x1c, 0, 1, 2, 3, 4, 5, 6, 0x1c, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0x10, 6, 7, 8, 9, 0x0a, 0x10, 9, 8, 7, 6, 0x21, 0x11, 0x0c, 0x10, 6, 7, 8, 9})
	f.Add([]byte{0x08, 1, 1, 0x18, 2, 3, 0x2e, 19, 0x40, 0x07, 0x13, 0x14, 2, 3, 4, 8, 12})
	inst := tableInstance(f)
	refs := inst.FlowRefs()
	// Candidate references: coflow -1..3 by index -1..2, so a byte names a
	// registered flow about half the time.
	pick := func(b byte) coflow.FlowRef {
		return coflow.FlowRef{Coflow: int(b%20)/4 - 1, Index: int(b%4) - 1}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(inst, Config{})
		if err != nil {
			t.Fatal(err)
		}
		registered := map[coflow.FlowRef]bool{}
		for _, r := range refs {
			registered[r] = true
		}
		var prev []coflow.FlowRef // the last installed order
		for len(data) > 0 {
			op, arg := data[0]%4, int(data[0]/4)
			data = data[1:]
			switch op {
			case 0, 1: // an order of up to 12 refs
				n := min(arg%13, len(data))
				order := make([]coflow.FlowRef, n)
				for i := range order {
					order[i] = pick(data[i])
				}
				data = data[n:]
				if checkSetOrder(t, s, registered, prev, order) {
					prev = order
				}
			case 2: // advance the clock, finishing flows
				if err := s.RunUntil(s.Now() + float64(arg)/8); err != nil {
					t.Fatal(err)
				}
			case 3: // prune a coflow, as the online engine does once it is done
				id := arg%5 - 1
				want := false
				for r := range registered {
					if r.Coflow == id {
						want = true
						if fs, _ := s.Status(r); !fs.Done {
							want = false
							break
						}
					}
				}
				if err := s.ForgetCoflow(id); (err == nil) != want {
					t.Fatalf("ForgetCoflow(%d) = %v, want success %v", id, err, want)
				}
				if want {
					maps.DeleteFunc(registered, func(r coflow.FlowRef, _ bool) bool { return r.Coflow == id })
				}
			}
		}
	})
}

// checkSetOrder installs order and checks the outcome against the model; it
// reports whether the order was installed.
func checkSetOrder(t *testing.T, s *Simulator, registered map[coflow.FlowRef]bool, prev, order []coflow.FlowRef) bool {
	t.Helper()
	wantErr := ""
	seen := map[coflow.FlowRef]bool{}
	for _, r := range order {
		if !registered[r] {
			wantErr = "unknown flow"
			break
		}
		if seen[r] {
			wantErr = "appears twice"
			break
		}
		seen[r] = true
	}
	ranks := func() map[coflow.FlowRef]int {
		out := map[coflow.FlowRef]int{}
		for _, st := range s.registered() {
			out[st.ref] = st.rank
		}
		return out
	}
	before := ranks()
	kept, err := s.SetOrder(order)
	if wantErr != "" {
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("SetOrder(%v) = %v, want an error containing %q", order, err, wantErr)
		}
		if after := ranks(); !maps.Equal(before, after) {
			t.Fatalf("rejected SetOrder(%v) re-ranked flows: %v -> %v", order, before, after)
		}
		return false
	}
	if err != nil {
		t.Fatalf("SetOrder(%v): %v", order, err)
	}
	wantKept := 0
	for i, r := range order {
		if i < len(prev) && prev[i] == r {
			wantKept++
		}
	}
	if kept != wantKept {
		t.Fatalf("SetOrder(%v) after %v: kept %d, want %d", order, prev, kept, wantKept)
	}
	for _, st := range s.registered() {
		want := len(order)
		if seen[st.ref] {
			want = slices.Index(order, st.ref)
		} else if st.done {
			continue // a finished flow the order leaves out is never ranked again
		}
		if st.rank != want {
			t.Fatalf("SetOrder(%v): flow %s ranks %d, want %d", order, st.ref, st.rank, want)
		}
	}
	m, n := len(prev), len(order)
	got := 0.0
	if m > 0 || n > 0 {
		got = float64(max(m-n, 0)+n-kept) / float64(max(m, n))
	}
	if want := orderChurn(prev, order); got != want {
		t.Fatalf("%v after %v: churn from kept %v, orderChurn %v", order, prev, got, want)
	}
	return true
}
