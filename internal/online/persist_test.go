package online

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"coflowsched/internal/coflow"
)

// persistHarness drives one engine through the standard admit/decide/advance
// discipline over a generated workload, as Run does.
type persistHarness struct {
	eng      *Engine
	inst     *coflow.Instance
	arrivals []float64
	order    []int // coflow ids in arrival order
	next     int
}

func newPersistHarness(t *testing.T, inst *coflow.Instance, arrivals []float64, policy Policy) *persistHarness {
	t.Helper()
	eng, err := NewEngine(inst.Network, policy, Config{EpochLength: 1.5})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return arrivals[order[a]] < arrivals[order[b]] })
	return &persistHarness{eng: eng, inst: inst, arrivals: arrivals, order: order}
}

// run admits arrivals as their time passes and runs `epochs` decide/advance
// boundaries of length 1.5 from the engine's current clock.
func (h *persistHarness) run(t *testing.T, epochs int) {
	t.Helper()
	for i := 0; i < epochs; i++ {
		to := h.eng.Now() + 1.5
		for h.next < len(h.order) && h.arrivals[h.order[h.next]] <= to+1e-15 {
			id := h.order[h.next]
			got, err := h.eng.Admit(relativeCoflow(h.inst.Coflows[id], h.arrivals[id]), h.arrivals[id])
			if err != nil {
				t.Fatalf("admit coflow %d: %v", id, err)
			}
			if got != id {
				t.Fatalf("admit returned id %d, want %d", got, id)
			}
			h.next++
		}
		if err := h.eng.DecideSync(); err != nil {
			t.Fatalf("decide: %v", err)
		}
		if err := h.eng.AdvanceTo(to); err != nil {
			t.Fatalf("advance to %v: %v", to, err)
		}
	}
}

// TestExportRestoreRoundTrip checks the persistence invariant end to end: an
// engine exported mid-run, serialized through JSON (the snapshot wire format),
// restored, and driven to completion produces exactly the completions the
// uninterrupted engine does.
func TestExportRestoreRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"fifo", FIFOOnline{}},
		{"sebf", SEBFOnline{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, arrivals := engineWorkload(t, 11, 8)
			ref := newPersistHarness(t, inst, arrivals, tc.policy)
			cut := newPersistHarness(t, inst, arrivals, tc.policy)

			// Drive both identically for a few epochs, then cut one over.
			ref.run(t, 4)
			cut.run(t, 4)

			st := cut.eng.ExportState()
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatalf("marshal state: %v", err)
			}
			decoded := new(EngineState)
			if err := json.Unmarshal(raw, decoded); err != nil {
				t.Fatalf("unmarshal state: %v", err)
			}
			restored, err := RestoreEngine(inst.Network, tc.policy, Config{EpochLength: 1.5}, decoded)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if restored.Now() != cut.eng.Now() {
				t.Fatalf("restored clock %v, want %v", restored.Now(), cut.eng.Now())
			}

			// The restored engine replaces the original; the stream continues.
			cut.eng = restored
			ref.run(t, 30)
			cut.run(t, 30)
			if err := ref.eng.Drain(); err != nil {
				t.Fatalf("drain reference: %v", err)
			}
			if err := cut.eng.Drain(); err != nil {
				t.Fatalf("drain restored: %v", err)
			}

			for id := 0; id < len(inst.Coflows); id++ {
				want, ok1 := ref.eng.CoflowStatus(id)
				got, ok2 := cut.eng.CoflowStatus(id)
				if !ok1 || !ok2 {
					t.Fatalf("coflow %d missing: ref=%v restored=%v", id, ok1, ok2)
				}
				if !want.Done || !got.Done {
					t.Fatalf("coflow %d not drained: ref=%v restored=%v", id, want.Done, got.Done)
				}
				if math.Abs(want.Completion-got.Completion) > 1e-9 {
					t.Errorf("coflow %d completion %v, want %v (diff %g)",
						id, got.Completion, want.Completion, got.Completion-want.Completion)
				}
				if got.NumFlows != want.NumFlows || got.FlowsDone != want.FlowsDone {
					t.Errorf("coflow %d flows %d/%d, want %d/%d",
						id, got.FlowsDone, got.NumFlows, want.FlowsDone, want.NumFlows)
				}
			}
			ws, rs := ref.eng.Stats(), cut.eng.Stats()
			if rs.Completed != ws.Completed || rs.Admitted != ws.Admitted {
				t.Errorf("restored stats %d/%d completed/admitted, want %d/%d",
					rs.Completed, rs.Admitted, ws.Completed, ws.Admitted)
			}
			if math.Abs(rs.WeightedCCT-ws.WeightedCCT) > 1e-6 {
				t.Errorf("restored weighted CCT %v, want %v", rs.WeightedCCT, ws.WeightedCCT)
			}
		})
	}
}

// TestRestoreRejectsDamage exercises the restore-side validation: a state
// that is internally inconsistent must be refused, never half-loaded.
func TestRestoreRejectsDamage(t *testing.T) {
	inst, arrivals := engineWorkload(t, 12, 5)
	h := newPersistHarness(t, inst, arrivals, FIFOOnline{})
	h.run(t, 4)
	base := h.eng.ExportState()

	mutate := func(fn func(*EngineState)) *EngineState {
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		st := new(EngineState)
		if err := json.Unmarshal(raw, st); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		fn(st)
		return st
	}

	cases := map[string]*EngineState{
		"nil state":      nil,
		"load mismatch":  mutate(func(st *EngineState) { st.Load = st.Load[:len(st.Load)-1] }),
		"negative clock": mutate(func(st *EngineState) { st.Now = -1 }),
	}
	if len(base.Coflows) > 0 {
		cases["flow count mismatch"] = mutate(func(st *EngineState) { st.Coflows[0].FlowsLeft++ })
		cases["zero flows"] = mutate(func(st *EngineState) { st.Coflows[0].NumFlows = 0 })
	}
	activeID := -1
	for id := range base.Coflows {
		if len(base.Coflows[id].Flows) > 0 {
			activeID = id
			break
		}
	}
	if activeID < 0 {
		t.Fatal("workload left no active coflow at the cut point")
	}
	cases["zero residual"] = mutate(func(st *EngineState) { st.Coflows[activeID].Flows[0].Remaining = 0 })
	cases["bad flow index"] = mutate(func(st *EngineState) { st.Coflows[activeID].Flows[0].Index = -1 })
	cases["bad path"] = mutate(func(st *EngineState) { st.Coflows[activeID].Flows[0].Path = nil })

	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := RestoreEngine(inst.Network, FIFOOnline{}, Config{EpochLength: 1.5}, cases[name]); err == nil {
			t.Errorf("restore accepted state with %s", name)
		}
	}

	// And the unmutated state still restores.
	if _, err := RestoreEngine(inst.Network, FIFOOnline{}, Config{EpochLength: 1.5}, base); err != nil {
		t.Fatalf("restore of untouched state: %v", err)
	}
}
