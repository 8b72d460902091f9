package online

import (
	"math"
	"reflect"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// engineCapture freezes every externally observable surface of an engine:
// the persistence export, the aggregate stats, the policy snapshot, the
// applied order and the raw routing-load vector. A failed admission must
// leave all of them byte-identical.
type engineCapture struct {
	state *EngineState
	stats EngineStats
	snap  *Snapshot
	order []coflow.FlowRef
	load  []float64
}

func captureEngine(e *Engine) engineCapture {
	return engineCapture{
		state: e.ExportState(),
		stats: e.Stats(),
		snap:  e.Snapshot(),
		order: e.Order(),
		load:  append([]float64(nil), e.load...),
	}
}

func assertCaptureEqual(t *testing.T, label string, before, after engineCapture) {
	t.Helper()
	if !reflect.DeepEqual(before.state, after.state) {
		t.Errorf("%s: ExportState changed across failed admission", label)
	}
	if !reflect.DeepEqual(before.stats, after.stats) {
		t.Errorf("%s: Stats changed across failed admission:\nbefore %+v\nafter  %+v", label, before.stats, after.stats)
	}
	if !reflect.DeepEqual(before.snap, after.snap) {
		t.Errorf("%s: Snapshot changed across failed admission", label)
	}
	if !reflect.DeepEqual(before.order, after.order) {
		t.Errorf("%s: Order changed across failed admission", label)
	}
	for i := range before.load {
		if before.load[i] != after.load[i] {
			t.Errorf("%s: routing load for edge %d changed: %v != %v (not byte-identical)",
				label, i, after.load[i], before.load[i])
		}
	}
}

// TestAdmitRollbackExact drives both mid-admission failure paths — routing
// failure (no path for a later flow) and simulator registration failure
// (flow reference already taken) — after the engine has real in-flight
// state, and checks the rollback is exact: every observable surface is
// byte-identical to the pre-admission capture, and the engine's subsequent
// behavior matches a control engine that never saw the failed admissions.
func TestAdmitRollbackExact(t *testing.T) {
	g := graph.FatTree(4, 1)
	isolated := g.AddNode("isolated", graph.KindHost) // reachable by nothing
	hosts := g.Hosts()
	if len(hosts) < 5 {
		t.Fatalf("fat-tree has only %d hosts", len(hosts))
	}
	newEngine := func() *Engine {
		e, err := NewEngine(g, SEBFOnline{}, Config{EpochLength: 0.5})
		if err != nil {
			t.Fatalf("new engine: %v", err)
		}
		return e
	}
	goodCoflow := func(seed int) coflow.Coflow {
		return coflow.Coflow{
			Name:   "good",
			Weight: 1 + float64(seed),
			Flows: []coflow.Flow{
				{Source: hosts[seed%4], Dest: hosts[(seed+1)%4], Size: 3 + float64(seed)},
				{Source: hosts[(seed+2)%4], Dest: hosts[(seed+3)%4], Size: 2},
			},
		}
	}
	advance := func(e *Engine, to float64) {
		if err := e.DecideSync(); err != nil {
			t.Fatalf("decide: %v", err)
		}
		if err := e.AdvanceTo(to); err != nil {
			t.Fatalf("advance: %v", err)
		}
	}

	e, control := newEngine(), newEngine()
	for _, eng := range []*Engine{e, control} {
		if _, err := eng.Admit(goodCoflow(0), 0); err != nil {
			t.Fatalf("seed admission: %v", err)
		}
		advance(eng, 0.5)
	}

	// Failure path 1: the second flow has no route, so pickPath fails after
	// flow 0 was already routed and charged to the load vector.
	before := captureEngine(e)
	unroutable := coflow.Coflow{
		Weight: 1,
		Flows: []coflow.Flow{
			{Source: hosts[0], Dest: hosts[1], Size: 2},
			{Source: hosts[2], Dest: isolated, Size: 2},
		},
	}
	if _, err := e.Admit(unroutable, e.Now()); err == nil {
		t.Fatalf("admission of unroutable coflow succeeded")
	}
	assertCaptureEqual(t, "unroutable", before, captureEngine(e))

	// Failure path 2: the second flow's reference is already registered in
	// the simulator, so AddFlow fails after flow 0 was registered — the
	// rollback must remove flow 0 from the simulator again.
	squat := coflow.FlowRef{Coflow: e.NumCoflows(), Index: 1}
	squatPath := g.ShortestPath(hosts[0], hosts[1])
	if len(squatPath) == 0 {
		t.Fatalf("no path between hosts")
	}
	if err := e.sim.AddFlow(squat, coflow.Flow{Source: hosts[0], Dest: hosts[1], Size: 1, Release: e.Now() + 10}, squatPath); err != nil {
		t.Fatalf("squatting flow ref: %v", err)
	}
	before = captureEngine(e)
	if _, err := e.Admit(goodCoflow(1), e.Now()); err == nil {
		t.Fatalf("admission over squatted flow ref succeeded")
	}
	assertCaptureEqual(t, "squatted", before, captureEngine(e))
	if err := e.sim.Remove(squat); err != nil {
		t.Fatalf("removing squatted flow: %v", err)
	}

	// After both failures the engine must behave exactly like the control
	// engine that never saw them: same ids, same routing, same trajectory.
	for seed := 1; seed <= 3; seed++ {
		now := e.Now()
		id, err := e.Admit(goodCoflow(seed), now)
		if err != nil {
			t.Fatalf("post-failure admission %d: %v", seed, err)
		}
		cid, err := control.Admit(goodCoflow(seed), now)
		if err != nil {
			t.Fatalf("control admission %d: %v", seed, err)
		}
		if id != cid {
			t.Fatalf("post-failure admission got id %d, control got %d", id, cid)
		}
		advance(e, now+0.5)
		advance(control, now+0.5)
	}
	for !e.Done() || !control.Done() {
		now := e.Now()
		advance(e, now+0.5)
		advance(control, now+0.5)
		if now > 1e6 {
			t.Fatalf("engines did not drain")
		}
	}
	est, cst := e.ExportState(), control.ExportState()
	est.SolveLatencies, cst.SolveLatencies = nil, nil // wall-clock, not deterministic
	if !reflect.DeepEqual(est, cst) {
		t.Fatalf("engine state diverged from control after rolled-back admissions")
	}
	es, cs := e.Stats(), control.Stats()
	if es.WeightedCCT != cs.WeightedCCT || es.WeightedResponse != cs.WeightedResponse ||
		es.Completed != cs.Completed || math.Abs(es.Now-cs.Now) != 0 {
		t.Fatalf("aggregates diverged from control: %+v vs %+v", es, cs)
	}
}

// TestAdmitRollbackLoadBitExact pins the undo log: a mid-coflow failure must
// restore the routing load bit for bit even where subtracting the charged
// sizes again would not — a size that swamps the prior load ((x+1e16)-1e16
// loses x), prior loads with no short binary form, and a pre-assigned walk
// that charges one edge twice.
func TestAdmitRollbackLoadBitExact(t *testing.T) {
	g := graph.FatTree(4, 1)
	isolated := g.AddNode("isolated", graph.KindHost)
	hosts := g.Hosts()
	e, err := NewEngine(g, SEBFOnline{}, Config{EpochLength: 0.5})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	for i, size := range []float64{0.1, 0.2, 0.7, 1.0 / 3} {
		cf := coflow.Coflow{Weight: 1, Flows: []coflow.Flow{
			{Source: hosts[i%3], Dest: hosts[3], Size: size},
			{Source: hosts[0], Dest: hosts[1+i%3], Size: size / 7},
		}}
		if _, err := e.Admit(cf, 0); err != nil {
			t.Fatalf("seed admission %d: %v", i, err)
		}
	}
	// hosts[0] -> its edge switch and back, twice over, then on to hosts[1]:
	// a valid walk that crosses the host's uplink and downlink twice.
	up := g.ShortestPath(hosts[0], hosts[1])[0]
	var down graph.EdgeID = -1
	for _, eid := range g.Out(g.Edge(up).To) {
		if g.Edge(eid).To == hosts[0] {
			down = eid
		}
	}
	if down < 0 {
		t.Fatalf("no downlink to host %d", hosts[0])
	}
	walk := append(graph.Path{up, down}, g.ShortestPath(hosts[0], hosts[1])...)

	before := make([]uint64, len(e.load))
	for i, v := range e.load {
		before[i] = math.Float64bits(v)
	}
	failing := coflow.Coflow{Weight: 1, Flows: []coflow.Flow{
		{Source: hosts[0], Dest: hosts[3], Size: 1e16},
		{Source: hosts[1], Dest: hosts[3], Size: 0.3},
		{Source: hosts[0], Dest: hosts[1], Size: 0.1, Path: walk},
		{Source: hosts[2], Dest: isolated, Size: 1}, // no route: fails after three flows were charged
	}}
	if _, err := e.Admit(failing, 0); err == nil {
		t.Fatalf("admission of unroutable coflow succeeded")
	}
	for i, v := range e.load {
		if got := math.Float64bits(v); got != before[i] {
			t.Errorf("edge %d: load bits %#x after rollback, %#x before (%v vs %v)",
				i, got, before[i], v, math.Float64frombits(before[i]))
		}
	}
}
