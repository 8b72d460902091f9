package online

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// onlineInstance draws a reproducible online workload on a k=4 fat-tree.
func onlineInstance(t *testing.T, seed int64, rate float64, numCoflows int) *coflow.Instance {
	t.Helper()
	g := graph.FatTree(4, 1)
	inst, _, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{NumCoflows: numCoflows, Width: 3, MeanSize: 4, MeanWeight: 1},
		Rate:   rate,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return inst
}

func policies() []Policy {
	return []Policy{
		FIFOOnline{},
		SEBFOnline{},
		LPEpoch{},
		NewOracle(baselines.SEBF{}),
	}
}

// TestPoliciesProduceFeasibleSchedules runs every policy end to end and
// validates the transcript against the original instance.
func TestPoliciesProduceFeasibleSchedules(t *testing.T) {
	inst := onlineInstance(t, 3, 1.0, 6)
	for _, p := range policies() {
		res, err := Run(inst, p, Config{EpochLength: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := res.Schedule.Validate(inst); err != nil {
			t.Errorf("%s produced an infeasible schedule: %v", p.Name(), err)
		}
		if res.WeightedCCT <= 0 {
			t.Errorf("%s: weighted CCT %v not positive", p.Name(), res.WeightedCCT)
		}
		for i, sl := range res.Slowdown {
			if sl < 1-1e-6 {
				t.Errorf("%s: coflow %d slowdown %v < 1 (faster than its isolated bottleneck)", p.Name(), i, sl)
			}
		}
	}
}

// TestDeterminism: same seed and config imply an identical weighted CCT, for
// every policy — including the LP, whose orders are applied one epoch late:
// which decision an epoch applies depends only on epoch indices, never on
// solver wall-clock speed.
func TestDeterminism(t *testing.T) {
	for _, p := range policies() {
		var first float64
		for run := 0; run < 3; run++ {
			inst := onlineInstance(t, 11, 1.5, 6)
			res, err := Run(inst, p, Config{EpochLength: 1.5, Seed: 9})
			if err != nil {
				t.Fatalf("%s run %d: %v", p.Name(), run, err)
			}
			if run == 0 {
				first = res.WeightedCCT
			} else if res.WeightedCCT != first {
				t.Errorf("%s: run %d weighted CCT %v != first run %v", p.Name(), run, res.WeightedCCT, first)
			}
		}
	}
}

// TestConservation: across however many epoch boundaries and preemptions,
// every flow's transmitted volume equals its size at completion.
func TestConservation(t *testing.T) {
	inst := onlineInstance(t, 17, 2.0, 8)
	for _, p := range policies() {
		res, err := Run(inst, p, Config{EpochLength: 0.75, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for _, ref := range inst.FlowRefs() {
			size := inst.Flow(ref).Size
			delivered := res.Schedule.Get(ref).Delivered()
			if math.Abs(delivered-size) > 1e-6*size {
				t.Errorf("%s: flow %s delivered %v of %v across epochs", p.Name(), ref, delivered, size)
			}
		}
	}
}

// asyncFIFO is FIFOOnline marked asynchronous, counting its Decide calls: a
// policy whose orders lag one epoch and come back in the view's order arena,
// which the next Decide overwrites.
type asyncFIFO struct{ decides int }

func (*asyncFIFO) Name() string { return "AsyncFIFO" }
func (*asyncFIFO) Async() bool  { return true }
func (p *asyncFIFO) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	p.decides++
	return FIFOOnline{}.Decide(snap)
}

// TestAsyncPolicyLagsOneEpoch pins the staleness model of an AsyncPolicy on a
// stream with two busy periods: a busy epoch with no decision waiting is a
// cold start and applies its own order (SnapshotEpoch == Epoch), every other
// epoch applies the order decided one epoch earlier (SnapshotEpoch ==
// Epoch-1), and the idle stretch between the periods empties the slot, so
// the second period cold-starts again.
func TestAsyncPolicyLagsOneEpoch(t *testing.T) {
	inst := onlineInstance(t, 23, 1.0, 6)
	for i := 4; i < len(inst.Coflows); i++ {
		for j := range inst.Coflows[i].Flows {
			inst.Coflows[i].Flows[j].Release += 200 // long after the first four drain
		}
	}
	policy := &asyncFIFO{}
	res, err := Run(inst, policy, Config{EpochLength: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	cold, lagged, waiting := 0, 0, false
	for _, e := range res.Epochs {
		want := -1
		switch {
		case waiting:
			want = e.Epoch - 1
			lagged++
		case e.ActiveFlows > 0:
			want = e.Epoch
			cold++
		}
		if e.SnapshotEpoch != want {
			t.Errorf("epoch %d (%d active flows) applied the order of epoch %d, want %d", e.Epoch, e.ActiveFlows, e.SnapshotEpoch, want)
		}
		waiting = e.ActiveFlows > 0 // a busy view is decided on, for the next epoch
	}
	if cold != 2 || lagged == 0 {
		t.Errorf("%d cold starts and %d lagged epochs, want 2 cold starts around one idle stretch; epochs: %+v", cold, lagged, res.Epochs)
	}
	if got := len(res.SolveLatencies()); got != policy.decides {
		t.Errorf("%d solve latencies for %d Decide calls", got, policy.decides)
	}
	if err := res.Schedule.Validate(inst); err != nil {
		t.Errorf("lagged schedule infeasible: %v", err)
	}
	// A FIFO order one epoch old ranks the flows it knows exactly as a fresh
	// one would and leaves newer arrivals last, where FIFO puts them anyway:
	// if every deferred order survived the next Decide's reuse of the arena,
	// the schedule is the synchronous one.
	fresh, err := Run(inst, FIFOOnline{}, Config{EpochLength: 2})
	if err != nil {
		t.Fatalf("synchronous run: %v", err)
	}
	for i := range fresh.CoflowCompletion {
		if res.CoflowCompletion[i] != fresh.CoflowCompletion[i] {
			t.Errorf("coflow %d completes at %v under the lagged FIFO order, %v under the fresh one", i, res.CoflowCompletion[i], fresh.CoflowCompletion[i])
		}
	}
}

// TestRunRejectsOutOfOrderArrivals: Run admits coflows in listed order, so an
// instance listing a later arrival first is refused, naming the pair.
func TestRunRejectsOutOfOrderArrivals(t *testing.T) {
	inst := onlineInstance(t, 3, 1.0, 4)
	inst.Coflows[1], inst.Coflows[2] = inst.Coflows[2], inst.Coflows[1]
	_, err := Run(inst, FIFOOnline{}, Config{EpochLength: 2})
	if err == nil {
		t.Fatalf("out-of-order instance accepted")
	}
	for _, name := range []string{"coflow 2", "coflow 1"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

// TestLPEpochPipelines: the real LP policy reports one-epoch-stale decisions
// and solve latencies.
func TestLPEpochPipelines(t *testing.T) {
	inst := onlineInstance(t, 29, 1.5, 5)
	res, err := Run(inst, LPEpoch{}, Config{EpochLength: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lats := res.SolveLatencies()
	if len(lats) == 0 {
		t.Fatalf("LP run recorded no solve latencies")
	}
	lagged := false
	for _, e := range res.Epochs {
		if e.SnapshotEpoch >= 0 && e.SnapshotEpoch < e.Epoch {
			lagged = true
		}
	}
	if !lagged {
		t.Errorf("LPEpoch never applied a one-epoch-stale decision (all epochs synchronous)")
	}
	if err := res.Schedule.Validate(inst); err != nil {
		t.Errorf("LP schedule infeasible: %v", err)
	}
}

// TestSnapshotCausality: a policy must never see a coflow before it arrives.
type snoopPolicy struct {
	t       *testing.T
	arrival []float64
}

func (snoopPolicy) Name() string { return "Snoop" }
func (p snoopPolicy) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	for _, cf := range snap.Coflows {
		if p.arrival[cf.Index] > snap.Now+1e-12 {
			p.t.Errorf("policy saw coflow %d (arrival %v) at time %v", cf.Index, p.arrival[cf.Index], snap.Now)
		}
		for _, f := range cf.Flows {
			if f.Remaining < -1e-9 || f.Remaining > f.Size+1e-9 {
				p.t.Errorf("coflow %d flow %s: remaining %v outside [0,%v]", cf.Index, f.Ref, f.Remaining, f.Size)
			}
		}
	}
	return FIFOOnline{}.Decide(snap)
}

func TestSnapshotCausality(t *testing.T) {
	g := graph.FatTree(4, 1)
	inst, arrivals, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{NumCoflows: 8, Width: 2, MeanSize: 4},
		Rate:   1.0,
	}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := Run(inst, snoopPolicy{t: t, arrival: arrivals}, Config{EpochLength: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestResidualInstance checks the LP policy's snapshot-to-instance
// conversion: sizes are residuals, releases are shifted, refs map back.
func TestResidualInstance(t *testing.T) {
	g := graph.FatTree(4, 1)
	hosts := g.Hosts()
	path := g.ShortestPath(hosts[0], hosts[1])
	snap := &Snapshot{
		Now:     10,
		Network: g,
		Coflows: []ResidualCoflow{
			{Index: 2, Name: "a", Weight: 2, Arrival: 4, Flows: []ResidualFlow{
				{Ref: coflow.FlowRef{Coflow: 2, Index: 0}, Source: hosts[0], Dest: hosts[1], Path: path, Release: 4, Size: 8, Remaining: 3},
				{Ref: coflow.FlowRef{Coflow: 2, Index: 1}, Source: hosts[0], Dest: hosts[1], Path: path, Release: 12, Size: 5, Remaining: 5},
				{Ref: coflow.FlowRef{Coflow: 2, Index: 2}, Source: hosts[0], Dest: hosts[1], Path: path, Release: 4, Size: 2, Remaining: 0},
			}},
		},
	}
	rinst, backrefs := residualInstance(snap)
	if rinst == nil {
		t.Fatalf("residual instance is nil")
	}
	if len(rinst.Coflows) != 1 || len(rinst.Coflows[0].Flows) != 2 {
		t.Fatalf("residual instance has wrong shape: %+v", rinst.Coflows)
	}
	f0 := rinst.Coflows[0].Flows[0]
	if f0.Size != 3 || f0.Release != 0 {
		t.Errorf("flow 0: size %v release %v, want 3 and 0", f0.Size, f0.Release)
	}
	f1 := rinst.Coflows[0].Flows[1]
	if f1.Size != 5 || f1.Release != 2 {
		t.Errorf("flow 1: size %v release %v, want 5 and 2", f1.Size, f1.Release)
	}
	if got := backrefs[coflow.FlowRef{Coflow: 0, Index: 0}]; got != (coflow.FlowRef{Coflow: 2, Index: 0}) {
		t.Errorf("backref of flow 0: %v", got)
	}
	if got := backrefs[coflow.FlowRef{Coflow: 0, Index: 1}]; got != (coflow.FlowRef{Coflow: 2, Index: 1}) {
		t.Errorf("backref of flow 1: %v", got)
	}
}

// TestSEBFAndLPBeatFIFO: at moderate load, reordering policies beat strict
// arrival order on weighted CCT (averaged over a few instances).
func TestSEBFAndLPBeatFIFO(t *testing.T) {
	cfg := Config{EpochLength: 2, Seed: 1}
	var fifo, sebf, lp float64
	for seed := int64(0); seed < 3; seed++ {
		inst := onlineInstance(t, 100+seed, 2.0, 8)
		for _, pr := range []struct {
			p   Policy
			sum *float64
		}{{FIFOOnline{}, &fifo}, {SEBFOnline{}, &sebf}, {LPEpoch{}, &lp}} {
			res, err := Run(inst, pr.p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", pr.p.Name(), err)
			}
			*pr.sum += res.WeightedCCT
		}
	}
	if sebf >= fifo {
		t.Errorf("SEBFOnline (%v) not better than FIFOOnline (%v)", sebf, fifo)
	}
	if lp >= fifo {
		t.Errorf("LPEpoch (%v) not better than FIFOOnline (%v)", lp, fifo)
	}
}

// singularResidual loads testdata/lp-singular-residual.json: 26 coflows, 45
// flows on their paths, all released at 0, whose given-path LP the simplex
// cannot solve ("singular basis"). It is the residual instance on which a
// strict synchronous LPEpoch failed at epoch 9 of a 32-coflow stream (seed 17,
// rate 4, width 3), less the flows that could go with the LP still failing.
func singularResidual(t *testing.T) *coflow.Instance {
	t.Helper()
	f, err := os.Open("testdata/lp-singular-residual.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := coflow.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestLPEpochSurvivesSolverFailure pins a workload that makes the pure-Go
// simplex fail ("singular basis"): singularResidual, whose LP is the first
// decide's of both the synchronous LPEpoch and the default, one epoch stale.
// Both must degrade to the SEBF order for a failed epoch and finish, not abort
// the run, and mark exactly the epochs the strict LP fails on as Fallback.
//
// The stream was 14 coflows at rate 2 from seed 1 until the factored kernel,
// on which every LP of that stream solves, as on every one of 573
// 14-coflow streams (seeds 20-210, rates 1, 2 and 4) and 160 of 20 or 24
// coflows (seeds 1-40, rates 2 and 4) searched for a failure.
func TestLPEpochSurvivesSolverFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second LP solves")
	}
	inst := singularResidual(t)
	total := 0
	for _, p := range []LPEpoch{{}, {Sync: true}} {
		res, err := Run(inst, p, Config{EpochLength: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s aborted on solver failure: %v", p.Name(), err)
		}
		if err := res.Schedule.Validate(inst); err != nil {
			t.Errorf("%s: schedule infeasible: %v", p.Name(), err)
		}
		fallbacks := 0
		for _, e := range res.Epochs {
			if e.Fallback {
				fallbacks++
			}
		}
		p.Strict = true
		strict := &countingPolicy{Policy: p}
		if _, err := Run(inst, strict, Config{EpochLength: 2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if fallbacks != len(strict.errs) {
			t.Errorf("%s: %d epochs marked Fallback, the strict LP failed %d times: %v", p.Name(), fallbacks, len(strict.errs), strict.errs)
		}
		total += fallbacks
	}
	if total == 0 {
		t.Error("no LP of the stream failed: it no longer tests the fallback")
	}
}

// countingPolicy counts the decides that reach the policy under it and keeps
// the errors they return, deciding by SEBF in their place: what the benchmark
// puts around a strict LPEpoch to make its fallbacks visible. It is as
// asynchronous as the policy under it.
type countingPolicy struct {
	Policy
	decides int
	errs    []error
}

func (p *countingPolicy) Async() bool {
	ap, ok := p.Policy.(AsyncPolicy)
	return ok && ap.Async()
}

func (p *countingPolicy) Decide(snap *Snapshot) ([]coflow.FlowRef, error) {
	p.decides++
	order, err := p.Policy.Decide(snap)
	if err == nil {
		return order, nil
	}
	p.errs = append(p.errs, err)
	return SEBFOnline{}.Decide(snap)
}

// TestOnlineLPStreamPinned replays the benchmark's online-lp-k4 stream at
// seed 1 the way bench/online.go builds and drives it: 240 coflows x width 3,
// arrival i uniform in the i-th slot of length 1/0.2, flows released on
// arrival, one epoch of length 1 at a time (admit what has arrived, decide,
// advance) under the strict synchronous LP. Every number is exact: the
// weighted completion time moves if any of the 1 198 residual LPs ends on a
// different vertex, the failure count if one stops solving.
//
// Re-pinned for the factored kernel: 146 432 became 146 444. The
// first LP to differ is the twelfth decide's: the same pivots, with values
// that differ in the last bits from pivot 12 on (objective 3.2222222222222214
// became 3.222222222222229); the next decide's residual LP already differs
// from its first pivot, so those bits changed the twelfth order. Every one of
// the 1 198 LPs of the new stream passes lp.Certify (EXPERIMENTS.md, "The
// inverse kept for the kernel").
func TestOnlineLPStreamPinned(t *testing.T) {
	const (
		n, width, rate = 240, 3, 0.2
		wantWCCT       = 146444.0
		wantEpochs     = 1211
		wantDecides    = 1198
	)
	g := graph.FatTree(4, 1)
	rng := rand.New(rand.NewSource(1))
	inst, err := workload.Generate(g, workload.Config{NumCoflows: n, Width: width, MeanSize: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]float64, n)
	for i := range inst.Coflows {
		arrivals[i] = (float64(i) + rng.Float64()) / rate
		for j := range inst.Coflows[i].Flows {
			inst.Coflows[i].Flows[j].Release = 0
		}
	}
	policy := &countingPolicy{Policy: LPEpoch{Sync: true, Strict: true}}
	eng, err := NewEngine(g, policy, Config{EpochLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	next, epochs := 0, 0
	for next < n || !eng.Done() {
		if epochs > 2*wantEpochs {
			t.Fatalf("stream not finished after %d epochs", epochs)
		}
		now := eng.Now()
		for ; next < n && arrivals[next] <= now; next++ {
			if _, err := eng.Admit(inst.Coflows[next], now); err != nil {
				t.Fatalf("admit %d: %v", next, err)
			}
		}
		if err := eng.DecideSync(); err != nil {
			t.Fatalf("epoch %d: decide: %v", epochs, err)
		}
		if err := eng.AdvanceTo(now + 1); err != nil {
			t.Fatalf("epoch %d: advance: %v", epochs, err)
		}
		epochs++
	}
	st := eng.Stats()
	if st.Completed != n {
		t.Errorf("%d of %d coflows completed", st.Completed, n)
	}
	if st.WeightedCCT != wantWCCT {
		t.Errorf("weighted CCT = %v, want %v", st.WeightedCCT, wantWCCT)
	}
	if epochs != wantEpochs || policy.decides != wantDecides {
		t.Errorf("%d epochs, %d LP decides, want %d and %d", epochs, policy.decides, wantEpochs, wantDecides)
	}
	for _, err := range policy.errs {
		t.Errorf("strict LP failed: %v", err)
	}
}

// TestPolicyByName: the daemons' -policy names resolve to the three
// incremental policies, and any other name is refused with the list.
func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{"sebf": "SEBFOnline", "fifo": "FIFOOnline", "lp": "LPEpoch"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != want {
			t.Errorf("PolicyByName(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := PolicyByName("wfq"); err == nil || !strings.Contains(err.Error(), "want sebf, fifo, lp") {
		t.Errorf("PolicyByName(wfq) error = %v, want the list of names", err)
	}
}
