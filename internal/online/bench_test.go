package online

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

func benchRun(b *testing.B, p Policy) {
	g := graph.FatTree(4, 1)
	inst, _, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{NumCoflows: 8, Width: 3, MeanSize: 4},
		Rate:   2.0,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(inst, p, Config{EpochLength: 2}); err != nil {
			b.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func BenchmarkOnlineFIFO(b *testing.B)    { benchRun(b, FIFOOnline{}) }
func BenchmarkOnlineSEBF(b *testing.B)    { benchRun(b, SEBFOnline{}) }
func BenchmarkOnlineLPEpoch(b *testing.B) { benchRun(b, LPEpoch{}) }

// tickWorkload is the shared input for the engine-tick benchmark pair:
// BenchmarkEngineTick and BenchmarkEngineTickTelemetry MUST drive byte-for-
// byte identical engine work so their delta isolates the instrumentation
// cost. Both build it from the same seed and both replay it through
// runTickStream; only the telemetry hooks differ.
type tickWorkload struct {
	g        *graph.Graph
	wire     []coflow.Coflow
	arrTimes []float64
}

// tickTelemetry is the per-tick instrumentation coflowd layers on the engine:
// a tick-duration histogram observation, a lifecycle span per admission and
// completion (trace-id bookkeeping included), the epoch introspection reads
// (OrderChurn, ActiveCounts, Epoch, TakeCompleted) and the per-tick
// allocator-stats drain (TakeTickStats). nil disables all of it.
type tickTelemetry struct {
	tickDur   *telemetry.Histogram
	admitted  *telemetry.Counter
	completed *telemetry.Counter
	tracer    *telemetry.Tracer
}

func newTickWorkload(b *testing.B) tickWorkload {
	g := graph.FatTree(4, 1)
	rng := rand.New(rand.NewSource(7))
	inst, arrivals, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{NumCoflows: 150, Width: 4, MeanSize: 4, MeanWeight: 1},
		Rate:   2.0,
	}, rng)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return arrivals[order[x]] < arrivals[order[y]] })
	// Pre-strip the wire-shaped coflows outside the timed loop.
	wire := make([]coflow.Coflow, len(order))
	arrTimes := make([]float64, len(order))
	for i, id := range order {
		cf := inst.Coflows[id]
		out := coflow.Coflow{Name: cf.Name, Weight: cf.Weight, Flows: make([]coflow.Flow, len(cf.Flows))}
		copy(out.Flows, cf.Flows)
		for j := range out.Flows {
			out.Flows[j].Release -= arrivals[id]
			out.Flows[j].Path = nil
		}
		wire[i] = out
		arrTimes[i] = arrivals[id]
	}
	return tickWorkload{g: g, wire: wire, arrTimes: arrTimes}
}

func newTickTelemetry() *tickTelemetry {
	reg := telemetry.NewRegistry()
	return &tickTelemetry{
		tickDur:   reg.Histogram("bench_tick_duration_seconds", "per-tick wall latency", telemetry.DefTimeBuckets),
		admitted:  reg.Counter("bench_coflows_admitted_total", "admissions"),
		completed: reg.Counter("bench_coflows_completed_total", "completions"),
		tracer:    telemetry.NewTracer("bench", "", 4096),
	}
}

// runTickStream replays the whole arrival stream through a fresh engine,
// epoch by epoch (decide + advance, the coflowd scheduler loop).
func runTickStream(b *testing.B, w tickWorkload, tel *tickTelemetry) {
	const epoch = 1.0
	eng, err := NewEngine(w.g, SEBFOnline{}, Config{EpochLength: epoch})
	if err != nil {
		b.Fatal(err)
	}
	var traceIDs map[int]string
	if tel != nil {
		traceIDs = make(map[int]string)
	}
	next := 0
	for now := 0.0; !eng.Done() || next < len(w.wire); now += epoch {
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		for next < len(w.wire) && w.arrTimes[next] <= now+epoch {
			id, err := eng.Admit(w.wire[next], w.arrTimes[next])
			if err != nil {
				b.Fatal(err)
			}
			if tel != nil {
				trace := telemetry.NewTraceID()
				traceIDs[id] = trace
				tel.tracer.Record(telemetry.Span{Trace: trace, Name: "shard-admit", Coflow: id, Wall: t0})
				tel.admitted.Inc()
			}
			next++
		}
		if err := eng.DecideSync(); err != nil {
			b.Fatal(err)
		}
		if err := eng.AdvanceTo(now + epoch); err != nil {
			b.Fatal(err)
		}
		if tel != nil {
			for _, id := range eng.TakeCompleted() {
				tel.tracer.Record(telemetry.Span{Trace: traceIDs[id], Name: "completion", Coflow: id, Wall: t0})
				delete(traceIDs, id)
				tel.completed.Inc()
			}
			_ = eng.OrderChurn()
			_, _ = eng.ActiveCounts()
			_ = eng.Epoch()
			_ = eng.TakeTickStats()
			tel.tickDur.Observe(time.Since(t0).Seconds())
		}
	}
}

// benchTickPair is the shared harness behind the engine-tick pair. Both
// benchmarks execute BOTH variants every iteration — bare and instrumented —
// and time only their own, so warm caches (notably the k-shortest-paths
// memo on the shared Graph) and CPU state are identical for the two names no
// matter which one the `go test -bench` run invokes first. A full untimed
// pass of each variant precedes the timer for the same reason: without it
// whichever benchmark ran second inherited a warm path cache and measured
// faster than its twin, inverting the overhead sign (the pr9 anomaly).
//
// Because each benchmark times both variants inside the same iterations, it
// also reports the pair's delta as `pair-overhead-%`. That number is the one
// to trust for the ≤ 2% instrumentation budget: the two named benchmarks run
// minutes apart under -benchtime, so machine-load drift between their windows
// can dwarf the real overhead in the ns/op comparison, while the same-window
// delta cancels it.
func benchTickPair(b *testing.B, timed string) {
	w := newTickWorkload(b)
	tel := newTickTelemetry()
	runTickStream(b, w, nil)
	runTickStream(b, w, tel)
	b.ReportAllocs()
	b.ResetTimer()
	var bareNs, telNs time.Duration
	for i := 0; i < b.N; i++ {
		if timed == "bare" {
			t0 := time.Now()
			runTickStream(b, w, nil)
			bareNs += time.Since(t0)
			b.StopTimer()
			t0 = time.Now()
			runTickStream(b, w, tel)
			telNs += time.Since(t0)
			b.StartTimer()
		} else {
			b.StopTimer()
			t0 := time.Now()
			runTickStream(b, w, nil)
			bareNs += time.Since(t0)
			b.StartTimer()
			t0 = time.Now()
			runTickStream(b, w, tel)
			telNs += time.Since(t0)
		}
	}
	if bareNs > 0 {
		b.ReportMetric(100*(float64(telNs)-float64(bareNs))/float64(bareNs), "pair-overhead-%")
	}
}

// BenchmarkEngineTick is the acceptance benchmark for the incremental tick
// path: a long-running engine admitting a Poisson stream of coflows and
// advancing epoch by epoch, measured over the whole stream's lifetime.
func BenchmarkEngineTick(b *testing.B) { benchTickPair(b, "bare") }

// BenchmarkEngineTickTelemetry is BenchmarkEngineTick plus the per-tick
// telemetry work coflowd layers on top of the engine (see tickTelemetry).
// The instrumentation budget is the pair's same-window `pair-overhead-%`
// metric, which both benchmarks report; the budget is <= 2%.
func BenchmarkEngineTickTelemetry(b *testing.B) { benchTickPair(b, "telemetry") }

// BenchmarkDecideSync measures one synchronous decision — view sync, SEBF
// scoring, order filter, install sweep, churn — on a standing backlog, after
// an (untimed) sliver of simulated time has made a few coflows' slots stale:
// the per-epoch decide cost of a busy daemon.
func BenchmarkDecideSync(b *testing.B) {
	for _, bc := range []struct {
		name    string
		coflows int
	}{{"backlog2k", 250}, {"backlog5k", 625}} {
		b.Run(bc.name, func(b *testing.B) {
			e := backlogEngine(b, SEBFOnline{}, bc.coflows, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := e.AdvanceTo(e.Now() + 0.002); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := e.DecideSync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
