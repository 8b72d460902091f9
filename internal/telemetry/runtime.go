package telemetry

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
)

// runtimeHistBuckets bound the mirrored runtime latency histogram (scheduler
// latency): sub-microsecond waits up to a second. The runtime's
// own bucket boundaries are much finer; each runtime bucket is folded into
// the first bound at or above its upper edge, so the mirror never
// under-reports a latency bucket.
var runtimeHistBuckets = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}

// RegisterRuntimeCollector adds Go process-health series to a registry:
// goroutine count, heap bytes, cumulative GC pause seconds, GC cycle count,
// GOMAXPROCS, plus the runtime/metrics distribution of goroutine scheduling
// latencies. Values are read from the runtime at scrape
// time through an OnScrape hook, so an idle daemon costs nothing between
// scrapes.
//
// Both daemons (coflowd, coflowgate) and coflowmon itself register this, so
// every /metrics page a monitor scrapes carries the same process-health
// families out of the box. The names follow the conventional go_* prefix;
// the registry's constant labels (e.g. {shard="..."}) apply as usual.
func RegisterRuntimeCollector(r *Registry) {
	goroutines := r.Gauge("go_goroutines", "goroutines that currently exist")
	heapBytes := r.Gauge("go_heap_bytes", "heap bytes allocated and still in use")
	gcPause := r.Counter("go_gc_pause_seconds_total", "cumulative stop-the-world GC pause time")
	gcCycles := r.Counter("go_gc_cycles_total", "completed GC cycles")
	maxProcs := r.Gauge("go_gomaxprocs", "GOMAXPROCS setting")
	schedLat := r.Histogram("go_sched_latency_seconds", "distribution of time goroutines spend runnable before running", runtimeHistBuckets)
	samples := []rtmetrics.Sample{{Name: "/sched/latencies:seconds"}}
	r.OnScrape(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapBytes.Set(float64(ms.HeapAlloc))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
		gcCycles.Set(float64(ms.NumGC))
		maxProcs.Set(float64(runtime.GOMAXPROCS(0)))
		rtmetrics.Read(samples)
		mirrorRuntimeHist(schedLat, samples[0].Value)
	})
}

// mirrorRuntimeHist folds a runtime/metrics Float64Histogram into a
// fixed-bucket telemetry histogram. The runtime accumulates since process
// start, so the mirror overwrites rather than observes. The runtime tracks
// no sum; it is approximated from bucket midpoints (unbounded edge buckets
// collapse to their finite bound).
func mirrorRuntimeHist(h *Histogram, v rtmetrics.Value) {
	if v.Kind() != rtmetrics.KindFloat64Histogram {
		return
	}
	rh := v.Float64Histogram()
	counts := make([]uint64, len(runtimeHistBuckets))
	var total uint64
	var sum float64
	for i, c := range rh.Counts {
		if c == 0 || i+1 >= len(rh.Buckets) {
			continue
		}
		lo, hi := rh.Buckets[i], rh.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += c
		sum += float64(c) * mid
		if j := sort.SearchFloat64s(runtimeHistBuckets, hi); j < len(counts) {
			counts[j] += c
		}
	}
	h.setDist(counts, total, sum)
}
