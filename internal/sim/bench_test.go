package sim

import (
	"math"
	"math/rand"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// benchWorkload draws a reproducible contended workload on a 16-server
// fat-tree: `coflows` coflows of `width` flows each, releases staggered so the
// active set churns throughout the run instead of peaking once.
func benchWorkload(b *testing.B, coflows, width int) *coflow.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	inst, err := workload.GenerateWithPaths(graph.FatTree(4, 1), workload.Config{
		NumCoflows: coflows, Width: width, MeanSize: 4, MeanRelease: 25,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func benchmarkRun(b *testing.B, coflows, width int, policy Policy) {
	inst := benchWorkload(b, coflows, width)
	cfg := Config{Policy: policy}
	if policy == Priority {
		cfg.Order = inst.FlowRefs()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPriority2000Flows is the acceptance benchmark for the
// incremental allocator: a 2000-flow priority-policy Run on a contended
// fat-tree (the §4.1 hot path at scale).
func BenchmarkRunPriority2000Flows(b *testing.B) { benchmarkRun(b, 250, 8, Priority) }

// BenchmarkRunPriority500Flows is the same workload at a quarter scale, for
// reading the cost curve.
func BenchmarkRunPriority500Flows(b *testing.B) { benchmarkRun(b, 125, 4, Priority) }

// BenchmarkRunFairShare500Flows exercises the progressive-filling allocator,
// which recomputes every rate per event but must not allocate per event.
func BenchmarkRunFairShare500Flows(b *testing.B) { benchmarkRun(b, 125, 4, FairShare) }

// BenchmarkRunUntilStepped measures the resumable stepping path the online
// scheduler drives: RunUntil in 64 epoch-sized steps with a re-ordering
// between steps, on a 500-flow workload.
func BenchmarkRunUntilStepped(b *testing.B) {
	inst := benchWorkload(b, 125, 4)
	refs := inst.FlowRefs()
	rev := make([]coflow.FlowRef, len(refs))
	for i, r := range refs {
		rev[len(refs)-1-i] = r
	}
	horizon := inst.TimeHorizon()
	step := horizon / 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(inst, Config{Order: refs, Policy: Priority})
		if err != nil {
			b.Fatal(err)
		}
		flip := false
		for until := step; !s.Done(); until += step {
			order := refs
			if flip {
				order = rev
			}
			flip = !flip
			if _, err := s.SetOrder(order); err != nil {
				b.Fatal(err)
			}
			if err := s.RunUntil(until); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.RunUntil(math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
}
