package server

import (
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
)

// BenchmarkAdmit measures the end-to-end HTTP admission path with and
// without a write-ahead log. The wal=on variant pays the append plus a
// group-committed fsync before the 201 is acknowledged — the exact durability
// boundary — so the delta between the two sub-benchmarks is the admit-path
// overhead of durability. Alongside ns/op each variant reports its observed
// p99 latency (p99-ns/op); scripts/bench_wal.sh holds the parallel series'
// wal=on / wal=off ratio against the admit regression budget.
func BenchmarkAdmit(b *testing.B) {
	for _, walled := range []bool{false, true} {
		name := "wal=off"
		if walled {
			name = "wal=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				Network:     graph.FatTree(4, 1),
				Policy:      online.SEBFOnline{},
				EpochLength: 2,
				// Effectively frozen clock: the benchmark isolates admission
				// cost, with no epoch ticks racing the measured requests.
				TimeScale: 1e-9,
			}
			if walled {
				cfg.WALDir = b.TempDir()
				cfg.SnapshotInterval = -1 // no snapshot I/O in the measured window
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatalf("new server: %v", err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Close()
			}()
			c := NewClient(ts.URL)
			hosts := graph.FatTree(4, 1).Hosts()
			cf := coflow.Coflow{
				Name: "bench", Weight: 1,
				Flows: []coflow.Flow{
					{Source: hosts[0], Dest: hosts[5], Size: 10},
					{Source: hosts[2], Dest: hosts[9], Size: 10},
				},
			}

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := c.Admit(cf); err != nil {
					b.Fatalf("admit %d: %v", i, err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			idx := len(lat) * 99 / 100
			if idx >= len(lat) {
				idx = len(lat) - 1
			}
			b.ReportMetric(float64(lat[idx].Nanoseconds()), "p99-ns/op")
		})
	}
}

// BenchmarkAdmitParallel is the durability budget's workload: concurrent
// admissions, the shape the admission path is built for. The serial
// BenchmarkAdmit issues one admission at a time, so every wal=on iteration
// necessarily pays a private fsync and the wal/no-wal ratio measures raw
// fsync latency rather than the admit path. Here concurrent handlers wait in
// the log's group commit together and share its fsyncs, so the wal=on/wal=off
// ratio reflects the amortized durability cost an actual multi-client daemon
// pays. scripts/bench_wal.sh records this variant's ratio against the
// admit-overhead budget and keeps the serial variant as a labeled diagnostic
// series.
func BenchmarkAdmitParallel(b *testing.B) {
	for _, walled := range []bool{false, true} {
		name := "wal=off"
		if walled {
			name = "wal=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				Network:     graph.FatTree(4, 1),
				Policy:      online.SEBFOnline{},
				EpochLength: 2,
				TimeScale:   1e-9,
			}
			if walled {
				cfg.WALDir = b.TempDir()
				cfg.SnapshotInterval = -1
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatalf("new server: %v", err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Close()
			}()
			hosts := graph.FatTree(4, 1).Hosts()
			cf := coflow.Coflow{
				Name: "bench", Weight: 1,
				Flows: []coflow.Flow{
					{Source: hosts[0], Dest: hosts[5], Size: 10},
					{Source: hosts[2], Dest: hosts[9], Size: 10},
				},
			}
			// Many more submitters than GOMAXPROCS: admissions block on I/O
			// (HTTP + fsync), not CPU, so extra in-flight requests deepen the
			// group-commit folds the way a crowd of concurrent clients would.
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := NewClient(ts.URL)
				for pb.Next() {
					if _, err := c.Admit(cf); err != nil {
						b.Errorf("admit: %v", err)
						return
					}
				}
			})
			b.StopTimer()
			if s.wal != nil {
				if _, syncs := s.wal.Stats(); syncs > 0 {
					b.ReportMetric(float64(b.N)/float64(syncs), "admits/fsync")
				}
			}
		})
	}
}
