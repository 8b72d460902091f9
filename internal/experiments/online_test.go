package experiments

import (
	"math/rand"
	"testing"

	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/workload"
)

// TestOnlineSweep runs the arrival-rate sweep at test scale and checks the
// acceptance property: the reordering policies (SEBFOnline, LPEpoch) beat
// FIFOOnline on mean weighted CCT at moderate load.
func TestOnlineSweep(t *testing.T) {
	cfg := DefaultOnlineConfig()
	cfg.Trials = 2
	cfg.ArrivalRates = []float64{2.0}
	res, err := OnlineSweep(cfg)
	if err != nil {
		t.Fatalf("online sweep: %v", err)
	}

	byName := map[string]float64{}
	for _, s := range res.Absolute.SeriesSet {
		if len(s.Values) != 1 {
			t.Fatalf("series %s has %d values, want 1", s.Name, len(s.Values))
		}
		byName[s.Name] = s.Values[0]
	}
	fifo := byName[online.FIFOOnline{}.Name()]
	if fifo <= 0 {
		t.Fatalf("FIFO weighted CCT missing or non-positive: %v", byName)
	}
	if sebf := byName[online.SEBFOnline{}.Name()]; sebf >= fifo {
		t.Errorf("SEBFOnline mean weighted CCT %v not better than FIFOOnline %v", sebf, fifo)
	}
	if lp := byName[online.LPEpoch{}.Name()]; lp >= fifo {
		t.Errorf("LPEpoch mean weighted CCT %v not better than FIFOOnline %v", lp, fifo)
	}

	// The ratio panel normalizes FIFO to 1.
	for _, s := range res.Ratio.SeriesSet {
		if s.Name == (online.FIFOOnline{}).Name() {
			if s.Values[0] != 1 {
				t.Errorf("FIFO ratio %v, want 1", s.Values[0])
			}
		}
	}

	// The LP policy must have reported solve latencies.
	if res.MeanSolveLatency[online.LPEpoch{}.Name()] <= 0 {
		t.Errorf("LPEpoch reported no solve latency")
	}
}

// TestOnlineSweepCountsFallbacks: on 14-coflow streams some LPEpoch epochs
// settle SEBF orders because the LP failed to solve. The sweep's LPEpoch
// count must equal the fallback epochs of the same runs counted here from
// their epoch logs, and be positive; every other policy reads 0.
func TestOnlineSweepCountsFallbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second LP solves")
	}
	cfg := DefaultOnlineConfig()
	cfg.NumCoflows = 14
	res, err := OnlineSweep(cfg)
	if err != nil {
		t.Fatalf("online sweep: %v", err)
	}

	g := graph.FatTree(cfg.FatK, 1)
	want := 0
	for ri, rate := range cfg.ArrivalRates {
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(trial)*7919 + int64(ri)*104729
			inst, _, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
				Config: workload.Config{NumCoflows: cfg.NumCoflows, Width: cfg.Width, MeanSize: cfg.MeanSize, MeanWeight: cfg.MeanWeight},
				Rate:   rate,
			}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			run, err := online.Run(inst, online.LPEpoch{}, online.Config{EpochLength: epochLength, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range run.Epochs {
				if e.Fallback {
					want++
				}
			}
		}
	}
	lp := online.LPEpoch{}.Name()
	t.Logf("fallbacks: %v; counted from the epoch logs: %d", res.Fallbacks, want)
	if got := res.Fallbacks[lp]; got != want || got == 0 {
		t.Errorf("%s fallbacks = %d, want the %d counted from the epoch logs, and > 0", lp, got, want)
	}
	for name, n := range res.Fallbacks {
		if name != lp && n != 0 {
			t.Errorf("%s fallbacks = %d, want 0", name, n)
		}
	}
}
