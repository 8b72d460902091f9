package experiments

import (
	"math/rand"
	"os"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/online"
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

// TestOnlineSweepCountsFallbacks: some LPEpoch epochs settle SEBF orders
// because the LP failed to solve. The sweep's LPEpoch count must equal the
// fallback epochs of the same runs counted here from their epoch logs, and be
// positive; every other policy reads 0. Since the factored kernel, the
// sweep's own 14-coflow streams all solve, so it runs here, at two rates
// and two trials, over online's committed instance whose first LP fails
// (internal/online/testdata/lp-singular-residual.json).
func TestOnlineSweepCountsFallbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second LP solves")
	}
	f, err := os.Open("../online/testdata/lp-singular-residual.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := coflow.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOnlineConfig()
	cfg.Trials = 2
	cfg.ArrivalRates = []float64{0.5, 2}
	res, err := onlineSweep(cfg, inst.Network, func(float64, *rand.Rand) (*coflow.Instance, error) { return inst, nil })
	if err != nil {
		t.Fatalf("online sweep: %v", err)
	}

	want := 0
	for ri := range cfg.ArrivalRates {
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(trial)*7919 + int64(ri)*104729
			run, err := online.Run(inst, online.LPEpoch{}, online.Config{EpochLength: EpochLength, Seed: seed})
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
