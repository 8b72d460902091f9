package experiments

import (
	"testing"

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
