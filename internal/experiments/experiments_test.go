package experiments

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/stats"
)

// tinyConfig keeps the LPs small so the whole experiment suite runs in a few
// seconds under `go test`.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Trials = 1
	c.NumCoflows = 3
	c.Widths = []int{2, 3}
	c.Width = 2
	c.CoflowCounts = []int{2, 4}
	return c
}

func TestFigure1MatchesPaperOrdering(t *testing.T) {
	res, err := Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	// Paper's narrative: fair sharing (10) > strict priority (8) > LP-based
	// (optimal). With the caption's flow sizes the optimal is 5.
	if res.FairSharing != 10 {
		t.Errorf("fair sharing total = %v, want 10", res.FairSharing)
	}
	if res.Priority != 8 {
		t.Errorf("priority total = %v, want 8", res.Priority)
	}
	if !(res.LPBased < res.Priority && res.Priority < res.FairSharing) {
		t.Errorf("expected LP < priority < fair sharing, got %v", res)
	}
	if res.LPBased < res.LowerBound-1e-9 {
		t.Errorf("LP-based objective below certified lower bound")
	}
	if !strings.Contains(res.String(), "LP-based") {
		t.Errorf("String() output incomplete")
	}
}

func TestFigure3SmallSweep(t *testing.T) {
	cfg := tinyConfig()
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(res.Absolute.SeriesSet) != 4 {
		t.Fatalf("expected 4 schedulers, got %d", len(res.Absolute.SeriesSet))
	}
	// On this deliberately tiny sweep we only require the broad shape: the
	// LP-Based scheduler never loses badly to any heuristic at any point and
	// beats the Baseline on average (the full headline claim is asserted at
	// default scale in TestFigure3DefaultScaleHeadline).
	lp := res.Absolute.SeriesSet[0]
	if lp.Name != "LP-Based" {
		t.Fatalf("first series = %q, want LP-Based", lp.Name)
	}
	for si := 1; si < len(res.Absolute.SeriesSet); si++ {
		other := res.Absolute.SeriesSet[si]
		for p := range lp.Values {
			if lp.Values[p] > 1.25*other.Values[p] {
				t.Errorf("LP-Based (%v) much worse than %s (%v) at point %d",
					lp.Values[p], other.Name, other.Values[p], p)
			}
		}
	}
	// Ratio panel: baseline column is identically 1.
	for _, s := range res.Ratio.SeriesSet {
		if s.Name != "Baseline" {
			continue
		}
		for _, v := range s.Values {
			if v != 1 {
				t.Errorf("baseline ratio = %v, want 1", v)
			}
		}
	}
	// Improvement summary has all three competitors; the Baseline must be
	// beaten on average even at this tiny scale.
	for _, name := range []string{"Route-only", "Schedule-only", "Baseline"} {
		if _, ok := res.Improvements[name]; !ok {
			t.Errorf("missing improvement entry for %s", name)
		}
	}
	if res.Improvements["Baseline"] <= 0 {
		t.Errorf("LP-Based should beat the Baseline on average, improvement = %v%%", res.Improvements["Baseline"])
	}
	if !strings.Contains(res.String(), "Average improvement") {
		t.Errorf("String() output incomplete")
	}
}

func TestFigure4SmallSweep(t *testing.T) {
	cfg := tinyConfig()
	res, err := Figure4(cfg)
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	lp := res.Absolute.SeriesSet[0]
	base := res.Absolute.SeriesSet[len(res.Absolute.SeriesSet)-1]
	if base.Name != "Baseline" {
		t.Fatalf("last series = %q, want Baseline", base.Name)
	}
	// Averaged over the sweep, LP-Based beats the Baseline; the objective
	// grows with the number of coflows.
	lpMean, baseMean := 0.0, 0.0
	for p := range lp.Values {
		lpMean += lp.Values[p]
		baseMean += base.Values[p]
	}
	if lpMean >= baseMean {
		t.Errorf("LP-Based mean (%v) should beat Baseline mean (%v)", lpMean, baseMean)
	}
	if !(lp.Values[len(lp.Values)-1] > lp.Values[0]) {
		t.Errorf("objective should grow with more coflows: %v", lp.Values)
	}
}

// countingScheduler fails the test if any sweep point reaches it.
type countingScheduler struct{ calls *int }

func (countingScheduler) Name() string { return "counting" }

func (s countingScheduler) Schedule(*coflow.Instance, *rand.Rand) (*coflow.CircuitSchedule, error) {
	*s.calls++
	return nil, errors.New("countingScheduler ran")
}

// TestSweepRejectsNonPositivePoints: a coflow count or width below 1 is
// refused before anything is drawn. workload.Generate would replace it by
// its default (width 16, 10 coflows) while the row keeps the label and the
// seed of the value given; at width 0 that draw ends in a singular basis.
func TestSweepRejectsNonPositivePoints(t *testing.T) {
	cfg := tinyConfig()
	calls := 0
	schedulers := []Scheduler{countingScheduler{&calls}}
	for _, pt := range [][2]int{{0, 4}, {3, 0}, {-2, 3}, {3, -2}} {
		if _, err := cfg.SweepPoint(cfg.network(), pt[0], pt[1], schedulers); err == nil || !strings.Contains(err.Error(), "positive") {
			t.Errorf("SweepPoint(%d coflows, width %d) err = %v, want a positive-integer rejection", pt[0], pt[1], err)
		}
	}
	if calls != 0 {
		t.Errorf("a rejected point reached a scheduler %d times", calls)
	}

	// Figures 3 and 4 check every point, of both axes, before the first one
	// runs: a 0 anywhere returns the same error.
	figures := map[string]func(Config) (*FigureResult, error){"Figure3": Figure3, "Figure4": Figure4}
	widthZero, countZero, lastZero := tinyConfig(), tinyConfig(), tinyConfig()
	widthZero.Widths = []int{0}
	countZero.CoflowCounts = []int{0}
	lastZero.Widths = append(lastZero.Widths, 0)
	lastZero.CoflowCounts = append(lastZero.CoflowCounts, 0)
	for name, figure := range figures {
		for _, cfg := range []Config{{Widths: []int{0}}, {CoflowCounts: []int{0}}, widthZero, countZero, lastZero} {
			if _, err := figure(cfg); err == nil || !strings.Contains(err.Error(), "positive") {
				t.Errorf("%s(widths %v, counts %v) err = %v, want a positive-integer rejection", name, cfg.Widths, cfg.CoflowCounts, err)
			}
		}
	}
}

func TestTable1RatiosWithinProvenBounds(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Trials = 2
	res, err := Table1(cfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanRatio < 1-1e-9 {
			t.Errorf("%s/%s: mean ratio %v below 1 (lower bound violated)", row.Model, row.Paths, row.MeanRatio)
		}
		if row.MaxRatio < row.MeanRatio-1e-9 {
			t.Errorf("%s/%s: max ratio %v below mean %v", row.Model, row.Paths, row.MaxRatio, row.MeanRatio)
		}
		// The paper's remark: worst-case factors do not appear in practice.
		// All our instances stay well below 17.6 (circuit) and the packet
		// constants; use 17.6 as the common sanity ceiling.
		if row.MaxRatio > 17.6 {
			t.Errorf("%s/%s: empirical ratio %v exceeds the proven constant", row.Model, row.Paths, row.MaxRatio)
		}
	}
	out := res.String()
	for _, want := range []string{"Packet-based", "Circuit-based", "given", "not given", "APX-hard"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Trials = 1
	cfg.NumCoflows = 3
	cfg.Width = 3
	res, err := Ablation(cfg)
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	// (a) tightening epsilon cannot loosen the certified lower bound series
	// by much; we only require positive values and a rendered table.
	for _, tab := range []*stats.Table{res.Epsilon, res.CandidatePaths, res.Rounding} {
		for _, s := range tab.SeriesSet {
			for _, v := range s.Values {
				if v <= 0 {
					t.Errorf("ablation value %v in %q should be positive", v, tab.Title)
				}
			}
		}
	}
	// (c) ASAP should not be worse than the theoretical interval placement.
	round := res.Rounding.SeriesSet[0].Values
	if round[0] > round[1]+1e-6 {
		t.Errorf("ASAP mode (%v) worse than interval placement (%v)", round[0], round[1])
	}
	if !strings.Contains(res.String(), "Ablation") {
		t.Errorf("String() output incomplete")
	}
}

// TestFigure3DefaultScaleHeadline asserts the paper's §4.3 headline at the
// repository's default experiment scale: LP-Based beats Route-only,
// Schedule-only and Baseline on average (the paper reports improvements of
// at least 22%, 96% and 126% on a 128-server fat-tree; at this reduced scale
// the ordering is preserved with smaller margins). The test takes ~10-15s, so
// it is skipped under -short.
func TestFigure3DefaultScaleHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale sweep skipped in -short mode")
	}
	cfg := DefaultConfig()
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	for _, name := range []string{"Route-only", "Schedule-only", "Baseline"} {
		v, ok := res.Improvements[name]
		if !ok {
			t.Fatalf("missing improvement entry for %s", name)
		}
		if v <= 0 {
			t.Errorf("LP-Based should beat %s on average, improvement = %.1f%%", name, v)
		}
	}
	if res.Improvements["Baseline"] < 20 {
		t.Errorf("improvement over Baseline = %.1f%%, expected at least 20%% at default scale",
			res.Improvements["Baseline"])
	}
	// Pointwise, LP-Based never loses to the Baseline at default scale.
	lp := res.Absolute.SeriesSet[0]
	base := res.Absolute.SeriesSet[3]
	for p := range lp.Values {
		if lp.Values[p] > base.Values[p] {
			t.Errorf("LP-Based (%v) worse than Baseline (%v) at point %d", lp.Values[p], base.Values[p], p)
		}
	}
}
