package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStdMedian(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	if Median(xs) != 4.5 {
		t.Errorf("Median = %v, want 4.5", Median(xs))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Errorf("odd Median wrong")
	}
	if Mean(nil) != 0 {
		t.Errorf("empty-slice Mean should return 0")
	}
}

func TestRatioAndImprovement(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Errorf("Ratio wrong")
	}
	// If competitor takes 122 and we take 100, improvement is 22%.
	if math.Abs(ImprovementPercent(100, 122)-22) > 1e-9 {
		t.Errorf("ImprovementPercent = %v, want 22", ImprovementPercent(100, 122))
	}
	if ImprovementPercent(0, 5) != 0 {
		t.Errorf("zero denominator should give 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Figure 3", "width", []string{"4", "8"})
	if err := tab.AddSeries("LP-Based", []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddSeries("Baseline", []float64{20, 50}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddSeries("oops", []float64{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	s := tab.String()
	for _, want := range []string{"Figure 3", "width", "LP-Based", "Baseline", "10.00", "50.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	// A name of 16 characters or more widens its column instead of running
	// into the next name.
	long := NewTable("", "epsilon", []string{"1"})
	_ = long.AddSeries("LP-Based objective", []float64{73})
	_ = long.AddSeries("certified lower bound", []float64{73})
	if got, want := long.String(), "epsilon            LP-Based objective certified lower bound\n"+
		"1                               73.00                 73.00\n"; got != want {
		t.Errorf("String() with long names:\n%q\nwant\n%q", got, want)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "width,LP-Based,Baseline\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "4,10,20") {
		t.Errorf("CSV rows wrong: %q", csv)
	}
}

func TestNormalizeTo(t *testing.T) {
	tab := NewTable("Fig", "x", []string{"a", "b"})
	_ = tab.AddSeries("LP-Based", []float64{10, 20})
	_ = tab.AddSeries("Baseline", []float64{20, 50})
	norm, err := tab.NormalizeTo("Baseline")
	if err != nil {
		t.Fatal(err)
	}
	if norm.SeriesSet[0].Values[0] != 0.5 || norm.SeriesSet[1].Values[1] != 1 {
		t.Errorf("normalized values wrong: %+v", norm.SeriesSet)
	}
	if _, err := tab.NormalizeTo("nope"); err == nil {
		t.Error("expected missing-reference error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile(single, 99) = %v, want 7", got)
	}
}

// TestPercentileMedianEmpty pins the empty-input contract: order statistics
// of an empty sample do not exist, so the result is NaN rather than a silent
// 0 that could be mistaken for a measured value.
func TestPercentileMedianEmpty(t *testing.T) {
	cases := []struct {
		name string
		got  float64
	}{
		{"Percentile(nil, 50)", Percentile(nil, 50)},
		{"Percentile(nil, 0)", Percentile(nil, 0)},
		{"Percentile(nil, 100)", Percentile(nil, 100)},
		{"Percentile(empty, 95)", Percentile([]float64{}, 95)},
		{"Median(nil)", Median(nil)},
		{"Median(empty)", Median([]float64{})},
	}
	for _, c := range cases {
		if !math.IsNaN(c.got) {
			t.Errorf("%s = %v, want NaN", c.name, c.got)
		}
	}
	if got := PercentileOr(nil, 95, 0); got != 0 {
		t.Errorf("PercentileOr(nil) = %v, want fallback 0", got)
	}
	if got := PercentileOr([]float64{4}, 95, 0); got != 4 {
		t.Errorf("PercentileOr(single) = %v, want 4", got)
	}
	// Non-empty inputs keep returning real numbers.
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"Percentile(single, 50)", Percentile([]float64{3}, 50), 3},
		{"Median(pair)", Median([]float64{1, 3}), 2},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
