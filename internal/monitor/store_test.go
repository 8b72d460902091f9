package monitor

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func at(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }

func TestStoreRingBounded(t *testing.T) {
	st := NewStore(4)
	for i := 0; i < 10; i++ {
		st.Append("m", nil, at(float64(i)), float64(i))
	}
	got := st.Query(Selector{Name: "m"}, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Points) != 4 {
		t.Fatalf("want one series with 4 points, got %+v", got)
	}
	for i, p := range got[0].Points {
		if want := float64(6 + i); p.V != want {
			t.Errorf("point %d = %v, want %v (oldest evicted, order kept)", i, p.V, want)
		}
	}
}

func TestStoreDropsNonFinite(t *testing.T) {
	st := NewStore(8)
	st.Append("m", nil, at(0), math.NaN())
	st.Append("m", nil, at(1), math.Inf(1))
	st.Append("m", nil, at(2), 3)
	if got := st.Dump(); len(got) != 1 || len(got[0].Points) != 1 {
		t.Fatalf("non-finite samples stored: %+v", got)
	}
}

func TestStoreSelectorsAndWindows(t *testing.T) {
	st := NewStore(16)
	st.Append("up", map[string]string{"instance": "a"}, at(0), 1)
	st.Append("up", map[string]string{"instance": "a"}, at(1), 0)
	st.Append("up", map[string]string{"instance": "b"}, at(1), 1)

	both := st.Query(Selector{Name: "up"}, time.Time{}, time.Time{})
	if len(both) != 2 {
		t.Fatalf("unconstrained selector matched %d series, want 2", len(both))
	}
	onlyA := st.Query(Selector{Name: "up", Labels: map[string]string{"instance": "a"}}, time.Time{}, time.Time{})
	if len(onlyA) != 1 || len(onlyA[0].Points) != 2 {
		t.Fatalf("labelled selector: %+v", onlyA)
	}
	windowed := st.Query(Selector{Name: "up"}, at(0.5), at(1.5))
	for _, sd := range windowed {
		for _, p := range sd.Points {
			if p.T.Before(at(0.5)) || p.T.After(at(1.5)) {
				t.Errorf("point %v outside window", p)
			}
		}
	}
}

func TestWorstValueMinSeesTransientDip(t *testing.T) {
	st := NewStore(16)
	// A gauge that dipped to 0 and recovered: LastValue says healthy, but
	// WorstValue(min) keeps the dip visible as long as it is in the window.
	st.Append("g", nil, at(0), 1)
	st.Append("g", nil, at(1), 0)
	st.Append("g", nil, at(2), 1)
	if v, ok := st.LastValue(Selector{Name: "g"}, at(2), 5*time.Second, "min"); !ok || v != 1 {
		t.Errorf("LastValue = %v, %v; want 1", v, ok)
	}
	if v, ok := st.WorstValue(Selector{Name: "g"}, at(2), 5*time.Second, "min"); !ok || v != 0 {
		t.Errorf("WorstValue min = %v, %v; want 0", v, ok)
	}
	// Once the dip ages out of the window the rule sees health again.
	st.Append("g", nil, at(8), 1)
	if v, _ := st.WorstValue(Selector{Name: "g"}, at(10), 5*time.Second, "min"); v != 1 {
		t.Errorf("WorstValue after dip aged out = %v, want 1", v)
	}
}

func TestCounterRate(t *testing.T) {
	st := NewStore(16)
	for i := 0; i <= 10; i++ {
		st.Append("c_total", nil, at(float64(i)), float64(i*5))
	}
	v, ok := st.CounterRate(Selector{Name: "c_total"}, at(10), 10*time.Second)
	if !ok || math.Abs(v-5) > 1e-9 {
		t.Errorf("rate = %v, %v; want 5/s", v, ok)
	}
	// Counter reset: the post-reset value counts, not a negative delta.
	st2 := NewStore(16)
	st2.Append("c_total", nil, at(0), 100)
	st2.Append("c_total", nil, at(1), 110)
	st2.Append("c_total", nil, at(2), 4) // daemon restarted
	v, ok = st2.CounterRate(Selector{Name: "c_total"}, at(2), 10*time.Second)
	if !ok || math.Abs(v-7) > 1e-9 { // (10 + 4) / 2s
		t.Errorf("rate across reset = %v, %v; want 7/s", v, ok)
	}
	if _, ok := st2.CounterRate(Selector{Name: "missing"}, at(2), 10*time.Second); ok {
		t.Error("rate of missing series reported ok")
	}
}

func TestCounterRateSumsAcrossInstances(t *testing.T) {
	st := NewStore(16)
	for i := 0; i <= 4; i++ {
		st.Append("c_total", map[string]string{"instance": "a"}, at(float64(i)), float64(i*2))
		st.Append("c_total", map[string]string{"instance": "b"}, at(float64(i)), float64(i*3))
	}
	v, ok := st.CounterRate(Selector{Name: "c_total"}, at(4), 10*time.Second)
	if !ok || math.Abs(v-5) > 1e-9 {
		t.Errorf("summed rate = %v, %v; want 5/s", v, ok)
	}
}

func TestHistogramQuantileBasics(t *testing.T) {
	st := NewStore(16)
	// Two scrapes of a cumulative histogram: deltas are 10 obs <= 0.1,
	// 10 more in (0.1, 1], none beyond.
	app := func(ts time.Time, le string, v float64) {
		st.Append("h_bucket", map[string]string{"le": le}, ts, v)
	}
	app(at(0), "0.1", 0)
	app(at(0), "1", 0)
	app(at(0), "+Inf", 0)
	app(at(1), "0.1", 10)
	app(at(1), "1", 20)
	app(at(1), "+Inf", 20)

	if v, ok := st.HistogramQuantile(Selector{Name: "h"}, 0.5, at(1), 5*time.Second); !ok || math.Abs(v-0.1) > 1e-9 {
		t.Errorf("p50 = %v, %v; want 0.1 (upper edge of owning bucket)", v, ok)
	}
	v, ok := st.HistogramQuantile(Selector{Name: "h"}, 0.75, at(1), 5*time.Second)
	if !ok || v < 0.1 || v > 1 {
		t.Errorf("p75 = %v, %v; want inside (0.1, 1]", v, ok)
	}
	// All mass beyond the last finite bound: the bound is the answer.
	st2 := NewStore(16)
	st2.Append("h_bucket", map[string]string{"le": "1"}, at(0), 0)
	st2.Append("h_bucket", map[string]string{"le": "+Inf"}, at(0), 0)
	st2.Append("h_bucket", map[string]string{"le": "1"}, at(1), 0)
	st2.Append("h_bucket", map[string]string{"le": "+Inf"}, at(1), 5)
	if v, ok := st2.HistogramQuantile(Selector{Name: "h"}, 0.99, at(1), 5*time.Second); !ok || v != 1 {
		t.Errorf("p99 with overflow-only mass = %v, %v; want 1", v, ok)
	}
	// No observations in the window: no data, not zero.
	if _, ok := st.HistogramQuantile(Selector{Name: "h"}, 0.5, at(100), time.Second); ok {
		t.Error("quantile over empty window reported ok")
	}

	// The edges, where coflowload's own copy of the estimator used to differ:
	// q outside (0, 1) is clamped, an empty bucket owns no quantile (its bound
	// is not an answer), and a rank in +Inf reads the last finite bound.
	// Buckets: none <= 0.1, 4 in (0.1, 1], 4 in (1, 10], 2 beyond.
	st3 := NewStore(16)
	for le, v := range map[string]float64{"0.1": 0, "1": 4, "10": 8, "+Inf": 10} {
		st3.Append("h_bucket", map[string]string{"le": le}, at(0), 0)
		st3.Append("h_bucket", map[string]string{"le": le}, at(1), v)
	}
	for _, tc := range []struct {
		name    string
		q, want float64
	}{
		{"q = 0 is the lower edge of the first bucket that holds anything", 0, 0.1},
		{"q below 0 is clamped", -0.5, 0.1},
		{"a rank inside the second bucket skips the empty first", 0.2, 0.1 + 0.9*2/4},
		{"a rank on a bucket's upper edge", 0.8, 10},
		{"a rank in +Inf", 0.9, 10},
		{"q = 1", 1, 10},
		{"q above 1 is clamped", 7, 10},
	} {
		if v, ok := st3.HistogramQuantile(Selector{Name: "h"}, tc.q, at(1), 5*time.Second); !ok || math.Abs(v-tc.want) > 1e-12 {
			t.Errorf("%s: q %v = %v, %v; want %v", tc.name, tc.q, v, ok, tc.want)
		}
	}
}

func TestHistogramQuantileAggregatesInstances(t *testing.T) {
	st := NewStore(16)
	app := func(inst string, ts time.Time, le string, v float64) {
		st.Append("h_bucket", map[string]string{"instance": inst, "le": le}, ts, v)
	}
	// Instance a: all 10 obs fast; instance b: all 10 slow. The p99 of the
	// union must land in b's bucket.
	for _, inst := range []string{"a", "b"} {
		app(inst, at(0), "0.1", 0)
		app(inst, at(0), "1", 0)
		app(inst, at(0), "+Inf", 0)
	}
	app("a", at(1), "0.1", 10)
	app("a", at(1), "1", 10)
	app("a", at(1), "+Inf", 10)
	app("b", at(1), "0.1", 0)
	app("b", at(1), "1", 10)
	app("b", at(1), "+Inf", 10)
	v, ok := st.HistogramQuantile(Selector{Name: "h"}, 0.99, at(1), 5*time.Second)
	if !ok || v <= 0.1 || v > 1 {
		t.Errorf("aggregated p99 = %v, %v; want in (0.1, 1]", v, ok)
	}
}

func TestIncrease(t *testing.T) {
	st := NewStore(16)
	for i := 0; i <= 4; i++ {
		st.Append("c_total", map[string]string{"instance": "a"}, at(float64(i)), float64(i*2))
		st.Append("c_total", map[string]string{"instance": "b"}, at(float64(i)), float64(10+i))
	}
	st.Append("c_total", map[string]string{"instance": "b"}, at(5), 3) // b restarted
	if v, ok := st.Increase(Selector{Name: "c_total"}, at(5), 10*time.Second); !ok || v != 8+4+3 {
		t.Errorf("increase = %v, %v; want 15 (8 + 4 + 3 after the reset)", v, ok)
	}
	// The window's first point is the baseline: [1, 5] drops a's first step.
	if v, ok := st.Increase(Selector{Name: "c_total", Labels: map[string]string{"instance": "a"}}, at(5), 4*time.Second); !ok || v != 6 {
		t.Errorf("windowed increase = %v, %v; want 6", v, ok)
	}
	if _, ok := st.Increase(Selector{Name: "missing"}, at(5), 10*time.Second); ok {
		t.Error("increase of a missing series reported ok")
	}
}
