package intervals

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridBounds(t *testing.T) {
	g := New(1, 20) // powers of two
	want := []float64{0, 1, 2, 4, 8, 16, 32}
	if g.NumIntervals() != len(want)-1 {
		t.Fatalf("NumIntervals = %d, want %d", g.NumIntervals(), len(want)-1)
	}
	for l := 0; l < g.NumIntervals(); l++ {
		if math.Abs(g.Lower(l)-want[l]) > 1e-12 || math.Abs(g.Upper(l)-want[l+1]) > 1e-12 {
			t.Errorf("interval %d = (%v, %v], want (%v, %v]", l, g.Lower(l), g.Upper(l), want[l], want[l+1])
		}
	}
	if g.Length(2) != 2 {
		t.Errorf("Length(2) = %v, want 2", g.Length(2))
	}
}

func TestGridSmallHorizon(t *testing.T) {
	g := New(0.5, 0)
	if g.NumIntervals() != 1 || g.Lower(0) != 0 || g.Upper(0) != 1 {
		t.Errorf("zero-horizon grid: %d intervals, first (%v, %v]", g.NumIntervals(), g.Lower(0), g.Upper(0))
	}
}

func TestIndexOf(t *testing.T) {
	g := New(1, 20)
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0},
		{1.5, 1}, {2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{16, 4}, {17, 5}, {32, 5},
		{1000, 5}, // beyond horizon clamps to last
	}
	for _, c := range cases {
		if got := g.IndexOf(c.t); got != c.want {
			t.Errorf("IndexOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestRoundUpRelease(t *testing.T) {
	g := New(1, 20)
	cases := []struct {
		r    float64
		want int
	}{
		{0, 0},
		{1, 1},   // release strictly inside (0,1]? r=1 is the upper end -> next interval
		{0.5, 1}, // inside interval 0 -> next
		{2, 2},
		{3, 3}, // inside (2,4] -> interval 3 which starts at 4
		{4, 3},
		{100, 5}, // clamps to last interval
	}
	for _, c := range cases {
		if got := g.RoundUpRelease(c.r); got != c.want {
			t.Errorf("RoundUpRelease(%v) = %d, want %d", c.r, got, c.want)
		}
	}
	// Release exactly at an interval lower bound may run in that interval.
	if got := g.RoundUpRelease(8); got != 4 {
		t.Errorf("RoundUpRelease(8) = %d, want 4", got)
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero eps":    func() { New(0, 10) },
		"neg eps":     func() { New(-1, 10) },
		"neg horizon": func() { New(1, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestPropertyIndexOfConsistent(t *testing.T) {
	// For any t in (0, horizon], the returned interval must contain t, and
	// RoundUpRelease must return an interval whose lower bound is >= t (or
	// the last interval).
	f := func(rawT, rawEps float64) bool {
		eps := 0.1 + math.Mod(math.Abs(rawEps), 2.0)
		horizon := 50.0
		tt := math.Mod(math.Abs(rawT), horizon)
		g := New(eps, horizon)
		idx := g.IndexOf(tt)
		if idx < 0 || idx >= g.NumIntervals() {
			return false
		}
		if !(tt <= g.Upper(idx)+1e-12) {
			return false
		}
		if tt > 1e-12 && idx > 0 && !(tt > g.Lower(idx)-1e-12) {
			return false
		}
		ru := g.RoundUpRelease(tt)
		if ru < g.NumIntervals()-1 && g.Lower(ru) < tt-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
