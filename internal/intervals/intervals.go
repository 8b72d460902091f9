// Package intervals implements the geometric time-interval grid used by the
// interval-indexed linear programs of the paper.
//
// The time line is divided into segments [0, 1], (1, 1+ε], (1+ε, (1+ε)^2],
// ..., (τ_ℓ, τ_{ℓ+1}] where τ_0 = 0 and τ_ℓ = (1+ε)^{ℓ-1} for ℓ >= 1. The
// grid is parameterized by ε > 0 and covers a caller-supplied time horizon.
package intervals

import (
	"fmt"
	"math"
)

// Grid is a geometric partition of the time line.
type Grid struct {
	bounds []float64 // bounds[ℓ] = τ_ℓ; len = L+2 so interval ℓ is (bounds[ℓ], bounds[ℓ+1]]
}

// New builds a grid with parameter eps covering at least [0, horizon]. The
// last interval's upper end is >= horizon. New panics if eps <= 0 or horizon
// < 0.
func New(eps, horizon float64) *Grid {
	if eps <= 0 || math.IsNaN(eps) {
		panic(fmt.Sprintf("intervals: eps must be positive, got %v", eps))
	}
	if horizon < 0 || math.IsNaN(horizon) {
		panic(fmt.Sprintf("intervals: horizon must be nonnegative, got %v", horizon))
	}
	bounds := []float64{0, 1}
	for bounds[len(bounds)-1] < horizon {
		next := bounds[len(bounds)-1] * (1 + eps)
		bounds = append(bounds, next)
	}
	return &Grid{bounds: bounds}
}

// NumIntervals returns the number of intervals L+1 (indices 0..L).
func (g *Grid) NumIntervals() int { return len(g.bounds) - 1 }

// Lower returns τ_ℓ, the open lower end of interval ℓ.
func (g *Grid) Lower(l int) float64 { return g.bounds[l] }

// Upper returns τ_{ℓ+1}, the closed upper end of interval ℓ.
func (g *Grid) Upper(l int) float64 { return g.bounds[l+1] }

// Length returns the length of interval ℓ.
func (g *Grid) Length(l int) float64 { return g.bounds[l+1] - g.bounds[l] }

// IndexOf returns the index of the interval containing time t (that is, the
// ℓ with τ_ℓ < t <= τ_{ℓ+1}; t = 0 maps to interval 0). Times beyond the
// horizon map to the last interval.
func (g *Grid) IndexOf(t float64) int {
	if t <= g.bounds[1] {
		return 0
	}
	lo, hi := 1, g.NumIntervals()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t <= g.bounds[mid+1] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// RoundUpRelease returns the smallest interval index ℓ such that a flow
// released at time r may be scheduled inside interval ℓ: r <= τ_ℓ (the paper
// moves every release time to the end of the interval containing it, which
// loses at most a 1+ε factor).
func (g *Grid) RoundUpRelease(r float64) int {
	if r <= 0 {
		return 0
	}
	idx := g.IndexOf(r)
	// The flow may run in the interval after the one containing its release
	// (release moved to τ_{idx+1} which is the lower bound of interval
	// idx+1), unless the release coincides exactly with an interval start.
	if r <= g.bounds[idx]+1e-15 {
		return idx
	}
	if idx+1 >= g.NumIntervals() {
		return g.NumIntervals() - 1
	}
	return idx + 1
}
