package core

import "math"

// Options tunes the LP-based schedulers. The zero value selects defaults that
// guarantee feasible provable-mode schedules.
type Options struct {
	// Epsilon is the interval-grid parameter ε (> 0). Intervals are
	// (τ_ℓ, τ_{ℓ+1}] with τ_ℓ = (1+ε)^(ℓ-1). Default 1 (powers of two), the
	// value §2.2 of the paper uses. Smaller values tighten the LP lower
	// bound at the cost of more intervals.
	Epsilon float64
	// Alpha is the α-point used by the rounding step (0 < α < 1). Default
	// 0.5 (half-intervals), as in §2.2.
	Alpha float64
	// Displacement is the paper's D: a flow whose α-interval is h runs in
	// interval h+D. Default 3. Feasibility of the provable rounding requires
	// α · ε · (1+ε)^(D-1) >= 1; the defaults satisfy it with slack 2.
	Displacement int
	// CandidatePaths is the number of shortest candidate paths per flow used
	// by the restricted (scalable) free-path LP. Default 4. Ignored when
	// paths are given or by the exact arc-flow formulation.
	CandidatePaths int
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 1
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.5
	}
	if o.Displacement <= 0 {
		o.Displacement = 3
	}
	if o.CandidatePaths <= 0 {
		o.CandidatePaths = 4
	}
	return o
}

// feasibilityCondition reports whether the provable rounding with these
// parameters is guaranteed to respect edge capacities:
// α · ε · (1+ε)^(D-1) >= 1.
func (o Options) feasibilityCondition() bool {
	return o.Alpha*o.Epsilon*math.Pow(1+o.Epsilon, float64(o.Displacement-1)) >= 1-1e-12
}

// approximationFactor returns the worst-case blow-up of the provable
// rounding relative to the LP lower bound: (1+ε)^(D+2) / (1-α). (The paper's
// optimized accounting reaches 17.6 for the given-paths case; the constants
// here favour a simple, verifiably feasible rounding.)
func (o Options) approximationFactor() float64 {
	return math.Pow(1+o.Epsilon, float64(o.Displacement+2)) / (1 - o.Alpha)
}
