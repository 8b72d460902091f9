package monitor

import (
	"fmt"
	"math"
	"time"
)

// RuleKind selects which derived view of the store a rule evaluates.
type RuleKind string

const (
	// KindQuantile evaluates a histogram bucket-delta quantile of
	// Rule.Metric (the family name, without _bucket).
	KindQuantile RuleKind = "quantile"
	// KindGauge evaluates the worst gauge value seen inside the window
	// (max for Above rules, min for Below rules).
	KindGauge RuleKind = "gauge"
	// KindRate evaluates the summed counter increase per second.
	KindRate RuleKind = "rate"
)

// Rule is one declarative SLO: a metric selector, an objective, and the
// multi-window burn-rate machinery around it. Windows are float seconds so
// rules serialize cleanly in /v1/slo responses and bundles.
//
// Burn rate is measured/objective for Above rules (latency too high) and
// objective/measured for Below rules (availability too low); a rule
// violates a window when that window's burn exceeds 1. The state machine is
// the usual multi-window shape: the fast window trips quickly (pending),
// firing needs both fast AND slow windows violating — sustained for
// ForSeconds — and resolution needs both windows healthy continuously for
// ResolveAfterSeconds (hysteresis against flapping).
type Rule struct {
	Name   string            `json:"name"`
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   RuleKind          `json:"kind"`
	// Quantile is used by KindQuantile rules (e.g. 0.99).
	Quantile float64 `json:"quantile,omitempty"`
	// Objective is the threshold the measured value is held against, in the
	// metric's own unit (seconds for latency quantiles, 1 for up-gauges).
	Objective float64 `json:"objective"`
	// Below inverts the comparison: the rule violates when the measured
	// value falls below the objective (availability-style).
	Below bool `json:"below,omitempty"`

	FastWindowSeconds   float64 `json:"fast_window_seconds"`
	SlowWindowSeconds   float64 `json:"slow_window_seconds"`
	ForSeconds          float64 `json:"for_seconds,omitempty"`
	ResolveAfterSeconds float64 `json:"resolve_after_seconds,omitempty"`
}

func (r Rule) validate() error {
	if r.Name == "" || r.Metric == "" {
		return fmt.Errorf("rule needs name and metric: %+v", r)
	}
	switch r.Kind {
	case KindQuantile:
		if r.Quantile <= 0 || r.Quantile >= 1 {
			return fmt.Errorf("rule %s: quantile %v outside (0,1)", r.Name, r.Quantile)
		}
	case KindGauge, KindRate:
	default:
		return fmt.Errorf("rule %s: unknown kind %q", r.Name, r.Kind)
	}
	if r.Objective <= 0 {
		return fmt.Errorf("rule %s: objective must be positive", r.Name)
	}
	if r.FastWindowSeconds <= 0 || r.SlowWindowSeconds < r.FastWindowSeconds {
		return fmt.Errorf("rule %s: want 0 < fast <= slow window", r.Name)
	}
	return nil
}

// RuleState is one step of the pending->firing->resolved lifecycle.
type RuleState string

const (
	StateHealthy  RuleState = "healthy"
	StatePending  RuleState = "pending"
	StateFiring   RuleState = "firing"
	StateResolved RuleState = "resolved"
)

// RuleStatus is a rule's externally visible evaluation state, served at
// /v1/slo and embedded in flight-recorder bundles. Measured values are
// pointers so "no data yet" serializes as null rather than a fake zero.
type RuleStatus struct {
	Rule  Rule      `json:"rule"`
	State RuleState `json:"state"`
	// FastValue/SlowValue are the measured values over each window;
	// FastBurn/SlowBurn the corresponding burn rates (>1 violates).
	FastValue *float64 `json:"fast_value,omitempty"`
	SlowValue *float64 `json:"slow_value,omitempty"`
	FastBurn  *float64 `json:"fast_burn,omitempty"`
	SlowBurn  *float64 `json:"slow_burn,omitempty"`
	// Firings counts healthy->firing transitions over the monitor's life.
	Firings int `json:"firings"`
	// Since is when the rule entered its current state; LastFired /
	// LastResolved bracket the most recent incident.
	Since        time.Time  `json:"since"`
	LastFired    *time.Time `json:"last_fired,omitempty"`
	LastResolved *time.Time `json:"last_resolved,omitempty"`
	LastEval     time.Time  `json:"last_eval"`
	Evaluations  uint64     `json:"evaluations"`
}

// ruleInstance is a rule plus its evaluation state machine.
type ruleInstance struct {
	rule Rule

	state        RuleState
	since        time.Time
	violatingFor time.Time // when both windows started violating (zero if not)
	healthyFor   time.Time // when both windows went healthy while firing
	firings      int
	lastFired    *time.Time
	lastResolved *time.Time
	lastEval     time.Time
	evals        uint64

	fastValue, slowValue *float64
	fastBurn, slowBurn   *float64
}

// windowEval is one window's measurement against the objective.
type windowEval struct {
	value     float64
	ok        bool
	burn      float64
	violating bool
}

// evalWindow measures the rule over one window ending at now.
func evalWindow(st *Store, r Rule, now time.Time, window time.Duration) windowEval {
	sel := Selector{Name: r.Metric, Labels: r.Labels}
	var v float64
	var ok bool
	switch r.Kind {
	case KindQuantile:
		v, ok = st.HistogramQuantile(sel, r.Quantile, now, window)
	case KindGauge:
		reduce := "max"
		if r.Below {
			reduce = "min"
		}
		v, ok = st.WorstValue(sel, now, window, reduce)
	case KindRate:
		v, ok = st.CounterRate(sel, now, window)
	}
	if !ok {
		return windowEval{}
	}
	var burn float64
	if r.Below {
		// Availability-style: burn grows as the value sinks under the
		// objective. A measured zero (a dead shard's up gauge) burns at a
		// clamped ceiling rather than +Inf.
		if v <= 0 {
			burn = maxBurn
		} else {
			burn = r.Objective / v
		}
	} else {
		burn = v / r.Objective
	}
	if burn > maxBurn {
		burn = maxBurn
	}
	return windowEval{value: v, ok: true, burn: burn, violating: burn > 1}
}

// maxBurn caps reported burn rates so they stay JSON-encodable and readable.
const maxBurn = 1000

// eval advances the rule's state machine with fresh window measurements.
// It returns true when the rule transitioned into firing (the flight
// recorder's trigger).
func (ri *ruleInstance) eval(st *Store, now time.Time) bool {
	r := ri.rule
	fast := evalWindow(st, r, now, time.Duration(r.FastWindowSeconds*float64(time.Second)))
	slow := evalWindow(st, r, now, time.Duration(r.SlowWindowSeconds*float64(time.Second)))

	ri.lastEval = now
	ri.evals++
	ri.fastValue, ri.fastBurn = optFloat(fast)
	ri.slowValue, ri.slowBurn = optFloat(slow)

	bothViolating := fast.ok && slow.ok && fast.violating && slow.violating
	bothHealthy := (!fast.ok || !fast.violating) && (!slow.ok || !slow.violating)

	if bothViolating {
		if ri.violatingFor.IsZero() {
			ri.violatingFor = now
		}
	} else {
		ri.violatingFor = time.Time{}
	}

	fired := false
	switch ri.state {
	case StateHealthy, StateResolved:
		if fast.ok && fast.violating {
			ri.transition(StatePending, now)
		}
		if bothViolating && now.Sub(ri.violatingFor).Seconds() >= r.ForSeconds {
			ri.fire(now)
			fired = true
		}
	case StatePending:
		if bothViolating && now.Sub(ri.violatingFor).Seconds() >= r.ForSeconds {
			ri.fire(now)
			fired = true
		} else if bothHealthy {
			ri.transition(StateHealthy, now)
		}
	case StateFiring:
		if bothHealthy {
			if ri.healthyFor.IsZero() {
				ri.healthyFor = now
			}
			if now.Sub(ri.healthyFor).Seconds() >= r.ResolveAfterSeconds {
				t := now
				ri.lastResolved = &t
				ri.transition(StateResolved, now)
				ri.healthyFor = time.Time{}
			}
		} else {
			ri.healthyFor = time.Time{}
		}
	}
	return fired
}

func (ri *ruleInstance) fire(now time.Time) {
	ri.firings++
	t := now
	ri.lastFired = &t
	ri.transition(StateFiring, now)
	ri.healthyFor = time.Time{}
}

func (ri *ruleInstance) transition(s RuleState, now time.Time) {
	if ri.state != s {
		ri.state = s
		ri.since = now
	}
}

func optFloat(w windowEval) (value, burn *float64) {
	if !w.ok {
		return nil, nil
	}
	v, b := w.value, w.burn
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, nil
	}
	return &v, &b
}

// status snapshots the instance for /v1/slo and bundles.
func (ri *ruleInstance) status() RuleStatus {
	return RuleStatus{
		Rule:         ri.rule,
		State:        ri.state,
		FastValue:    ri.fastValue,
		SlowValue:    ri.slowValue,
		FastBurn:     ri.fastBurn,
		SlowBurn:     ri.slowBurn,
		Firings:      ri.firings,
		Since:        ri.since,
		LastFired:    ri.lastFired,
		LastResolved: ri.lastResolved,
		LastEval:     ri.lastEval,
		Evaluations:  ri.evals,
	}
}

// DefaultRules is the cluster's stock SLO set, with windows scaled from the
// scrape interval: the fast window holds 5 scrapes, the slow window 15, and
// resolution needs 10 clean scrapes. The thresholds match the in-process
// cluster's healthy envelope with comfortable headroom — see EXPERIMENTS.md
// for the calibration runs.
func DefaultRules(interval time.Duration) []Rule {
	fast := (5 * interval).Seconds()
	slow := (15 * interval).Seconds()
	resolve := (10 * interval).Seconds()
	return []Rule{
		{
			Name: "admit-p99", Metric: "coflowgate_admit_seconds",
			Kind: KindQuantile, Quantile: 0.99, Objective: 0.25,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ResolveAfterSeconds: resolve,
		},
		{
			Name: "tick-p99", Metric: "coflowd_tick_duration_seconds",
			Kind: KindQuantile, Quantile: 0.99, Objective: 0.1,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ResolveAfterSeconds: resolve,
		},
		{
			Name: "shard-down", Metric: "coflowgate_backend_up",
			Kind: KindGauge, Objective: 1, Below: true,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ResolveAfterSeconds: resolve,
		},
		{
			Name: "scrape-failure", Metric: "up",
			Kind: KindGauge, Objective: 1, Below: true,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ResolveAfterSeconds: resolve,
		},
		// Hot-path pipeline rules over the stage-latency instrumentation.
		// fsync-p99 watches only the group-commit stage of the admit
		// pipeline: the superset label match on {stage=...} slices one child
		// out of the coflowd_admit_stage_seconds family.
		{
			Name: "fsync-p99", Metric: "coflowd_admit_stage_seconds",
			Labels: map[string]string{"stage": "group-commit"},
			Kind:   KindQuantile, Quantile: 0.99, Objective: 0.5,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ResolveAfterSeconds: resolve,
		},
		// gc-pause is the GC pause fraction: seconds stopped per second, summed
		// over the scraped processes, held for a whole slow window. It is a
		// sustained rate, not a quantile of single pauses: one pause stretched
		// by a busy host says nothing about the collector, time spent stopped
		// does.
		{
			Name: "gc-pause", Metric: "go_gc_pause_seconds_total",
			Kind: KindRate, Objective: 0.25,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ForSeconds: slow, ResolveAfterSeconds: resolve,
		},
		// solver-fallback: epochs an LP shard settled as SEBF because its LP
		// failed. One per ten seconds lets an isolated failure pass at a 1 s
		// interval (~0.07/s over the slow window) and fires on a steady
		// share: 14-coflow streams' 2.7 % of epochs is 0.67/s at timescale 50.
		{
			Name: "solver-fallback", Metric: "coflowd_policy_fallback_total",
			Labels: map[string]string{"reason": "solver"},
			Kind:   KindRate, Objective: 0.1,
			FastWindowSeconds: fast, SlowWindowSeconds: slow, ResolveAfterSeconds: resolve,
		},
	}
}
