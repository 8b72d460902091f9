package monitor

import (
	"testing"
	"time"
)

// gaugeRule is a Below-style availability rule over a synthetic up gauge:
// fast window 3s, slow window 9s, resolve after 6 clean seconds.
func gaugeRule() Rule {
	return Rule{
		Name: "up", Metric: "up", Kind: KindGauge, Objective: 1, Below: true,
		FastWindowSeconds: 3, SlowWindowSeconds: 9, ResolveAfterSeconds: 6,
	}
}

// feed appends one up sample per second over [from, to).
func feed(st *Store, from, to int, v float64) {
	for s := from; s < to; s++ {
		st.Append("up", map[string]string{"instance": "a"}, at(float64(s)), v)
	}
}

func TestRuleLifecyclePendingFiringResolved(t *testing.T) {
	st := NewStore(64)
	ri := &ruleInstance{rule: gaugeRule(), state: StateHealthy, since: at(0)}

	// Healthy traffic: stays healthy.
	feed(st, 0, 5, 1)
	for s := 1; s < 5; s++ {
		if ri.eval(st, at(float64(s))) {
			t.Fatalf("fired on healthy data at t=%d", s)
		}
	}
	if ri.state != StateHealthy {
		t.Fatalf("state = %s, want healthy", ri.state)
	}

	// Outage begins at t=5. The dip hits the fast and slow windows at once
	// (WorstValue sees any in-window point), so with For=0 the rule fires on
	// the first post-outage evaluation.
	feed(st, 5, 12, 0)
	fired := ri.eval(st, at(5))
	if !fired || ri.state != StateFiring {
		t.Fatalf("after outage sample: fired=%v state=%s, want firing", fired, ri.state)
	}
	if ri.firings != 1 || ri.lastFired == nil {
		t.Fatalf("firings=%d lastFired=%v", ri.firings, ri.lastFired)
	}
	if ri.fastBurn == nil || *ri.fastBurn <= 1 {
		t.Fatalf("fast burn = %v, want > 1", ri.fastBurn)
	}

	// Still down: stays firing, does not re-fire.
	for s := 6; s < 12; s++ {
		if ri.eval(st, at(float64(s))) {
			t.Fatalf("re-fired at t=%d while already firing", s)
		}
	}

	// Recovery at t=12. The slow window still holds outage samples until
	// t=21; resolution additionally needs ResolveAfter clean seconds.
	feed(st, 12, 40, 1)
	for s := 12; s < 21; s++ {
		ri.eval(st, at(float64(s)))
		if ri.state != StateFiring {
			t.Fatalf("resolved too early at t=%d (slow window still dirty)", s)
		}
	}
	var resolvedAt int
	for s := 21; s < 40; s++ {
		ri.eval(st, at(float64(s)))
		if ri.state == StateResolved {
			resolvedAt = s
			break
		}
	}
	if resolvedAt == 0 {
		t.Fatalf("never resolved; state=%s", ri.state)
	}
	// Clean since t=21 (first eval with the slow window clear), +6s hold.
	if resolvedAt < 26 {
		t.Errorf("resolved at t=%d, want >= 26 (hysteresis hold)", resolvedAt)
	}
	if ri.lastResolved == nil {
		t.Error("lastResolved not stamped")
	}
}

func TestRulePendingOnFastOnlyViolation(t *testing.T) {
	// A rate rule where a short burst trips the fast window while the slow
	// window dilutes it: the rule goes pending, then returns to healthy when
	// the burst passes — never firing, never writing a bundle. (Gauge rules
	// cannot exercise pending: with nested windows, the slow window's worst
	// value always covers the fast window's.)
	st := NewStore(64)
	r := Rule{
		Name: "errs", Metric: "errs_total", Kind: KindRate, Objective: 10,
		FastWindowSeconds: 2, SlowWindowSeconds: 20, ResolveAfterSeconds: 4,
	}
	ri := &ruleInstance{rule: r, state: StateHealthy, since: at(0)}
	app := func(s int, v float64) { st.Append("errs_total", nil, at(float64(s)), v) }

	// Flat counter for 18s, then a +50 burst in one second.
	for s := 0; s <= 18; s++ {
		app(s, 0)
		ri.eval(st, at(float64(s)))
	}
	app(19, 50)
	if ri.eval(st, at(19)) {
		t.Fatal("fired on a burst the slow window dilutes")
	}
	// Fast rate over [17,19] is 25/s > 10; slow rate over [-1,19] is ~2.6/s.
	if ri.state != StatePending {
		t.Fatalf("state after burst = %s, want pending", ri.state)
	}
	if ri.fastBurn == nil || *ri.fastBurn <= 1 {
		t.Fatalf("fast burn = %v, want > 1", ri.fastBurn)
	}
	if ri.slowBurn == nil || *ri.slowBurn > 1 {
		t.Fatalf("slow burn = %v, want <= 1", ri.slowBurn)
	}
	// Counter goes flat again: fast rate decays, rule returns to healthy.
	for s := 20; s < 30; s++ {
		app(s, 50)
		if ri.eval(st, at(float64(s))) {
			t.Fatalf("fired at t=%d after the burst passed", s)
		}
	}
	if ri.state != StateHealthy {
		t.Errorf("state = %s, want healthy after burst aged out", ri.state)
	}
	if ri.firings != 0 {
		t.Errorf("firings = %d, want 0", ri.firings)
	}
}

func TestRuleForHoldsOffFiring(t *testing.T) {
	st := NewStore(64)
	r := gaugeRule()
	r.ForSeconds = 3
	ri := &ruleInstance{rule: r, state: StateHealthy, since: at(0)}

	feed(st, 0, 3, 1)
	feed(st, 3, 20, 0)
	for s := 3; s < 6; s++ {
		if ri.eval(st, at(float64(s))) {
			t.Fatalf("fired at t=%d, inside the For hold", s)
		}
		if ri.state != StatePending {
			t.Fatalf("state at t=%d = %s, want pending", s, ri.state)
		}
	}
	if !ri.eval(st, at(6)) {
		t.Fatalf("did not fire at t=6 after 3s sustained violation; state=%s", ri.state)
	}
}

func TestRuleNoDataStaysHealthy(t *testing.T) {
	st := NewStore(8)
	ri := &ruleInstance{rule: gaugeRule(), state: StateHealthy, since: at(0)}
	if ri.eval(st, at(1)) || ri.state != StateHealthy {
		t.Fatalf("empty store moved rule to %s", ri.state)
	}
	if ri.fastValue != nil || ri.fastBurn != nil {
		t.Errorf("no-data eval reported values: %v %v", ri.fastValue, ri.fastBurn)
	}
}

func TestDefaultRulesValidate(t *testing.T) {
	rules := DefaultRules(200 * time.Millisecond)
	if len(rules) != 7 {
		t.Fatalf("default rule count = %d, want 7", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			t.Errorf("default rule %s invalid: %v", r.Name, err)
		}
		names[r.Name] = true
	}
	for _, want := range []string{
		"admit-p99", "tick-p99", "shard-down", "scrape-failure",
		"fsync-p99", "gc-pause", "solver-fallback",
	} {
		if !names[want] {
			t.Errorf("default rules lack %s", want)
		}
	}
}

func TestRuleValidateRejects(t *testing.T) {
	bad := []Rule{
		{Name: "", Metric: "m", Kind: KindGauge, Objective: 1, FastWindowSeconds: 1, SlowWindowSeconds: 2},
		{Name: "r", Metric: "m", Kind: "bogus", Objective: 1, FastWindowSeconds: 1, SlowWindowSeconds: 2},
		{Name: "r", Metric: "m", Kind: KindQuantile, Quantile: 1.5, Objective: 1, FastWindowSeconds: 1, SlowWindowSeconds: 2},
		{Name: "r", Metric: "m", Kind: KindGauge, Objective: 0, FastWindowSeconds: 1, SlowWindowSeconds: 2},
		{Name: "r", Metric: "m", Kind: KindGauge, Objective: 1, FastWindowSeconds: 5, SlowWindowSeconds: 2},
	}
	for i, r := range bad {
		if err := r.validate(); err == nil {
			t.Errorf("rule %d validated but should not: %+v", i, r)
		}
	}
}

// TestRateRuleSelectsOneCounterChild holds a stock KindRate rule with a label
// constraint to one child of a _total counter vec: it fires when only the
// selected child rises and stays healthy when only its sibling does. This is
// the shape a per-reason counter such as coflowd_policy_fallback_total{reason}
// needs, with no machinery beyond Rule.Labels.
func TestRateRuleSelectsOneCounterChild(t *testing.T) {
	r := Rule{
		Name: "late-fallbacks", Metric: "fallback_total", Labels: map[string]string{"reason": "late"},
		Kind: KindRate, Objective: 1,
		FastWindowSeconds: 3, SlowWindowSeconds: 6, ResolveAfterSeconds: 3,
	}
	for _, tc := range []struct {
		rising    string
		wantFired bool
	}{
		{rising: "late", wantFired: true},
		{rising: "singular", wantFired: false},
	} {
		st := NewStore(64)
		ri := &ruleInstance{rule: r, state: StateHealthy, since: at(0)}
		fired := false
		for s := 0; s < 10; s++ {
			for _, reason := range []string{"late", "singular"} {
				v := 0.0
				if reason == tc.rising {
					v = 5 * float64(s) // 5/s against an objective of 1/s
				}
				st.Append("fallback_total", map[string]string{"instance": "shard0", "reason": reason}, at(float64(s)), v)
			}
			fired = ri.eval(st, at(float64(s))) || fired
		}
		if fired != tc.wantFired {
			t.Errorf("only %q rising: fired=%v, want %v (state %s)", tc.rising, fired, tc.wantFired, ri.state)
		}
		if !tc.wantFired && ri.state != StateHealthy {
			t.Errorf("only %q rising: state %s, want healthy", tc.rising, ri.state)
		}
	}
}

// TestSolverFallbackRule drives the stock solver-fallback rule at the default
// 1 s interval over coflowd_policy_fallback_total{reason="solver"}: it stays
// healthy while the child reads 0, does not fire on one isolated fallback, and
// fires once fallbacks arrive faster than its objective in both windows.
func TestSolverFallbackRule(t *testing.T) {
	var r Rule
	for _, rule := range DefaultRules(time.Second) {
		if rule.Name == "solver-fallback" {
			r = rule
		}
	}
	if r.Name == "" {
		t.Fatal("no stock solver-fallback rule")
	}
	st := NewStore(256)
	ri := &ruleInstance{rule: r, state: StateHealthy, since: at(0)}
	fired := false
	step := func(s int, v float64) {
		st.Append(r.Metric, map[string]string{"instance": "shard0", "reason": "solver"}, at(float64(s)), v)
		fired = ri.eval(st, at(float64(s))) || fired
	}
	for s := 0; s < 30; s++ {
		step(s, 0)
	}
	if fired || ri.state != StateHealthy {
		t.Fatalf("child at 0: fired=%v state=%s, want healthy", fired, ri.state)
	}
	for s := 30; s < 60; s++ {
		step(s, 1) // one fallback at t=30, then none
	}
	if fired {
		t.Fatalf("one isolated fallback fired the rule (state %s)", ri.state)
	}
	for s := 60; s < 70; s++ {
		step(s, float64(s-59)) // one fallback per second against 0.1/s
	}
	if !fired || ri.state != StateFiring {
		t.Fatalf("a fallback per second: fired=%v state=%s, want firing", fired, ri.state)
	}
}
