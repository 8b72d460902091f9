package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry(Label{Name: "shard", Value: "s0"})
	c := r.Counter("test_requests_total", "requests served")
	g := r.Gauge("test_active", "active things")
	c.Add(3)
	c.Inc()
	g.Set(7)

	m, err := ParseMetrics(r.Expose())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	if s, ok := m.Get("test_requests_total", "shard", "s0"); !ok || s.Value != 4 {
		t.Errorf("test_requests_total{shard=s0} = %+v, want 4", s)
	}
	if s, ok := m.Get("test_active", "shard", "s0"); !ok || s.Value != 7 {
		t.Errorf("test_active = %+v, want 7", s)
	}
	if m.Types["test_requests_total"] != "counter" || m.Types["test_active"] != "gauge" {
		t.Errorf("types = %v, want counter+gauge", m.Types)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(2)
	c.Add(-5)
	if got := c.Value(); got != 2 {
		t.Errorf("counter after negative add = %v, want 2", got)
	}
}

func TestVecChildrenAndLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_retries_total", "client retries", "endpoint")
	v.With("admit").Add(2)
	v.With("admit").Inc()
	v.With(`we"ird\name`).Inc()

	m, err := ParseMetrics(r.Expose())
	if err != nil {
		t.Fatalf("exposition with escaped labels does not parse: %v", err)
	}
	if s, ok := m.Get("test_retries_total", "endpoint", "admit"); !ok || s.Value != 3 {
		t.Errorf("retries{endpoint=admit} = %+v, want 3 (same child across With calls)", s)
	}
	if _, ok := m.Get("test_retries_total", "endpoint", `we"ird\name`); !ok {
		t.Errorf("escaped label value did not round-trip: %s", r.Expose())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	m, err := ParseMetrics(r.Expose())
	if err != nil {
		t.Fatalf("histogram exposition does not parse: %v", err)
	}
	want := map[string]float64{"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}
	for le, n := range want {
		s, ok := m.Get("test_latency_seconds_bucket", "le", le)
		if !ok || s.Value != n {
			t.Errorf("bucket le=%s = %+v, want %g", le, s, n)
		}
	}
	if s, ok := m.Get("test_latency_seconds_count"); !ok || s.Value != 5 {
		t.Errorf("count = %+v, want 5", s)
	}
	if s, ok := m.Get("test_latency_seconds_sum"); !ok || s.Value < 5.6 || s.Value > 5.61 {
		t.Errorf("sum = %+v, want 5.605", s)
	}
}

func TestOnScrapeHookRuns(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_scrape_time", "set at scrape")
	r.OnScrape(func() { g.Set(42) })
	m, err := ParseMetrics(r.Expose())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := m.Get("test_scrape_time"); s.Value != 42 {
		t.Errorf("scrape hook did not run: %v", s.Value)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("test_dup_total", "")
}

func TestConcurrentMetricOps(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "")
	h := r.Histogram("test_conc_seconds", "", nil)
	v := r.GaugeVec("test_conc_gauge", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
				v.With("a").Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent counter = %v, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %v, want 8000", got)
	}
	if got := v.With("a").Value(); got < 0 || got > 7 || got != float64(int(got)) {
		t.Errorf("concurrent gauge = %v, want one writer's value in 0..7", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_value",
		`name{unterminated="x" 1`,
		`name{bad-label="x"} 1`,
		"name 1 2 3",
		"1name 2",
		"# TYPE name sideways",
	}
	for _, text := range bad {
		if _, err := ParseMetrics(text); err == nil {
			t.Errorf("ParseMetrics(%q) succeeded, want error", text)
		}
	}
	if m, err := ParseMetrics("ok_total 1\n\n# HELP ok_total fine\n# TYPE ok_total counter\nok_total{a=\"b\"} 2.5\n"); err != nil {
		t.Errorf("valid page rejected: %v", err)
	} else if len(m.Samples) != 2 {
		t.Errorf("parsed %d samples, want 2", len(m.Samples))
	}
}

func TestExpositionSeriesAllUnique(t *testing.T) {
	r := NewRegistry(Label{Name: "shard", Value: "x"})
	r.Counter("test_a_total", "").Inc()
	v := r.GaugeVec("test_b", "", "k")
	v.With("1").Set(1)
	v.With("2").Set(2)
	r.Histogram("test_c_seconds", "", []float64{1}).Observe(0.5)
	m, err := ParseMetrics(r.Expose())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range m.Samples {
		key := s.Name
		for _, k := range []string{"shard", "k", "le"} {
			key += "|" + s.Labels[k]
		}
		if seen[key] {
			t.Errorf("duplicate series %q", key)
		}
		seen[key] = true
		if s.Labels["shard"] != "x" {
			t.Errorf("series %q missing const label shard", s.Name)
		}
	}
}
