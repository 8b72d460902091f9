// Package telemetry is the repo's observability layer: a labeled metrics
// registry with Prometheus text exposition (metrics.go), per-coflow lifecycle
// tracing into bounded span rings (trace.go), structured-logging constructors
// over log/slog (log.go), and a minimal Prometheus text-format parser
// (promparse.go) that keeps the exposition honest in tests.
//
// The package depends only on the standard library — the repo takes no
// external dependencies — and is a leaf: both daemons (coflowd via
// internal/server, coflowgate via internal/cluster) serve /metrics and
// /debug/traces from this one code path instead of hand-built string
// concatenation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// Registry holds a daemon's metric families and renders them in Prometheus
// text exposition format (version 0.0.4). Families expose series in
// registration order; a registry-wide set of constant labels (e.g.
// {shard="shard3"}) is stamped onto every series, which is how a gateway
// scraping N backends keeps their time series apart.
//
// All metric operations are safe for concurrent use. Registering the same
// name twice panics: duplicate registration is a programming error the first
// scrape would otherwise silently mask.
type Registry struct {
	mu          sync.Mutex
	constLabels []Label
	families    []*family
	byName      map[string]*family
	// onScrape hooks run (in registration order) at the start of every
	// WriteText, letting scrape-time values (engine gauges, roster state) be
	// refreshed exactly when they are observed.
	onScrape []func()
}

// NewRegistry builds a registry whose every series carries the given
// constant labels.
func NewRegistry(constLabels ...Label) *Registry {
	return &Registry{constLabels: constLabels, byName: make(map[string]*family)}
}

type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// family is one named metric with zero or more labeled children.
type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]metricValue
	order    []string
}

type metricValue interface {
	write(w io.Writer, name string, labels string)
}

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, typ metricType, labelNames []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, buckets: buckets,
		children: make(map[string]metricValue),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// OnScrape registers a hook run at the start of every exposition, before any
// series is rendered. Use it to refresh gauges whose truth lives elsewhere
// (engine statistics, backend rosters) exactly at scrape time.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, f)
}

// child fetches or creates the labeled child for the given label values.
func (f *family) child(values []string, make func() metricValue) metricValue {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := make()
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// ---- Counter ----

// Counter is a monotonically increasing value. Set exists for scrape-time
// mirrors of counters accumulated elsewhere (the engine's epoch and
// completion totals): the underlying source is monotonic, the registry copy
// just tracks it.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0; negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set overwrites the counter with a scrape-time value from a monotonic
// source.
func (c *Counter) Set(v float64) { c.bits.Store(math.Float64bits(v)) }

// Value reads the counter.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(c.Value()))
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil, nil)
	return f.child(nil, func() metricValue { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labelNames, nil)}
}

// With returns the child counter for the given label values (created on
// first use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metricValue { return &Counter{} }).(*Counter)
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(g.Value()))
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil, nil)
	return f.child(nil, func() metricValue { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() metricValue { return &Gauge{} }).(*Gauge)
}

// ---- Histogram ----

// DefTimeBuckets are the default latency buckets in seconds, spanning the
// microsecond ticks of an idle shard to multi-second LP solves.
var DefTimeBuckets = []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5}

// Histogram counts observations into explicit cumulative buckets, exposed as
// name_bucket{le="..."} series plus name_sum and name_count.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // one per bucket, non-cumulative internally
	count   uint64
	sum     float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.counts) {
		h.counts[i]++
	}
}

// Count reads the total observation count.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	count, sum := h.count, h.sum
	h.mu.Unlock()
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", formatValue(ub)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// Histogram registers an unlabeled histogram over the given ascending bucket
// upper bounds (nil means DefTimeBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefTimeBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets are not ascending", name))
	}
	f := r.register(name, help, typeHistogram, nil, buckets)
	return f.child(nil, func() metricValue {
		return &Histogram{buckets: buckets, counts: make([]uint64, len(buckets))}
	}).(*Histogram)
}

// setDist overwrites the histogram with an externally accumulated
// distribution: non-cumulative per-bucket counts (one per configured bucket;
// observations above the last bound live only in count), total count and sum.
// Scrape-time mirrors of runtime-managed histograms use this instead of
// replaying observations one by one.
func (h *Histogram) setDist(counts []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	copy(h.counts, counts)
	for i := len(counts); i < len(h.counts); i++ {
		h.counts[i] = 0
	}
	h.count = count
	h.sum = sum
}

// HistogramVec is a histogram family keyed by label values. All children
// share the family's bucket bounds.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family over the given ascending
// bucket upper bounds (nil means DefTimeBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefTimeBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets are not ascending", name))
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, labelNames, buckets), buckets: buckets}
}

// With returns the child histogram for the given label values (created on
// first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() metricValue {
		return &Histogram{buckets: v.buckets, counts: make([]uint64, len(v.buckets))}
	}).(*Histogram)
}

// ---- exposition ----

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv64(v)
}

func strconv64(v float64) string { return strings.TrimSpace(fmt.Sprintf("%g", v)) }

// escapeLabelValue applies the exposition format's label-value escaping.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// renderLabels builds the `{a="b",c="d"}` block (empty string when there are
// no labels).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels appends one more pair to an already-rendered label block (used
// for histogram le labels).
func mergeLabels(rendered, name, value string) string {
	pair := fmt.Sprintf(`%s="%s"`, name, escapeLabelValue(value))
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// WriteText renders the full exposition: scrape hooks first, then every family
// in registration order with # HELP / # TYPE headers and its children in
// creation order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	fams := append([]*family{}, r.families...)
	consts := r.constLabels
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string{}, f.order...)
		children := make([]metricValue, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i, key := range keys {
			labels := append([]Label{}, consts...)
			if key != "" || len(f.labelNames) > 0 {
				values := strings.Split(key, "\x00")
				for j, ln := range f.labelNames {
					labels = append(labels, Label{Name: ln, Value: values[j]})
				}
			}
			children[i].write(w, f.name, renderLabels(labels))
		}
	}
}

// Expose renders the exposition to a string.
func (r *Registry) Expose() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// Handler serves the exposition over HTTP with the standard text content
// type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		r.WriteText(w)
	})
}
