// Package monitor closes the observability loop over the daemons' /metrics
// pages: coflowmon scrapes them into bounded in-memory time-series
// (store.go), evaluates declarative SLO rules with multi-window burn rates
// over them (slo.go), and on a rule's transition to firing captures a
// post-mortem flight-recorder bundle joining time-series, lifecycle traces,
// scheduler epoch records and pprof profiles (recorder.go). monitor.go is
// the daemon glue: the scrape loop and target discovery via a gateway's
// /v1/backends; handlers.go the HTTP API (/v1/targets, /v1/query, /v1/slo,
// /healthz). The monitor serves no /metrics of its own: nothing scrapes it.
//
// Like the rest of the repo the package is stdlib-only; the scrape parser is
// telemetry.ParseMetrics, the same strict parser the conformance tests run.
package monitor

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"coflowsched/internal/telemetry"
)

// Point is one sample of one series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// SeriesData is one series as queries and bundles report it: the metric
// name, its full label set (scrape labels plus the monitor-stamped
// instance), and the retained points in chronological order.
type SeriesData struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// Selector picks series: the metric name plus label equality constraints
// (a series matches when its label set is a superset of Labels).
type Selector struct {
	Name   string
	Labels map[string]string
}

// series is one bounded ring of points.
type series struct {
	name   string
	labels map[string]string
	pts    []Point
	next   int
	full   bool
}

func (s *series) append(p Point, cap int) {
	if !s.full && len(s.pts) < cap {
		s.pts = append(s.pts, p)
		if len(s.pts) == cap {
			s.full = true
		}
		return
	}
	s.pts[s.next] = p
	s.next = (s.next + 1) % len(s.pts)
}

// ordered returns the ring in chronological order.
func (s *series) ordered() []Point {
	out := make([]Point, 0, len(s.pts))
	if s.full {
		out = append(out, s.pts[s.next:]...)
		out = append(out, s.pts[:s.next]...)
		return out
	}
	return append(out, s.pts...)
}

// matches reports whether the series satisfies the selector's label
// constraints.
func (s *series) matches(sel Selector) bool {
	if s.name != sel.Name {
		return false
	}
	for k, v := range sel.Labels {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// DefaultMaxPoints bounds each series ring: at a 1s scrape interval this
// retains ~17 minutes of history per series.
const DefaultMaxPoints = 1024

// Store holds scraped samples as bounded per-series rings, keyed by metric
// name x label set. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	maxPoints int
	series    map[string]*series
	order     []string
}

// NewStore builds a store retaining at most maxPoints per series (<= 0 means
// DefaultMaxPoints).
func NewStore(maxPoints int) *Store {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	return &Store{maxPoints: maxPoints, series: make(map[string]*series)}
}

// seriesKey renders a stable identity for name x labels.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte('\xff')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// Append records one sample. Non-finite values are dropped: NaN means "no
// data" on every exposition page this repo produces, and neither NaN nor Inf
// survives JSON encoding in queries or bundles.
func (st *Store) Append(name string, labels map[string]string, t time.Time, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	key := seriesKey(name, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[key]
	if !ok {
		copied := make(map[string]string, len(labels))
		for k, val := range labels {
			copied[k] = val
		}
		s = &series{name: name, labels: copied}
		st.series[key] = s
		st.order = append(st.order, key)
	}
	s.append(Point{T: t, V: v}, st.maxPoints)
}

// Query returns every series matching sel, with points restricted to
// [from, to] (zero times mean unbounded). Series appear in first-seen order.
func (st *Store) Query(sel Selector, from, to time.Time) []SeriesData {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []SeriesData
	for _, key := range st.order {
		s := st.series[key]
		if !s.matches(sel) {
			continue
		}
		var pts []Point
		for _, p := range s.ordered() {
			if !from.IsZero() && p.T.Before(from) {
				continue
			}
			if !to.IsZero() && p.T.After(to) {
				continue
			}
			pts = append(pts, p)
		}
		if pts == nil {
			pts = []Point{}
		}
		out = append(out, SeriesData{Name: s.name, Labels: s.labels, Points: pts})
	}
	return out
}

// Dump snapshots every series' retained window — the flight recorder's
// time-series evidence.
func (st *Store) Dump() []SeriesData {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SeriesData, 0, len(st.order))
	for _, key := range st.order {
		s := st.series[key]
		out = append(out, SeriesData{Name: s.name, Labels: s.labels, Points: s.ordered()})
	}
	return out
}

// ---- derived views ----

// LastValue is the gauge view: the most recent sample of each matching
// series within [now-window, now], reduced by reduce ("min" or "max") into
// one value. ok is false when no matching series has a point in the window.
func (st *Store) LastValue(sel Selector, now time.Time, window time.Duration, reduce string) (float64, bool) {
	return st.fold(sel, now, window, reduce, true)
}

// WorstValue reduces every point (not just the last) of matching series in
// the window — the view sustained-outage rules want: a gauge that dipped and
// recovered still counts for as long as the dip stays inside the window.
func (st *Store) WorstValue(sel Selector, now time.Time, window time.Duration, reduce string) (float64, bool) {
	return st.fold(sel, now, window, reduce, false)
}

// fold reduces the points of matching series in [now-window, now], or only
// each series' last one, into their min or max.
func (st *Store) fold(sel Selector, now time.Time, window time.Duration, reduce string, lastOnly bool) (float64, bool) {
	best := math.NaN()
	for _, sd := range st.Query(sel, now.Add(-window), now) {
		pts := sd.Points
		if lastOnly && len(pts) > 0 {
			pts = pts[len(pts)-1:]
		}
		for _, p := range pts {
			switch {
			case math.IsNaN(best):
				best = p.V
			case reduce == "min" && p.V < best:
				best = p.V
			case reduce != "min" && p.V > best:
				best = p.V
			}
		}
	}
	return best, !math.IsNaN(best)
}

// counterDelta sums a counter's steps over pts. A reset (a restarted daemon)
// contributes the post-reset value rather than a negative delta, mirroring
// Prometheus rate() semantics.
func counterDelta(pts []Point) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 { // reset: the counter restarted from zero
			d = pts[i].V
		}
		total += d
	}
	return total
}

// Increase is the counter view's total: the summed increase of every
// matching series over [now-window, now]. ok is false when no series has two
// points in the window.
func (st *Store) Increase(sel Selector, now time.Time, window time.Duration) (float64, bool) {
	total, _, ok := st.increase(sel, now, window)
	return total, ok
}

// increase is Increase plus the span between the first and last point it
// covers, which CounterRate divides by.
func (st *Store) increase(sel Selector, now time.Time, window time.Duration) (total float64, span time.Duration, ok bool) {
	var spanStart, spanEnd time.Time
	for _, sd := range st.Query(sel, now.Add(-window), now) {
		if len(sd.Points) < 2 {
			continue
		}
		ok = true
		total += counterDelta(sd.Points)
		if spanStart.IsZero() || sd.Points[0].T.Before(spanStart) {
			spanStart = sd.Points[0].T
		}
		if last := sd.Points[len(sd.Points)-1].T; last.After(spanEnd) {
			spanEnd = last
		}
	}
	return total, spanEnd.Sub(spanStart), ok
}

// CounterRate is the counter view: Increase per second of span. ok is false
// when no series has two points in the window.
func (st *Store) CounterRate(sel Selector, now time.Time, window time.Duration) (float64, bool) {
	total, span, ok := st.increase(sel, now, window)
	if !ok || span <= 0 {
		return 0, false
	}
	return total / span.Seconds(), true
}

// HistogramQuantile estimates quantile q of the observations a histogram
// recorded during [now-window, now], from the deltas of its cumulative
// name_bucket series: matching series are summed per le bound (aggregating
// across shards/instances) and handed to telemetry.HistogramQuantile.
//
// sel.Name is the histogram family name (without the _bucket suffix);
// sel.Labels must not constrain le. ok is false when no observations landed
// in the window.
func (st *Store) HistogramQuantile(sel Selector, q float64, now time.Time, window time.Duration) (float64, bool) {
	byLE := make(map[float64]float64)
	for _, sd := range st.Query(Selector{Name: sel.Name + "_bucket", Labels: sel.Labels}, now.Add(-window), now) {
		leRaw, ok := sd.Labels["le"]
		if !ok || len(sd.Points) < 2 {
			continue
		}
		le, err := strconv.ParseFloat(leRaw, 64)
		if err != nil {
			continue
		}
		byLE[le] += counterDelta(sd.Points)
	}
	return telemetry.HistogramQuantile(byLE, q)
}
