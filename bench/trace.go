package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test carries no spans of its own yet). Times are
// nanoseconds since the tracer was made.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the id (index in the trace) of the span that caused this
	// one, -1 for a root.
	Parent int `json:"parent"`
	// Op is shared by every span of one operation: the instance index, the
	// epoch, or the admitted coflow's index.
	Op int `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing and reads no
// clock, which is what the untraced (end-to-end) runs use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// total sums the durations of every span of one name, inside the timed
// window or not.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// layerTimes aggregates the spans that lie inside [from, to] by name.
type layerTimes struct {
	// total is the summed duration per name, self the same minus the time
	// the span's children cover, durs every duration in seconds.
	total, self map[string]time.Duration
	durs        map[string][]float64
	// roots is the summed duration of the spans without a parent: on a
	// serial workload, window minus roots is the time no span explains.
	roots time.Duration
}

func (t *tracer) aggregate(from, to time.Time) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, durs: map[string][]float64{}}
	lo, hi := int64(from.Sub(t.t0)), int64(to.Sub(t.t0))
	in := func(s span) bool { return s.Start >= lo && s.End <= hi && s.End >= s.Start }
	for _, s := range t.spans {
		if !in(s) {
			continue
		}
		d := s.dur()
		lt.total[s.Name] += d
		lt.self[s.Name] += d
		lt.durs[s.Name] = append(lt.durs[s.Name], d.Seconds())
		if s.Parent < 0 {
			lt.roots += d
		} else if p := t.spans[s.Parent]; in(p) {
			lt.self[p.Name] -= d
		}
	}
	return lt
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"meta": meta, "spans": t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
