package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// TraceHeader carries a coflow's trace id from the gateway to the shard that
// admits it, so spans recorded by the two daemons join into one lifecycle.
const TraceHeader = "X-Coflow-Trace"

// NewTraceID mints a fresh 16-hex-char trace id (64 random bits — collisions
// across a trace ring's lifetime are negligible).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to a time-derived id
		// rather than panicking inside an admit path.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// Span is one recorded step of a coflow's lifecycle (or a daemon-level event
// like an epoch decision, which carries no trace id). Spans are small, flat
// and JSON-stable: /debug/traces consumers join gateway and shard rings on
// the Trace field.
type Span struct {
	// Trace joins this span to a coflow lifecycle; empty for daemon-level
	// spans (epoch decisions).
	Trace string `json:"trace,omitempty"`
	// Name is the lifecycle step: admit, batch-flush, placement, shard-admit,
	// epoch-decision, completion.
	Name string `json:"name"`
	// Component and Shard identify the recording daemon (filled by the
	// tracer).
	Component string `json:"component"`
	Shard     string `json:"shard,omitempty"`
	// Coflow is the recording daemon's coflow id (-1 when not applicable;
	// note gateway and shard ids differ — Trace is the join key).
	Coflow int `json:"coflow"`
	// Wall is the span's wall-clock end time; Duration its length in
	// seconds.
	Wall     time.Time `json:"wall"`
	Duration float64   `json:"duration_seconds"`
	// Attrs carries step-specific detail (backend name, batch size, CCT...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans into a bounded ring: a long-running daemon keeps the
// most recent Capacity spans and counts what it dropped. Safe for concurrent
// use.
type Tracer struct {
	component string
	shard     string

	mu      sync.Mutex
	buf     []Span
	next    int
	cap     int
	total   uint64
	dropped uint64
}

// RingCapacity is the span ring both daemons keep.
const RingCapacity = 4096

// NewTracer builds a tracer for one daemon keeping the most recent capacity
// (> 0) spans.
func NewTracer(component, shard string, capacity int) *Tracer {
	return &Tracer{component: component, shard: shard, cap: capacity}
}

// Record stores one span, stamping the tracer's identity and the wall clock
// if the span carries none.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	s.Component = t.component
	if s.Shard == "" {
		s.Shard = t.shard
	}
	if s.Wall.IsZero() {
		s.Wall = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, s)
		return
	}
	t.dropped++
	t.buf[t.next] = s
	t.next = (t.next + 1) % t.cap
}

// Snapshot returns the retained spans in recording order.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Totals reports the span counts without copying the ring.
func (t *Tracer) Totals() (total, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.dropped
}

// TraceDump is the JSON payload of /debug/traces.
type TraceDump struct {
	Component string `json:"component"`
	Shard     string `json:"shard,omitempty"`
	// Total counts spans ever recorded; Dropped those evicted from the ring.
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
	Spans   []Span `json:"spans"`
}

// Dump snapshots the ring as a TraceDump, optionally filtered to one trace
// id and/or limited to the most recent n spans.
func (t *Tracer) Dump(traceID string, n int) TraceDump {
	t.mu.Lock()
	total, dropped := t.total, t.dropped
	t.mu.Unlock()
	spans := t.Snapshot()
	if traceID != "" {
		filtered := spans[:0]
		for _, s := range spans {
			if s.Trace == traceID {
				filtered = append(filtered, s)
			}
		}
		spans = filtered
	}
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	if spans == nil {
		spans = []Span{}
	}
	return TraceDump{Component: t.component, Shard: t.shard, Total: total, Dropped: dropped, Spans: spans}
}

// Handler serves GET /debug/traces: the span ring as JSON, with optional
// ?trace=<id> filtering and ?n=<count> limiting.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			if v, err := strconv.Atoi(raw); err == nil && v > 0 {
				n = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(t.Dump(r.URL.Query().Get("trace"), n))
	})
}
