package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTracerRecordAndJoin(t *testing.T) {
	gw := NewTracer("coflowgate", "", 16)
	sh := NewTracer("coflowd", "shard0", 16)
	id := NewTraceID()
	if len(id) == 0 {
		t.Fatal("empty trace id")
	}
	gw.Record(Span{Trace: id, Name: "admit", Coflow: 0, Duration: 0.001})
	gw.Record(Span{Trace: NewTraceID(), Name: "admit", Coflow: 1})
	sh.Record(Span{Trace: id, Name: "shard-admit", Coflow: 5})

	g := gw.Dump(id, 0).Spans
	s := sh.Dump(id, 0).Spans
	if len(g) != 1 || len(s) != 1 {
		t.Fatalf("Dump: gateway %d spans, shard %d spans, want 1+1", len(g), len(s))
	}
	if g[0].Component != "coflowgate" || s[0].Component != "coflowd" || s[0].Shard != "shard0" {
		t.Errorf("tracer identity not stamped: %+v %+v", g[0], s[0])
	}
	if g[0].Wall.IsZero() {
		t.Error("wall clock not stamped")
	}
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer("x", "", 4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: "s", Coflow: i, Wall: time.Unix(int64(i), 0)})
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Coflow != 6+i {
			t.Errorf("span %d is coflow %d, want %d (oldest evicted, order kept)", i, s.Coflow, 6+i)
		}
	}
	d := tr.Dump("", 0)
	if d.Total != 10 || d.Dropped != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", d.Total, d.Dropped)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer("coflowd", "s1", 8)
	id := NewTraceID()
	tr.Record(Span{Trace: id, Name: "shard-admit", Coflow: 3})
	tr.Record(Span{Name: "epoch-decision", Coflow: -1})

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var dump TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("payload is not JSON: %v", err)
	}
	if dump.Component != "coflowd" || dump.Shard != "s1" || len(dump.Spans) != 2 {
		t.Fatalf("dump = %+v", dump)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+id, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Trace != id {
		t.Fatalf("filtered dump = %+v, want just trace %s", dump.Spans, id)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Name: "x"}) // must not panic
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil tracer snapshot = %v", got)
	}
}

func TestTraceIDsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}
