package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// testDurableServer starts a daemon with a WAL under dir. Lifecycle is
// manual: restart tests Kill one incarnation and boot another against the
// same directory, so there is no automatic cleanup beyond the final one the
// caller registers.
func testDurableServer(t *testing.T, dir string, timeScale float64) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		TimeScale:   timeScale,
		WALDir:      dir,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new durable server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, NewClient(ts.URL)
}

// TestServerRecoveryOverRestart admits coflows over HTTP, kills the daemon
// without a clean shutdown, and boots a fresh one against the same WAL
// directory: every acknowledged admission must come back with its id, name
// and arrival intact, and the recovered coflows must run to completion
// without being re-admitted.
func TestServerRecoveryOverRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustStartStepped(t, steppedConfig(t, dir))
	c := s.client(t)

	var admitted []AdmitResponse
	for i, spec := range []struct {
		name string
		size float64
	}{{"restart-a", 2}, {"restart-b", 3}, {"restart-c", 5}} {
		s.clk.set(0.5 * float64(i))
		resp, err := c.Admit(testCoflow(t, spec.name, spec.size))
		if err != nil {
			t.Fatalf("admit %s: %v", spec.name, err)
		}
		admitted = append(admitted, resp)
	}
	// Two epoch ticks, so the log holds advances and orders, not just admits.
	s.tickAt(t, 2)
	s.tickAt(t, 4)
	s.Kill() // crash-shaped: no drain, no final fsync

	s2 := mustStartStepped(t, steppedConfig(t, dir))
	c2 := s2.client(t)
	st, err := c2.Stats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if st.Admitted != len(admitted) || st.Now != 4 {
		t.Fatalf("recovered daemon admitted = %d at %v, want %d at 4", st.Admitted, st.Now, len(admitted))
	}
	for _, want := range admitted {
		got, err := c2.Coflow(want.ID)
		if err != nil {
			t.Fatalf("coflow %d after restart: %v", want.ID, err)
		}
		if got.Name != want.Name {
			t.Errorf("coflow %d name = %q after restart, admitted as %q", want.ID, got.Name, want.Name)
		}
		if got.Arrival != want.Arrival {
			t.Errorf("coflow %d arrival = %v after restart, admitted at %v", want.ID, got.Arrival, want.Arrival)
		}
	}

	// The recovered coflows must finish on their own as simulated time resumes.
	s2.tickUntilDone(t)
	for _, want := range admitted {
		if got, err := c2.Coflow(want.ID); err != nil || !got.Done {
			t.Errorf("coflow %d after the recovered run: %+v, %v", want.ID, got, err)
		}
	}
	final, err := c2.Stats()
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	if final.Completed != len(admitted) || final.Admitted != len(admitted) {
		t.Errorf("final stats admitted/completed = %d/%d, want %d/%d",
			final.Admitted, final.Completed, len(admitted), len(admitted))
	}
}

// TestRecoverySkipsCompleteRecords: older daemons logged a complete record
// after the advance that finished each coflow. Replay skips them, so such a
// log recovers to exactly the state the same log without them does.
func TestRecoverySkipsCompleteRecords(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)
	src := t.TempDir()
	s := crashServer(t, src)
	s.run(t, ops)
	s.Kill()
	var recs []*durable.Record
	if _, err := durable.Replay(src, 0, func(r *durable.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("read log: %v", err)
	}
	ids := make([]int, 0, len(ref))
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Rewrite the log the way an older daemon wrote it: a complete record
	// after each advance for every coflow finished by then.
	old := t.TempDir()
	l, err := durable.Open(old, durable.Options{})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	logged := make(map[int]bool)
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append %s: %v", r.Type, err)
		}
		if r.Type != durable.RecAdvance {
			continue
		}
		for _, id := range ids {
			if done := ref[id].completion; !logged[id] && done <= r.Advance.Now {
				logged[id] = true
				if _, err := l.Append(&durable.Record{Type: durable.RecComplete,
					Complete: &durable.CompleteRecord{ID: id, Time: done}}); err != nil {
					t.Fatalf("append complete: %v", err)
				}
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	if len(logged) == 0 {
		t.Fatal("no coflow finished inside the script: the log carries no complete record")
	}

	plain, withComplete := crashServer(t, src), crashServer(t, old)
	if a, b := plain.stats(t), withComplete.stats(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("recovered with %d complete records: %+v\nwithout them: %+v", len(logged), b, a)
	}
	want := drainOutcomes(t, plain)
	assertOutcomesMatch(t, ref, want)
	assertOutcomesMatch(t, want, drainOutcomes(t, withComplete))
}

// TestAdmitIdempotency checks the X-Coflow-Id dedupe path: a repeated key
// replays the original admission (same id, one engine admission), the key is
// echoed in the response header, and — with a WAL — the dedupe window
// survives a daemon restart.
func TestAdmitIdempotency(t *testing.T) {
	dir := t.TempDir()
	s, ts, c := testDurableServer(t, dir, 50)
	cf := testCoflow(t, "idem", 3)

	first, err := c.AdmitWithKey(cf, "", "key-A")
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	second, err := c.AdmitWithKey(cf, "", "key-A")
	if err != nil {
		t.Fatalf("duplicate admit: %v", err)
	}
	if second != first {
		t.Fatalf("duplicate admit response %+v, original %+v", second, first)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != 1 {
		t.Fatalf("admitted = %d after duplicate request, want 1", st.Admitted)
	}

	// The key is echoed on the wire so callers can correlate retries.
	body, _ := json.Marshal(cf)
	req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/coflows", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(IdemHeader, "key-A")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("raw admit: %v", err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusCreated {
		t.Errorf("duplicate raw admit status = %d, want 201", raw.StatusCode)
	}
	if got := raw.Header.Get(IdemHeader); got != "key-A" {
		t.Errorf("%s echo = %q, want key-A", IdemHeader, got)
	}

	// Keys survive a crash: the retried request after the restart still
	// dedupes against the WAL-recovered entry.
	ts.Close()
	s.Kill()
	s2, ts2, c2 := testDurableServer(t, dir, 50)
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	replayed, err := c2.AdmitWithKey(cf, "", "key-A")
	if err != nil {
		t.Fatalf("admit after restart: %v", err)
	}
	if replayed.ID != first.ID || replayed.Arrival != first.Arrival {
		t.Errorf("admit after restart = %+v, original %+v", replayed, first)
	}
	st2, err := c2.Stats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if st2.Admitted != 1 {
		t.Errorf("admitted = %d after restart retry, want 1", st2.Admitted)
	}
}

// TestAdmitFailedDurabilityNotCached pins the failed-append dedupe hole: an
// admission whose WAL write fails must 503 AND must not cache a dedupe entry,
// because the client auto-retries 503s with the same X-Coflow-Id — a cached
// entry would replay a 201 for an admission that was never durable and would
// silently vanish on restart.
func TestAdmitFailedDurabilityNotCached(t *testing.T) {
	dir := t.TempDir()
	s, ts, c := testDurableServer(t, dir, 50)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// Fail the log out from under the daemon: every later append errors, so
	// no admission can reach durability.
	s.wal.Abandon()

	cf := testCoflow(t, "not-durable", 2)
	if _, err := c.AdmitWithKey(cf, "", "key-fail"); err == nil {
		t.Fatal("admit with a failed WAL succeeded; want 503")
	}
	// The retry (same key) must fail again, not replay a cached 201.
	_, err := c.AdmitWithKey(cf, "", "key-fail")
	var apiErr *APIError
	if err == nil {
		t.Fatal("retried admit with a failed WAL succeeded; want 503")
	}
	if errors.As(err, &apiErr) && apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retried admit status = %d, want 503", apiErr.StatusCode)
	}
	var cached int
	if err := s.do(context.Background(), func() { cached = len(s.idem) }); err != nil {
		t.Fatalf("inspecting idem map: %v", err)
	}
	if cached != 0 {
		t.Fatalf("idem map holds %d entries after failed admissions, want 0", cached)
	}
}

// TestIdemRetirement pins the dedupe map's bound: completion moves an entry
// onto the tomb queue (still deduplicable through the grace window), and an
// expired tomb evicts it.
func TestIdemRetirement(t *testing.T) {
	s := &Server{
		idem:     map[string]idemEntry{"k1": {resp: AdmitResponse{ID: 7}}},
		idemByID: map[int]string{7: "k1"},
	}
	s.retireIdem([]int{7})
	if _, ok := s.idem["k1"]; !ok {
		t.Fatal("entry evicted at completion; must survive the grace window")
	}
	if _, ok := s.idemByID[7]; ok {
		t.Fatal("completed coflow still indexed in idemByID")
	}
	if len(s.idemTombs) != 1 {
		t.Fatalf("tombs = %d after completion, want 1", len(s.idemTombs))
	}
	// Force the grace window to lapse; the next sweep drops the entry.
	s.idemTombs[0].expires = time.Now().Add(-time.Second)
	s.retireIdem(nil)
	if len(s.idem) != 0 || len(s.idemTombs) != 0 {
		t.Fatalf("after expiry idem=%d tombs=%d, want 0/0", len(s.idem), len(s.idemTombs))
	}
}

// TestAdmitIdempotencyWithoutWAL pins that the dedupe window also works on a
// purely in-memory daemon (it just does not survive restarts there).
func TestAdmitIdempotencyWithoutWAL(t *testing.T) {
	s, c := testServer(t, online.SEBFOnline{}, 50)
	first, err := c.AdmitWithKey(testCoflow(t, "mem-idem", 2), "", "key-B")
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	second, err := c.AdmitWithKey(testCoflow(t, "mem-idem", 2), "", "key-B")
	if err != nil {
		t.Fatalf("duplicate admit: %v", err)
	}
	if second != first {
		t.Fatalf("duplicate response %+v, original %+v", second, first)
	}
	if st, err := s.Stats(); err != nil || st.Admitted != 1 {
		t.Fatalf("admitted = %d (%v), want 1", st.Admitted, err)
	}
}

// fallbackPolicy always falls back: it decides SEBF's order and hands it over
// as a *online.Fallback, the way LPEpoch does when its LP fails to solve.
type fallbackPolicy struct{}

func (fallbackPolicy) Name() string { return "fallback-stub" }

func (fallbackPolicy) Decide(snap *online.Snapshot) ([]coflow.FlowRef, error) {
	order, err := online.SEBFOnline{}.Decide(snap)
	if err != nil {
		return nil, err
	}
	return nil, &online.Fallback{Order: order, Err: errors.New("stub solver failure")}
}

// TestFallbackCountSurvivesRecovery: the fallback count is engine state like
// the decision count, so a daemon recovered from its log alone, or from a
// snapshot and the log suffix after it, reports the fallbacks its
// predecessor settled (EngineStats.Fallbacks, which /v1/stats and
// coflowd_policy_fallback_total serve).
func TestFallbackCountSurvivesRecovery(t *testing.T) {
	for _, snap := range []bool{false, true} {
		name := map[bool]string{false: "wal-only", true: "snapshot+suffix"}[snap]
		t.Run(name, func(t *testing.T) {
			cfg := steppedConfig(t, t.TempDir())
			cfg.Policy = fallbackPolicy{}
			s := mustStartStepped(t, cfg)
			for i := 0; i < 4; i++ {
				s.admitAt(t, 0, admitSpec(i))
			}
			for tick := 1; tick <= 3; tick++ {
				s.tickAt(t, float64(tick))
			}
			if snap {
				// The snapshot covers every order record, so the count
				// must come from the snapshot; the suffix is one more
				// admission.
				s.snapshot(t)
				s.admitAt(t, 3, admitSpec(4))
			}
			before := s.stats(t)
			if before.Decisions != 3 || before.Fallbacks != 3 {
				t.Fatalf("before the crash: decisions=%d fallbacks=%d, want 3 and 3", before.Decisions, before.Fallbacks)
			}
			s.Kill()

			after := mustStartStepped(t, cfg).stats(t)
			if after.Decisions != before.Decisions || after.Fallbacks != before.Fallbacks {
				t.Errorf("recovered decisions=%d fallbacks=%d, want %d and %d",
					after.Decisions, after.Fallbacks, before.Decisions, before.Fallbacks)
			}
		})
	}
}
