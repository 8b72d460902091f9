package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// steppedClock is a clock a test moves by hand: set fixes the simulated now,
// and an epoch or snapshot tick fires only when the test sends one.
type steppedClock struct {
	mu    sync.Mutex
	t     float64
	ticks chan time.Time
	snaps chan time.Time
}

func (c *steppedClock) now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *steppedClock) set(t float64) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// stepped is a Server whose scheduler loop runs on a steppedClock.
type stepped struct {
	*Server
	clk *steppedClock
	api http.Handler
}

// startStepped starts a server on a stepped clock that begins where recovery
// left the engine clock. Cleanup closes it; a test that Kills it first loses
// nothing, Close after Kill being a no-op.
func startStepped(t *testing.T, cfg Config) (*stepped, error) {
	t.Helper()
	clk := &steppedClock{ticks: make(chan time.Time), snaps: make(chan time.Time)}
	s, err := newServer(cfg, func(_ Config, base float64) clock {
		clk.set(base)
		return clock{now: clk.now, epochs: clk.ticks, snapshots: clk.snaps, stop: func() {}}
	})
	if err != nil {
		return nil, err
	}
	t.Cleanup(s.Close)
	return &stepped{Server: s, clk: clk, api: s.Handler()}, nil
}

// mustStartStepped is startStepped for tests that expect the boot to succeed.
func mustStartStepped(t *testing.T, cfg Config) *stepped {
	t.Helper()
	s, err := startStepped(t, cfg)
	if err != nil {
		t.Fatalf("start stepped server: %v", err)
	}
	return s
}

// steppedConfig is the daemon configuration of the stepped tests: SEBF on the
// 16-server fat-tree, epoch 2, with a log under walDir unless it is empty.
func steppedConfig(t *testing.T, walDir string) Config {
	return Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		WALDir:      walDir,
		Logger:      telemetry.LogfLogger(t.Logf),
	}
}

// client serves the stepped server over an httptest listener.
func (s *stepped) client(t *testing.T) *Client {
	t.Helper()
	ts := httptest.NewServer(s.api)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// admitAt admits cf through the HTTP API at simulated time at and returns the
// 201's body.
func (s *stepped) admitAt(t *testing.T, at float64, cf coflow.Coflow) AdmitResponse {
	t.Helper()
	s.clk.set(at)
	body, err := json.Marshal(cf)
	if err != nil {
		t.Fatalf("marshal %s: %v", cf.Name, err)
	}
	rec := httptest.NewRecorder()
	s.api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/coflows", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("admit %s at %v: status %d: %s", cf.Name, at, rec.Code, rec.Body)
	}
	var resp AdmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("admit %s: decoding response: %v", cf.Name, err)
	}
	return resp
}

// tickAt fires one epoch tick at simulated time at and returns once the tick
// has run and the decide it started has been handed to the engine.
func (s *stepped) tickAt(t *testing.T, at float64) {
	t.Helper()
	s.fire(at)
	s.settled(t)
}

// fire sends one epoch tick at simulated time at and returns once the
// scheduler has taken it, without waiting for the decide it starts.
func (s *stepped) fire(at float64) {
	s.clk.set(at)
	s.clk.ticks <- time.Time{}
}

// settled returns once no decide is in flight: the last one's result has been
// handed to the engine (or dropped).
func (s *stepped) settled(t *testing.T) {
	t.Helper()
	for {
		var solving bool
		if err := s.do(context.Background(), func() { solving = s.solving }); err != nil {
			t.Fatalf("waiting for the decide: %v", err)
		}
		if !solving {
			return
		}
		runtime.Gosched()
	}
}

// snapshot fires one snapshot tick and returns once the snapshot is written.
func (s *stepped) snapshot(t *testing.T) {
	t.Helper()
	want := s.metrics.snapshots.Value() + 1
	s.clk.snaps <- time.Time{}
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.snapshots.Value() < want {
		if time.Now().After(deadline) {
			t.Fatal("snapshot not written within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stats reads the engine's counters, failing the test on a stopped server.
func (s *stepped) stats(t *testing.T) online.EngineStats {
	t.Helper()
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	return st
}

// tickUntilDone ticks every epoch after the engine clock until every admitted
// coflow has completed.
func (s *stepped) tickUntilDone(t *testing.T) {
	t.Helper()
	st := s.stats(t)
	for i := 0; st.Completed < st.Admitted; i++ {
		if i > 1000 {
			t.Fatalf("%d of %d coflows unfinished after 1000 ticks", st.Admitted-st.Completed, st.Admitted)
		}
		s.tickAt(t, st.Now+s.cfg.EpochLength)
		st = s.stats(t)
	}
}

// TestWallClockStartsAfterRecovery pins that a restarted daemon's clock
// continues from where replay left the engine: recovery that takes 200 ms at
// TimeScale 1000 must not move simulated time 200 units ahead.
func TestWallClockStartsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	first := mustStartStepped(t, steppedConfig(t, dir))
	first.admitAt(t, 5, testCoflow(t, "before-restart", 50))
	first.tickAt(t, 5)
	first.Kill()

	testRecoverDelay = func() { time.Sleep(200 * time.Millisecond) }
	defer func() { testRecoverDelay = nil }()
	cfg := steppedConfig(t, dir)
	cfg.EpochLength = 50
	cfg.TimeScale = 1000
	s, err := newServer(cfg, wallClock)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s.Close()
	if now := s.clock.now(); now < 5 || now >= 5+cfg.EpochLength {
		t.Fatalf("first simulated now after recovery = %v, want within one epoch (%v) of the replayed clock 5",
			now, cfg.EpochLength)
	}
}
