package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coflowsched/internal/telemetry"
)

// flakyHandler fails the first n requests with the given status (0 = drop the
// connection) and then delegates to ok.
type flakyHandler struct {
	n      int64
	status int
	seen   atomic.Int64
	ok     http.Handler
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.seen.Add(1) <= h.n {
		if h.status == 0 {
			hj, okCast := w.(http.Hijacker)
			if !okCast {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.WriteHeader(h.status)
		fmt.Fprintln(w, `{"error":"transient"}`)
		return
	}
	h.ok.ServeHTTP(w, r)
}

func okJSON(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, body)
	})
}

// TestClientRetriesTransientStatus: 503s are retried until the backend
// recovers, within the retry budget.
func TestClientRetriesTransientStatus(t *testing.T) {
	h := &flakyHandler{n: 2, status: http.StatusServiceUnavailable, ok: okJSON(`{"status":"ok"}`)}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(2, time.Millisecond))
	if _, err := c.Health(); err != nil {
		t.Fatalf("health after transient failures: %v", err)
	}
	if got := h.seen.Load(); got != 3 {
		t.Errorf("backend saw %d requests, want 3 (2 failures + 1 success)", got)
	}
}

// TestClientRetriesConnectionDrop: a dropped connection (no HTTP response at
// all) is a transport error and is retried.
func TestClientRetriesConnectionDrop(t *testing.T) {
	h := &flakyHandler{n: 1, status: 0, ok: okJSON(`{"status":"ok"}`)}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(3, time.Millisecond))
	if _, err := c.Health(); err != nil {
		t.Fatalf("health after dropped connection: %v", err)
	}
}

// TestClientRetryBudgetExhausted: a persistently failing backend surfaces an
// error naming the attempt count instead of hanging.
func TestClientRetryBudgetExhausted(t *testing.T) {
	h := &flakyHandler{n: 1 << 30, status: http.StatusServiceUnavailable, ok: okJSON(`{}`)}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(2, time.Millisecond))
	_, err := c.Health()
	if err == nil {
		t.Fatal("expected an error from a persistently failing backend")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error %q does not name the attempt count", err)
	}
	if got := h.seen.Load(); got != 3 {
		t.Errorf("backend saw %d requests, want 3", got)
	}
}

// TestClientFailsFastOnValidationErrors: 4xx responses are not transient and
// must not be retried (a malformed coflow never becomes well-formed).
func TestClientFailsFastOnValidationErrors(t *testing.T) {
	h := &flakyHandler{n: 1 << 30, status: http.StatusBadRequest, ok: okJSON(`{}`)}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(3, time.Millisecond))
	if _, err := c.Health(); err == nil {
		t.Fatal("expected an error")
	}
	if got := h.seen.Load(); got != 1 {
		t.Errorf("backend saw %d requests, want 1 (no retries on 4xx)", got)
	}
}

// TestClientTimeout: a hung backend fails the request at the configured
// timeout instead of stalling the caller — a replay or gateway hang the
// option exists to prevent.
func TestClientTimeout(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	// LIFO: the blocked handlers must be released before ts.Close(), which
	// waits for outstanding requests to finish.
	defer ts.Close()
	defer close(block)

	c := NewClient(ts.URL, WithTimeout(30*time.Millisecond), WithRetries(1, time.Millisecond))
	start := time.Now()
	_, err := c.Health()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if elapsed > 2*time.Second {
		t.Errorf("request took %v, want prompt timeout", elapsed)
	}
}

// TestClientRetryInstrumentation: with WithInstrumentation wired, every
// retry bumps the per-endpoint counter and emits a debug log line — the
// visibility the gateway uses to spot a flapping backend before the health
// prober trips.
func TestClientRetryInstrumentation(t *testing.T) {
	h := &flakyHandler{n: 2, status: http.StatusServiceUnavailable, ok: okJSON(`{"status":"ok"}`)}
	ts := httptest.NewServer(h)
	defer ts.Close()

	reg := telemetry.NewRegistry()
	retries := reg.CounterVec("test_client_retries_total", "retries", "endpoint")
	var logBuf bytes.Buffer
	logger := telemetry.NewLogger(&logBuf, slog.LevelDebug, "text", "test", "")

	c := NewClient(ts.URL, WithRetries(3, time.Millisecond), WithInstrumentation(retries, logger))
	if _, err := c.Health(); err != nil {
		t.Fatalf("health after transient failures: %v", err)
	}
	if got := retries.With("health").Value(); got != 2 {
		t.Errorf("retry counter = %v, want 2", got)
	}
	if logs := logBuf.String(); strings.Count(logs, "retrying request") != 2 || !strings.Contains(logs, "endpoint=health") {
		t.Errorf("retry debug logs missing or wrong:\n%s", logs)
	}
}
