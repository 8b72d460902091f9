package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// newAdmitTestServer builds a frozen-clock daemon (no epoch ticks racing the
// test) and its HTTP front end.
func newAdmitTestServer(t *testing.T, walDir string) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		TimeScale:   1e-9,
		Logger:      telemetry.LogfLogger(t.Logf),
	}
	if walDir != "" {
		cfg.WALDir = walDir
		cfg.SnapshotInterval = -1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func admitSpec(i int) coflow.Coflow {
	hosts := graph.FatTree(4, 1).Hosts()
	return coflow.Coflow{
		Name: fmt.Sprintf("admit-%d", i), Weight: 1,
		Flows: []coflow.Flow{
			{Source: hosts[i%8], Dest: hosts[8+i%8], Size: 5},
			{Source: hosts[(i+3)%16], Dest: hosts[(i+9)%16], Size: 3},
		},
	}
}

// blockScheduler parks the scheduler goroutine on a command until the
// returned release function is called.
func blockScheduler(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		_ = s.do(context.Background(), func() {
			close(entered)
			<-gate
		})
	}()
	<-entered
	return func() { close(gate) }
}

// concurrently runs f(0..n-1) on n goroutines released together and waits
// for all of them.
func concurrently(n int, f func(i int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			f(i)
		}(i)
	}
	close(start)
	wg.Wait()
}

// TestAdmitConcurrent fires many admissions at once and checks each is
// admitted exactly once with its own response: distinct ids, a dense id
// space, and the name and trace the request carried.
func TestAdmitConcurrent(t *testing.T) {
	for _, walled := range []bool{false, true} {
		name := "wal=off"
		dir := ""
		if walled {
			name = "wal=on"
			dir = t.TempDir()
		}
		t.Run(name, func(t *testing.T) {
			s, ts := newAdmitTestServer(t, dir)
			c := NewClient(ts.URL)

			const n = 24
			resps := make([]AdmitResponse, n)
			errs := make([]error, n)
			concurrently(n, func(i int) {
				resps[i], errs[i] = c.AdmitTraced(admitSpec(i), fmt.Sprintf("trace-%d", i))
			})

			seen := make(map[int]bool, n)
			for i, resp := range resps {
				if errs[i] != nil {
					t.Fatalf("admit %d: %v", i, errs[i])
				}
				if seen[resp.ID] {
					t.Fatalf("duplicate coflow id %d", resp.ID)
				}
				seen[resp.ID] = true
				if want := admitSpec(i).Name; resp.Name != want {
					t.Errorf("admit %d: response name %q, want %q", i, resp.Name, want)
				}
				if want := fmt.Sprintf("trace-%d", i); resp.Trace != want {
					t.Errorf("admit %d: response trace %q, want %q", i, resp.Trace, want)
				}
				st, err := c.Coflow(resp.ID)
				if err != nil {
					t.Fatalf("coflow %d: %v", resp.ID, err)
				}
				if st.Name != resp.Name || st.Arrival != resp.Arrival {
					t.Errorf("coflow %d is %q@%v, its response said %q@%v", resp.ID, st.Name, st.Arrival, resp.Name, resp.Arrival)
				}
			}
			for id := 0; id < n; id++ {
				if !seen[id] {
					t.Fatalf("id space not dense: %d missing", id)
				}
			}
			st, err := s.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if st.Admitted != n {
				t.Fatalf("admitted %d coflows, want %d", st.Admitted, n)
			}
		})
	}
}

// TestAdmitConcurrentSameKey sends each of three idempotency keys twice at
// once: three admissions, and each duplicate gets its original's response.
func TestAdmitConcurrentSameKey(t *testing.T) {
	s, ts := newAdmitTestServer(t, t.TempDir())
	c := NewClient(ts.URL)

	const n = 6 // 3 distinct keys, each sent twice
	resps := make([]AdmitResponse, n)
	errs := make([]error, n)
	concurrently(n, func(i int) {
		resps[i], errs[i] = c.AdmitWithKey(admitSpec(i%3), "", fmt.Sprintf("key-%d", i%3))
	})

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("admit %d: %v", i, errs[i])
		}
	}
	for k := 0; k < 3; k++ {
		if resps[k] != resps[k+3] {
			t.Fatalf("key-%d: responses differ: %+v and %+v", k, resps[k], resps[k+3])
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != 3 {
		t.Fatalf("admitted %d coflows, want 3 (dedupe failed)", st.Admitted)
	}
}

// TestAdmitClientGoneBeforePickup stalls the scheduler and sends an admission
// whose client has already gone: the handler must answer 503 without waiting
// for the scheduler, and the admission must never run.
func TestAdmitClientGoneBeforePickup(t *testing.T) {
	s, _ := newAdmitTestServer(t, "")
	body, err := json.Marshal(admitSpec(0))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/coflows", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()

	release := blockScheduler(t, s)
	returned := make(chan struct{})
	go func() {
		s.handleAdmit(rec, req)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("handler waited for the stalled scheduler")
	}
	release()
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", rec.Code)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != 0 {
		t.Fatalf("admitted %d coflows, want 0", st.Admitted)
	}
}
