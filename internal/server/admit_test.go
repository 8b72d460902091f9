package server

import (
	"fmt"
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
		Name: fmt.Sprintf("batch-%d", i), Weight: 1,
		Flows: []coflow.Flow{
			{Source: hosts[i%8], Dest: hosts[8+i%8], Size: 5},
			{Source: hosts[(i+3)%16], Dest: hosts[(i+9)%16], Size: 3},
		},
	}
}

// blockScheduler parks the scheduler goroutine on a command until the
// returned release function is called, so admissions submitted meanwhile
// pile up in the coalescing queue and must be processed as one batch.
func blockScheduler(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		_ = s.do(func() {
			close(entered)
			<-gate
		})
	}()
	<-entered
	return func() { close(gate) }
}

// waitQueued spins until n admissions sit in the coalescing queue (the
// scheduler must be blocked, so the count can only grow).
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.admitC) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d admissions queued", len(s.admitC), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitCoalescing queues many concurrent admissions behind a stalled
// scheduler and checks they are all admitted correctly in one (or very few)
// batches: distinct ids, dense id space, correct per-request responses.
func TestAdmitCoalescing(t *testing.T) {
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
			release := blockScheduler(t, s)
			batchesBefore := float64(s.metrics.admitBatchSize.Count())
			var wg sync.WaitGroup
			ids := make([]int, n)
			errs := make([]error, n)
			started := make(chan struct{}, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					started <- struct{}{}
					resp, err := c.Admit(admitSpec(i))
					if err != nil {
						errs[i] = err
						return
					}
					ids[i] = resp.ID
				}(i)
			}
			for i := 0; i < n; i++ {
				<-started
			}
			waitQueued(t, s, n)
			release()
			wg.Wait()

			seen := make(map[int]bool, n)
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("admit %d: %v", i, errs[i])
				}
				if seen[ids[i]] {
					t.Fatalf("duplicate coflow id %d", ids[i])
				}
				seen[ids[i]] = true
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
			// The queue was fully loaded before release, so the scheduler
			// should have absorbed the bulk in far fewer passes than n. (The
			// race between enqueue and drain keeps this from being exactly 1.)
			batches := float64(s.metrics.admitBatchSize.Count()) - batchesBefore
			if batches == 0 || batches > n/2 {
				t.Errorf("admissions used %v batches for %d requests (coalescing not effective)", batches, n)
			}
		})
	}
}

// TestAdmitCoalescingIdempotency covers the intra-batch duplicate-key path:
// two requests sharing an idempotency key queued into the SAME batch must
// yield one admission, with the duplicate replaying the original response.
func TestAdmitCoalescingIdempotency(t *testing.T) {
	s, ts := newAdmitTestServer(t, t.TempDir())
	c := NewClient(ts.URL)

	const n = 6 // 3 distinct keys, each sent twice
	release := blockScheduler(t, s)
	var wg sync.WaitGroup
	resps := make([]AdmitResponse, n)
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			resps[i], errs[i] = c.AdmitWithKey(admitSpec(i%3), "", fmt.Sprintf("key-%d", i%3))
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	waitQueued(t, s, n)
	release()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("admit %d: %v", i, errs[i])
		}
	}
	for k := 0; k < 3; k++ {
		if resps[k].ID != resps[k+3].ID {
			t.Fatalf("key-%d: duplicate admitted twice (ids %d and %d)", k, resps[k].ID, resps[k+3].ID)
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
