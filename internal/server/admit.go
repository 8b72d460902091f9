package server

import (
	"runtime"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// Admission coalescing. Handlers do not run admissions through the generic
// command channel (s.do) — they enqueue an admitReq on a buffered channel and
// the scheduler drains everything queued behind one receive into a single
// batch: one channel round-trip, one engine.AdmitBatch call and one WAL
// group commit for N concurrent requests, instead of N of each. Batches that
// appended log records are handed whole to the committer goroutine, which
// serializes the fsyncs and releases every member after its records are
// durable; the scheduler itself never waits on a disk.
//
// Semantics are identical to processing the requests one at a time in queue
// order: AdmitBatch is equivalent to sequential Admit calls, idempotency-key
// dedupe runs against the same map, and a duplicate key WITHIN one batch is
// deferred to a sequential pass after the batch so it observes the original
// admission's outcome exactly as it would have under serial processing.

// admitQueueDepth bounds queued-but-unprocessed admissions; submitters block
// (with shutdown checks) when it is full.
const admitQueueDepth = 1024

// maxAdmitBatch caps how many queued admissions one scheduler pass absorbs,
// bounding the time the epoch tick can be delayed behind a burst.
const maxAdmitBatch = 256

// admitReq is one queued admission. The scheduler goroutine fills the result
// fields; done is closed (by the committer once the records are durable, or
// by the scheduler when there is nothing to commit) to release the handler.
type admitReq struct {
	cf    coflow.Coflow
	key   string
	trace string
	enq   time.Time // handler enqueue instant, start of coalesce-wait

	resp     AdmitResponse
	seq      uint64
	dup      bool
	admitErr error
	walErr   error
	done     chan struct{}

	// Per-stage pipeline latencies (seconds), filled by the scheduler and
	// committer as the request moves through; the handler reads them after
	// done closes (the close is the happens-before edge) and turns them into
	// /debug/traces spans. Batch-shared stages (engine-admit, group-commit)
	// carry the whole batch's duration on every member.
	waitSecs   float64
	admitSecs  float64
	appendSecs float64
	commitSecs float64
}

// submitAdmit queues the request for the scheduler's next admission batch and
// waits for the batch to process it. Returns errStopped if the server shut
// down before the request was processed.
func (s *Server) submitAdmit(req *admitReq) error {
	select {
	case s.admitC <- req:
	case <-s.stopped:
		return errStopped
	}
	select {
	case <-req.done:
		return nil
	case <-s.stopped:
		// Shutdown raced the batch; like Server.do, a request that WAS
		// processed must not be reported as dropped.
		select {
		case <-req.done:
			return nil
		default:
			return errStopped
		}
	}
}

// processAdmits runs on the scheduler goroutine with one received request in
// hand; it drains the admission queue into a batch and processes it.
func (s *Server) processAdmits(first *admitReq) {
	batch := append(s.admitScratch[:0], first)
	// One cooperative yield before draining the queue. The channel send that
	// woke this goroutine preempts the other ready handler goroutines (the
	// runtime's run-next slot), so under low GOMAXPROCS the queue would
	// otherwise hold exactly one request every time and coalescing would
	// never engage. Yielding lets every runnable handler enqueue first,
	// turning concurrent arrivals into one real batch — one AdmitBatch call
	// and one group commit — at the cost of one scheduler pass per batch.
	runtime.Gosched()
fill:
	for len(batch) < maxAdmitBatch {
		select {
		case r := <-s.admitC:
			batch = append(batch, r)
		default:
			break fill
		}
	}
	t0 := time.Now()
	for _, req := range batch {
		req.waitSecs = t0.Sub(req.enq).Seconds()
		s.metrics.stageWait.Observe(req.waitSecs)
	}
	now := s.simNow()
	// Filter pass: resolve dedupe hits and rejections, defer intra-batch
	// key conflicts, and collect the rest for the batched admission.
	var admits []*admitReq
	var specs []coflow.Coflow
	var deferred []*admitReq
	var claimed map[string]bool
	for _, req := range batch {
		if req.key != "" {
			if prev, ok := s.idem[req.key]; ok {
				req.resp, req.seq, req.dup = prev.resp, prev.seq, true
				continue
			}
			if claimed[req.key] {
				deferred = append(deferred, req)
				continue
			}
			if claimed == nil {
				claimed = make(map[string]bool)
			}
			claimed[req.key] = true
		}
		if s.draining {
			req.admitErr = errDraining
			continue
		}
		// A fail-stopped log rejects the admission before the engine mutates:
		// retries against a daemon that cannot persist must not pile
		// never-durable coflows into memory.
		if s.wal != nil {
			if err := s.wal.Err(); err != nil {
				req.walErr = err
				continue
			}
		}
		admits = append(admits, req)
		specs = append(specs, req.cf)
	}
	s.metrics.stageAssemble.Observe(time.Since(t0).Seconds())
	if len(admits) > 0 {
		ta := time.Now()
		results := s.eng.AdmitBatch(specs, now)
		admitSecs := time.Since(ta).Seconds()
		s.metrics.stageEngine.Observe(admitSecs)
		for i, res := range results {
			admits[i].admitSecs = admitSecs
			s.finishAdmit(admits[i], res, now)
		}
	}
	// Deferred duplicates observe the batch's idempotency entries, exactly
	// as they would have under serial processing.
	for _, req := range deferred {
		s.admitOne(req)
	}
	s.metrics.admitBatchSize.Observe(float64(len(batch)))
	if s.wal != nil {
		for _, req := range batch {
			if req.seq > 0 {
				// At least one record to make durable: hand the whole batch to
				// the committer goroutine and move on. The scheduler keeps
				// appending later batches while the committer's fsync is in
				// flight, and those appends fold into the next group commit.
				s.commitC <- batch
				s.admitScratch = s.takeBatchBuf()
				return
			}
		}
	}
	for i, req := range batch {
		close(req.done)
		batch[i] = nil // keep the scratch backing from pinning requests
	}
	s.admitScratch = batch[:0]
}

// commitQueueDepth bounds batches queued at the committer. The scheduler
// blocks when it is full, which is pure backpressure: the committer is always
// draining, one fsync at a time.
const commitQueueDepth = 64

// committer is the durability goroutine: it serializes Log.Commit calls for
// admission batches so the scheduler never waits on a disk. While one fsync
// is in flight the scheduler keeps processing batches and appending their
// records; the log's group commit syncs through everything appended when the
// next Commit lands, so queued batches collapse into one fsync and the
// admits-per-fsync ratio rises with concurrency instead of pinning at 1.
// Exits when the scheduler closes commitC at shutdown, after releasing every
// queued waiter.
func (s *Server) committer() {
	defer close(s.committerDone)
	for batch := range s.commitC {
		var maxSeq uint64
		for _, req := range batch {
			if req.seq > maxSeq {
				maxSeq = req.seq
			}
		}
		tc := time.Now()
		err := s.wal.Commit(maxSeq)
		commitSecs := time.Since(tc).Seconds()
		s.metrics.stageCommit.Observe(commitSecs)
		for i, req := range batch {
			if req.seq > 0 {
				req.commitSecs = commitSecs
			}
			// A commit failure is a durability failure for every member whose
			// record it covered, duplicates included: their original append's
			// persistence can no longer be promised.
			if err != nil && req.seq > 0 && req.walErr == nil {
				req.walErr = err
			}
			close(req.done)
			batch[i] = nil
		}
		s.putBatchBuf(batch[:0])
	}
}

// takeBatchBuf recycles a batch buffer the committer has finished with, or
// starts a fresh one. Scheduler goroutine only.
func (s *Server) takeBatchBuf() []*admitReq {
	select {
	case b := <-s.batchFree:
		return b
	default:
		return nil
	}
}

// putBatchBuf returns a drained batch buffer to the free list (dropping it if
// the list is full). Committer goroutine only.
func (s *Server) putBatchBuf(b []*admitReq) {
	select {
	case s.batchFree <- b:
	default:
	}
}

// admitOne is the sequential admission path, used for requests deferred out
// of a batch. Scheduler goroutine only.
func (s *Server) admitOne(req *admitReq) {
	if req.key != "" {
		if prev, ok := s.idem[req.key]; ok {
			req.resp, req.seq, req.dup = prev.resp, prev.seq, true
			return
		}
	}
	if s.draining {
		req.admitErr = errDraining
		return
	}
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			req.walErr = err
			return
		}
	}
	now := s.simNow()
	id, err := s.eng.Admit(req.cf, now)
	s.finishAdmit(req, online.AdmitResult{ID: id, Err: err}, now)
}

// finishAdmit records one admission outcome: trace registration, the WAL
// append, and the idempotency cache entry. Scheduler goroutine only.
func (s *Server) finishAdmit(req *admitReq, res online.AdmitResult, now float64) {
	if res.Err != nil {
		req.admitErr = res.Err
		return
	}
	s.traceIDs[res.ID] = req.trace
	req.resp = AdmitResponse{ID: res.ID, Name: req.cf.Name, Arrival: now, Trace: req.trace}
	if s.wal != nil {
		ta := time.Now()
		req.seq, req.walErr = s.wal.Append(&durable.Record{Type: durable.RecAdmit, Admit: &durable.AdmitRecord{
			ID: res.ID, Now: now, Key: req.key, Trace: req.trace, Spec: req.cf,
		}})
		req.appendSecs = time.Since(ta).Seconds()
		s.metrics.stageAppend.Observe(req.appendSecs)
	}
	// Cache the dedupe entry only for admissions that reached the log: a
	// failed append 503s, and the retry must NOT replay a 201 for an
	// admission that was never durable. (Snapshot-restored entries carry
	// seq 0 and are safe — the snapshot itself covers them.)
	if req.key != "" && req.walErr == nil {
		s.idem[req.key] = idemEntry{resp: req.resp, seq: req.seq}
		s.idemByID[req.resp.ID] = req.key
	}
}

// recordStageSpans emits one successful admission's pipeline spans —
// coalesce-wait → engine-admit → wal-append → group-commit — under the same
// trace id as its shard-admit span, so /debug/traces joins the hot path with
// the gateway's admit/batch-flush/placement spans. The WAL spans are skipped
// when the daemon runs without a log. Called from the handler after done
// closes, never on the scheduler goroutine.
func (s *Server) recordStageSpans(req *admitReq) {
	stages := [...]struct {
		name string
		secs float64
	}{
		{stageCoalesceWait, req.waitSecs},
		{stageEngineAdmit, req.admitSecs},
		{stageWALAppend, req.appendSecs},
		{stageGroupCommit, req.commitSecs},
	}
	for _, st := range stages {
		if st.secs == 0 && (st.name == stageWALAppend || st.name == stageGroupCommit) {
			continue
		}
		s.tracer.Record(telemetry.Span{
			Name:     st.name,
			Trace:    req.trace,
			Coflow:   req.resp.ID,
			Duration: st.secs,
		})
	}
}
