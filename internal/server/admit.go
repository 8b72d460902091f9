package server

import (
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/telemetry"
)

// Admission. Each admission is one scheduler command (s.do): admit runs the
// idempotency check, the draining and log-health gates, the engine admission
// and the log append on the scheduler goroutine, so log order is admission
// order. Back on its own goroutine the handler waits in the log's Commit for
// the record — a duplicate's original — to be durable (commit). Concurrent
// handlers share one fsync there: the log's group commit is the only batching
// on the path, and the scheduler never waits on a disk.

// admitReq is one admission. admit fills the result fields on the scheduler
// goroutine; the handler reads them after s.do returns.
type admitReq struct {
	cf    coflow.Coflow
	key   string
	trace string
	enq   time.Time // handler submit instant, start of coalesce-wait

	resp     AdmitResponse
	seq      uint64
	dup      bool
	admitErr error
	walErr   error

	// Per-stage pipeline latencies (seconds), turned into /debug/traces spans
	// by the handler.
	waitSecs   float64
	admitSecs  float64
	appendSecs float64
	commitSecs float64
}

// admit processes one admission. Scheduler goroutine only.
func (s *Server) admit(req *admitReq) {
	req.waitSecs = time.Since(req.enq).Seconds()
	s.metrics.stageWait.Observe(req.waitSecs)
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
	// A fail-stopped log rejects the admission before the engine mutates:
	// retries against a daemon that cannot persist must not pile never-durable
	// coflows into memory.
	if s.wal != nil {
		if err := s.wal.Err(); err != nil {
			req.walErr = err
			return
		}
	}
	now := s.clock.now()
	ta := time.Now()
	id, err := s.eng.Admit(req.cf, now)
	req.admitSecs = time.Since(ta).Seconds()
	s.metrics.stageEngine.Observe(req.admitSecs)
	if err != nil {
		req.admitErr = err
		return
	}
	s.traceIDs[id] = req.trace
	req.resp = AdmitResponse{ID: id, Name: req.cf.Name, Arrival: now, Trace: req.trace}
	if s.wal != nil {
		ta = time.Now()
		req.seq, req.walErr = s.wal.Append(&durable.Record{Type: durable.RecAdmit, Admit: &durable.AdmitRecord{
			ID: id, Now: now, Key: req.key, Trace: req.trace, Spec: req.cf,
		}})
		req.appendSecs = time.Since(ta).Seconds()
		s.metrics.stageAppend.Observe(req.appendSecs)
	}
	// Cache the dedupe entry only for admissions that reached the log: a
	// failed append 503s, and the retry must NOT replay a 201 for an admission
	// that was never durable. (Snapshot-restored entries carry seq 0 and are
	// safe — the snapshot itself covers them.)
	if req.key != "" && req.walErr == nil {
		e := idemEntry{resp: req.resp, seq: req.seq}
		if gid, ok := GatewayKeyID(req.key); ok {
			s.high = max(s.high, gid)
			if s.wal == nil {
				spec := req.cf
				e.spec = &spec
			}
		}
		s.idem[req.key] = e
		s.idemByID[id] = req.key
	}
}

// commit waits until the admission's log record is durable; seq 0 (no log, a
// rejected or failed admission, a snapshot-restored duplicate) has nothing to
// wait for. A commit failure fails the admission, duplicates included: their
// original append's persistence can no longer be promised. Handler goroutine,
// after admit.
func (s *Server) commit(req *admitReq) {
	if req.seq == 0 {
		return
	}
	tc := time.Now()
	req.walErr = s.wal.Commit(req.seq)
	req.commitSecs = time.Since(tc).Seconds()
	s.metrics.stageCommit.Observe(req.commitSecs)
}

// recordStageSpans emits one successful admission's pipeline spans —
// coalesce-wait → engine-admit → wal-append → group-commit — under the same
// trace id as its shard-admit span, so /debug/traces joins the hot path with
// the gateway's admit/batch-flush/placement spans. The WAL spans are skipped
// when the daemon runs without a log. Called from the handler, never on the
// scheduler goroutine.
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
