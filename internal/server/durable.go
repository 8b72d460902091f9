package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/online"
)

// Durability. With Config.WALDir set, the daemon logs every state-changing
// engine operation — admissions, applied orders, clock advances — to a
// write-ahead log before acknowledging it, snapshots the engine periodically,
// and on boot rebuilds the engine by restoring the newest snapshot and
// re-running the log's suffix through the same engine entry points the live
// daemon uses. Because the engine is deterministic (admission routing depends
// only on the monotonically accumulated load, simulation on the applied
// orders), replay reconstructs the pre-crash engine exactly: admitted coflows
// keep their ids, arrivals, routes and priorities, and in-flight transfers
// resume where the last durable record left them.
//
// Durability boundary: an admission is fsynced (group-committed) before the
// 201 goes out, so an acknowledged coflow survives any crash. Tick-path
// advance/order records are appended without a forced sync — they ride along
// with the next admission's commit or segment rotation — so a crash can roll
// the clock back to the last durable record; replayed ticks then re-derive the
// lost progress deterministically.

// IdemHeader carries an admission's idempotency key. A client that retries a
// POST /v1/coflows with the same key gets the original response back instead
// of a second coflow; keys are WAL-logged and snapshotted, so the dedupe
// window survives a daemon restart. The window is bounded, not eternal: an
// entry lives while its coflow is in flight and for idemGrace afterwards,
// which keeps the map (and every snapshot serializing it) from growing with
// the daemon's lifetime admission count.
const IdemHeader = "X-Coflow-Id"

// idemGrace is how long a completed coflow's idempotency entry stays
// deduplicable. It only needs to outlive a client's retry loop (seconds);
// minutes gives slack for a gateway re-placing work across a shard restart.
const idemGrace = 2 * time.Minute

// gatewayKeyPrefix marks the keys a cluster gateway admits under: gw-<gateway
// id>. The daemon keeps high, the largest gateway id it ever admitted, past
// its key's eviction, and lists both at GET /v1/keys: that is what a restarted
// gateway rebuilds its routing table from, and why it never reuses an id.
const gatewayKeyPrefix = "gw-"

// GatewayKey is the idempotency key a gateway admits its coflow gid under.
func GatewayKey(gid int) string { return gatewayKeyPrefix + strconv.Itoa(gid) }

// GatewayKeyID parses a GatewayKey back into its gateway id.
func GatewayKeyID(key string) (int, bool) {
	rest, ok := strings.CutPrefix(key, gatewayKeyPrefix)
	if !ok {
		return 0, false
	}
	gid, err := strconv.Atoi(rest)
	return gid, err == nil && gid >= 0 && strconv.Itoa(gid) == rest
}

// idemTomb schedules one completed coflow's dedupe entry for eviction.
type idemTomb struct {
	key     string
	expires time.Time
}

// retireIdem moves the idempotency entries of just-completed coflows onto the
// tomb queue and evicts entries whose grace window has passed. The queue is
// expiry-ordered by construction (appends use a monotonically later clock),
// so the sweep stops at the first live tomb. Scheduler goroutine only.
func (s *Server) retireIdem(done []int) {
	now := time.Now()
	for _, id := range done {
		if key, ok := s.idemByID[id]; ok {
			delete(s.idemByID, id)
			if e := s.idem[key]; e.spec != nil {
				e.spec = nil // a finished coflow is never re-admitted
				s.idem[key] = e
			}
			s.idemTombs = append(s.idemTombs, idemTomb{key: key, expires: now.Add(idemGrace)})
		}
	}
	evicted := 0
	for evicted < len(s.idemTombs) && now.After(s.idemTombs[evicted].expires) {
		delete(s.idem, s.idemTombs[evicted].key)
		evicted++
	}
	if evicted > 0 {
		s.idemTombs = append(s.idemTombs[:0], s.idemTombs[evicted:]...)
	}
}

// idemEntry is one admission dedupe entry. seq is the WAL sequence of the
// admit record, so a duplicate request arriving while the original fsync is
// still in flight waits for the same durability point before acking. spec is
// the coflow as admitted, kept only by a daemon without a WAL for a gateway
// key while its coflow is in flight: a gateway re-admits it from there when
// this daemon dies.
type idemEntry struct {
	resp AdmitResponse
	seq  uint64
	spec *coflow.Coflow
}

// serverPersist is the snapshot body: the engine state plus the server-side
// state that must survive a restart (idempotency keys, lifecycle trace ids,
// the largest gateway id admitted).
type serverPersist struct {
	Engine *online.EngineState      `json:"engine"`
	Idem   map[string]AdmitResponse `json:"idem,omitempty"`
	Traces map[int]string           `json:"traces,omitempty"`
	High   int                      `json:"high"`
}

// recovery is everything recoverState rebuilds from disk.
type recovery struct {
	eng *online.Engine
	// journal is the recovered log and its snapshot directory.
	journal  *durable.Journal
	idem     map[string]idemEntry
	traceIDs map[int]string
	// idemByID indexes recovered dedupe entries whose coflows are still in
	// flight; staleIdem lists keys whose coflows already finished — they get a
	// fresh grace window at boot, then evict.
	idemByID  map[int]string
	staleIdem []string
	high      int
	// active counts admitted-but-incomplete coflows restored, the value of
	// the coflowd_wal_recovered_coflows gauge.
	active   int
	replayed uint64
}

// testRecoverDelay, when non-nil, runs inside recoverState before the
// snapshot is read. Tests use it to make recovery take wall time.
var testRecoverDelay func()

// recoverState rebuilds the engine from cfg.WALDir through durable.Recover:
// the newest usable snapshot under WALDir/snapshots restores the engine and
// the server-side maps, apply replays the log suffix the snapshot does not
// cover.
func recoverState(cfg Config) (*recovery, error) {
	if testRecoverDelay != nil {
		testRecoverDelay()
	}
	rec := &recovery{
		idem:     make(map[string]idemEntry),
		traceIDs: make(map[int]string),
		high:     -1,
	}
	persist := serverPersist{High: -1} // a snapshot without the field admitted no gateway key
	restore := func(ok bool) (err error) {
		engCfg := online.Config{EpochLength: cfg.EpochLength}
		if !ok {
			rec.eng, err = online.NewEngine(cfg.Network, cfg.Policy, engCfg)
			return err
		}
		rec.eng, err = online.RestoreEngine(cfg.Network, cfg.Policy, engCfg, persist.Engine)
		if err != nil {
			return err
		}
		for key, resp := range persist.Idem {
			rec.idem[key] = idemEntry{resp: resp}
		}
		for id, trace := range persist.Traces {
			rec.traceIDs[id] = trace
		}
		rec.high = persist.High
		return nil
	}
	var err error
	rec.journal, err = durable.Recover(cfg.WALDir,
		cfg.Logger.With("component", "coflowd"), &persist, restore, rec.apply)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// Coflows that completed inside the replay have no one to report to;
	// drain the log so the first live tick starts clean.
	for _, id := range rec.eng.TakeCompleted() {
		delete(rec.traceIDs, id)
	}
	rec.active, _ = rec.eng.ActiveCounts()

	// Partition recovered dedupe entries: live coflows keep an index for
	// completion-time retirement, finished ones are marked stale so New can
	// tomb them instead of letting them ride in the map forever.
	rec.idemByID = make(map[int]string)
	for key, e := range rec.idem {
		if st, ok := rec.eng.CoflowStatus(e.resp.ID); ok && !st.Done {
			rec.idemByID[e.resp.ID] = key
		} else {
			rec.staleIdem = append(rec.staleIdem, key)
		}
	}
	return rec, nil
}

// apply replays one WAL record into the recovering engine, using exactly the
// entry points the live scheduler uses. Any record the engine refuses marks
// the log corrupt: the log claims a history the engine cannot have produced.
func (rec *recovery) apply(r *durable.Record) error {
	switch r.Type {
	case durable.RecAdmit:
		a := r.Admit
		id, err := rec.eng.Admit(a.Spec, a.Now)
		if err != nil {
			return fmt.Errorf("%w: admit record seq %d does not replay: %v", durable.ErrCorrupt, r.Seq, err)
		}
		if id != a.ID {
			return fmt.Errorf("%w: admit record seq %d replayed as coflow %d, log says %d", durable.ErrCorrupt, r.Seq, id, a.ID)
		}
		if a.Key != "" {
			rec.idem[a.Key] = idemEntry{resp: AdmitResponse{ID: id, Name: a.Spec.Name, Arrival: a.Now, Trace: a.Trace}}
			if gid, ok := GatewayKeyID(a.Key); ok {
				rec.high = max(rec.high, gid)
			}
		}
		if a.Trace != "" {
			rec.traceIDs[id] = a.Trace
		}
	case durable.RecOrder:
		o := r.Order
		if err := rec.eng.AdvanceTo(o.Now); err != nil {
			return fmt.Errorf("%w: order record seq %d: advance to %v: %v", durable.ErrCorrupt, r.Seq, o.Now, err)
		}
		latency := time.Duration(o.LatencySecs * float64(time.Second))
		if err := rec.eng.ApplyOrder(o.Refs, latency); err != nil {
			return fmt.Errorf("%w: order record seq %d does not replay: %v", durable.ErrCorrupt, r.Seq, err)
		}
		rec.eng.ReplayFallbacks(o.Fallbacks)
	case durable.RecAdvance:
		if err := rec.eng.AdvanceTo(r.Advance.Now); err != nil {
			return fmt.Errorf("%w: advance record seq %d: advance to %v: %v", durable.ErrCorrupt, r.Seq, r.Advance.Now, err)
		}
	case durable.RecComplete:
		// Written by older daemons only; the replayed advances re-derive
		// every completion.
	default:
		return fmt.Errorf("%w: record seq %d has type %q, which does not belong in a coflowd log", durable.ErrCorrupt, r.Seq, r.Type)
	}
	rec.replayed++
	return nil
}

// maybeSnapshot captures the engine state on the scheduler goroutine — the
// journal reads the log position next to it, with no engine op in between —
// and hands it to the journal to write out. Scheduler goroutine only.
func (s *Server) maybeSnapshot() {
	s.wal.Snapshot(func() any {
		persist := serverPersist{Engine: s.eng.ExportState(), High: s.high}
		if len(s.idem) > 0 {
			persist.Idem = make(map[string]AdmitResponse, len(s.idem))
			for key, e := range s.idem {
				persist.Idem[key] = e.resp
			}
		}
		if len(s.traceIDs) > 0 {
			persist.Traces = make(map[int]string, len(s.traceIDs))
			for id, trace := range s.traceIDs {
				persist.Traces[id] = trace
			}
		}
		return persist
	}, s.metrics.snapshots.Inc)
}

// shutdown stops the scheduler and closes the log. abandon skips the final
// fsync — the crash-shaped variant the recovery harness uses. Closing the log
// releases every handler waiting in its Commit: after a Close the record is
// durable (201); after an abandon it is not, and the handler answers 503.
func (s *Server) shutdown(abandon bool) {
	s.closeOnce.Do(func() { close(s.quit) })
	<-s.stopped
	if s.wal != nil {
		s.wal.Shutdown(abandon)
	}
}

// Kill stops the server the way a crash would: no drain, no final fsync.
// Everything not yet group-committed is abandoned to the page cache. Tests
// use it to exercise the recovery path; production shutdown is Close.
func (s *Server) Kill() { s.shutdown(true) }
