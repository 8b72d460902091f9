// Package server wraps the incremental online scheduler (online.Engine) in a
// long-running HTTP service, coflowd: coflows are admitted as they arrive
// over POST /v1/coflows, a wall-clock-driven epoch loop re-prioritizes
// residual flows with the configured policy, and JSON endpoints expose
// per-coflow status, the current priority order and aggregate statistics.
//
// Concurrency model: a single scheduler goroutine owns the engine. HTTP
// handlers never touch engine state directly — they submit closures over a
// command channel and wait for the result, so every engine access is
// serialized without locks. An admission is one such closure; its handler
// then waits for durability in the log's group commit, off the scheduler
// goroutine (admit.go). Policy decisions are the one deliberate
// exception: each epoch tick captures an immutable residual Snapshot and
// runs Decide on a separate goroutine, keeping the scheduler (and therefore
// every handler) responsive while an expensive LP solve is in flight. The
// resulting order returns through the command channel into the engine's
// staleness rule (online.Engine.Settle), the one online.Run applies too: a
// synchronous policy's order is applied on return; an AsyncPolicy's is held
// and applied at the first tick after it returns, and also on return on a
// cold start. A decide that returns after Drain began is dropped.
//
// Time: the scheduler loop takes time from a clock: the simulated now that
// admissions and ticks read, the epoch ticks and the snapshot ticks. New runs
// it on the wall clock (wallClock): simulated time advances with the wall
// clock, scaled by Config.TimeScale simulated time units per wall second, from
// where recovery left the engine clock, and epoch boundaries are wall-clock
// ticks of EpochLength/TimeScale seconds. The package's tests step a clock by
// hand instead, so they drive this same loop one tick at a time.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"coflowsched/internal/durable"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// Config parameterizes the daemon.
type Config struct {
	// Network is the simulated topology coflows are scheduled on. Required.
	Network *graph.Graph
	// Policy re-prioritizes residual flows each epoch. Required; must not be
	// a hindsight (Preparer) policy.
	Policy online.Policy
	// EpochLength is the simulated time between policy re-decisions
	// (default 1).
	EpochLength float64
	// TimeScale is the number of simulated time units that elapse per
	// wall-clock second (default 1). Raising it makes the simulated network
	// run faster than real time, which load tests use to drain quickly.
	TimeScale float64
	// Shard, when non-empty, is this daemon's identity in a multi-backend
	// cluster: every /metrics line gains a {shard="..."} label so metrics
	// scraped from several backends by one gateway stay distinguishable.
	Shard string
	// Logger receives structured operational logs (solver failures, drain
	// progress, admissions at debug level) with component/shard fields
	// attached. When nil, logs are discarded.
	Logger *slog.Logger
	// WALDir, when non-empty, turns on durability: state-changing engine
	// operations are written to a write-ahead log under this directory,
	// admissions are fsynced before they are acknowledged, and a restarted
	// daemon replays the log (from the newest snapshot) to restore every
	// admitted-but-incomplete coflow before serving. See durable.go.
	WALDir string
	// SnapshotInterval is the wall-clock period between engine snapshots,
	// which bound replay time and let the log prefix be truncated. Only
	// meaningful with WALDir set; defaults to 30s there, negative disables
	// snapshotting.
	SnapshotInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Network == nil {
		return c, errors.New("server: config needs a network")
	}
	if c.Policy == nil {
		return c, errors.New("server: config needs a policy")
	}
	// Zero means "use the default"; explicit negatives are caller bugs.
	if c.EpochLength < 0 {
		return c, fmt.Errorf("server: epoch length must be positive, got %v", c.EpochLength)
	}
	if c.TimeScale < 0 {
		return c, fmt.Errorf("server: time scale must be positive, got %v", c.TimeScale)
	}
	if c.EpochLength == 0 {
		c.EpochLength = 1
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.WALDir != "" && c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
	if c.Shard != "" {
		c.Logger = c.Logger.With("shard", c.Shard)
	}
	return c, nil
}

// errStopped is returned by handler operations after Close.
var errStopped = errors.New("server: scheduler stopped")

// errDraining rejects admissions once shutdown has begun.
var errDraining = errors.New("server: draining, not accepting new coflows")

// Server is the coflowd service: an engine, the scheduler goroutine that
// owns it, and the HTTP API in handlers.go.
type Server struct {
	cfg       Config
	eng       *online.Engine
	cmds      chan func()
	quit      chan struct{}
	stopped   chan struct{}
	closeOnce sync.Once
	clock     clock
	metrics   *serverMetrics
	tracer    *telemetry.Tracer
	logger    *slog.Logger

	// Durability (nil without Config.WALDir). The scheduler appends; handlers
	// wait in its Commit.
	wal *durable.Journal

	// Owned by the scheduler goroutine.
	solving  bool
	draining bool
	// idem deduplicates admissions by X-Coflow-Id. It is bounded: idemByID
	// maps live coflow ids back to their keys, and when a coflow completes its
	// entry moves onto idemTombs (expiry-ordered) and is dropped once the
	// grace window passes — see retireIdem.
	idem      map[string]idemEntry
	idemByID  map[int]string
	idemTombs []idemTomb
	// high is the largest gateway id admitted under a GatewayKey, -1 for none.
	high int
	// traceIDs maps admitted coflow ids to their lifecycle trace ids so the
	// completion span can be emitted when the coflow finishes.
	traceIDs map[int]string
	// epochRing retains the most recent scheduler ticks for /v1/epochs.
	// decided says an order was applied since the previous record (on a
	// decide's return, or at this tick): the next record carries its latency,
	// whether it was a fallback, and the engine's churn.
	epochRing       []EpochRecord
	epochNext       int
	decided         bool
	decideLatency   time.Duration
	decidedFallback bool
}

// New builds and starts a server: the scheduler goroutine begins ticking
// immediately. Callers must Close it (or Drain then Close).
func New(cfg Config) (*Server, error) { return newServer(cfg, wallClock) }

// newServer builds a server and runs its scheduler loop on the clock newClock
// returns. The clock is built after recovery, from the engine clock replay
// left (base), so the time recovery took does not move simulated time.
func newServer(cfg Config, newClock func(cfg Config, base float64) clock) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		cmds:     make(chan func()),
		quit:     make(chan struct{}),
		stopped:  make(chan struct{}),
		metrics:  newServerMetrics(cfg.Shard),
		tracer:   telemetry.NewTracer("coflowd", cfg.Shard, telemetry.RingCapacity),
		logger:   cfg.Logger,
		traceIDs: make(map[int]string),
		idem:     make(map[string]idemEntry),
		idemByID: make(map[int]string),
		high:     -1,
	}
	if cfg.WALDir == "" {
		s.eng, err = online.NewEngine(cfg.Network, cfg.Policy, online.Config{EpochLength: cfg.EpochLength})
		if err != nil {
			return nil, err
		}
	} else {
		rec, err := recoverState(cfg)
		if err != nil {
			return nil, err
		}
		s.eng = rec.eng
		s.wal = rec.journal
		s.idem = rec.idem
		s.idemByID = rec.idemByID
		s.traceIDs = rec.traceIDs
		s.high = rec.high
		// Recovered keys whose coflows already finished start their grace
		// window at boot so they still dedupe a straggling retry, then go.
		expires := time.Now().Add(idemGrace)
		for _, key := range rec.staleIdem {
			s.idemTombs = append(s.idemTombs, idemTomb{key: key, expires: expires})
		}
		s.metrics.walRecovered.Set(float64(rec.active))
		if rec.replayed > 0 || rec.active > 0 {
			s.logger.Info("state recovered", "component", "coflowd",
				"replayed", rec.replayed, "active_coflows", rec.active,
				"sim_now", rec.eng.Now())
		}
	}
	s.clock = newClock(cfg, s.eng.Now())
	go s.loop()
	return s, nil
}

// clock is where the scheduler loop takes time from: now is the simulated
// time admissions and ticks read, epochs and snapshots deliver the loop's
// ticks (a nil channel never fires), and stop releases them when the loop
// exits.
type clock struct {
	now               func() float64
	epochs, snapshots <-chan time.Time
	stop              func()
}

// minWallEpoch floors the tick period so extreme TimeScale values cannot
// turn the scheduler loop into a busy spin.
const minWallEpoch = time.Millisecond

// wallClock is the daemon's clock: simulated time is base plus the wall
// seconds since the clock was built times TimeScale, an epoch ticks every
// EpochLength/TimeScale wall seconds, and a daemon with a log snapshots every
// SnapshotInterval.
func wallClock(cfg Config, base float64) clock {
	period := time.Duration(cfg.EpochLength / cfg.TimeScale * float64(time.Second))
	if period < minWallEpoch {
		period = minWallEpoch
	}
	start, epoch := time.Now(), time.NewTicker(period)
	c := clock{
		now:    func() float64 { return base + time.Since(start).Seconds()*cfg.TimeScale },
		epochs: epoch.C,
		stop:   epoch.Stop,
	}
	if cfg.WALDir != "" && cfg.SnapshotInterval > 0 {
		snap := time.NewTicker(cfg.SnapshotInterval)
		c.snapshots = snap.C
		c.stop = func() { epoch.Stop(); snap.Stop() }
	}
	return c
}

// loop is the scheduler goroutine: it serializes handler operations and
// drives the epoch clock.
func (s *Server) loop() {
	defer close(s.stopped)
	defer s.clock.stop()
	for {
		select {
		case <-s.quit:
			return
		case op := <-s.cmds:
			op()
		case <-s.clock.epochs:
			s.tick()
		case <-s.clock.snapshots:
			s.maybeSnapshot()
		}
	}
}

// tick advances the engine to the current simulated time, applies the order
// the engine holds for this boundary, records the epoch into the
// introspection ring, closes out lifecycle traces for coflows that completed,
// and — if no solve is in flight — kicks off the next policy decision.
func (s *Server) tick() {
	t0 := time.Now()
	err := s.eng.AdvanceTo(s.clock.now())
	tickDur := time.Since(t0)
	s.metrics.tickDuration.Observe(tickDur.Seconds())
	if err != nil {
		s.logger.Error("advance failed", "component", "coflowd", "err", err)
		return
	}
	ts := s.eng.TakeTickStats()
	done := s.eng.TakeCompleted()
	for _, id := range done {
		span := telemetry.Span{Name: "completion", Trace: s.traceIDs[id], Coflow: id}
		if st, ok := s.eng.CoflowStatus(id); ok {
			span.Attrs = map[string]string{
				"cct":      strconv.FormatFloat(st.Response, 'g', -1, 64),
				"slowdown": strconv.FormatFloat(st.Slowdown, 'g', -1, 64),
			}
			span.Duration = st.Response / s.cfg.TimeScale // lifecycle span in wall seconds
		}
		s.tracer.Record(span)
		delete(s.traceIDs, id)
		s.logger.Debug("coflow completed", "component", "coflowd", "coflow", id, "trace", span.Trace)
	}
	s.retireIdem(done)
	activeCoflows, activeFlows := s.eng.ActiveCounts()
	// Log the advance only while there is state worth recovering: an idle
	// daemon's log must not grow with its uptime. No forced sync — tick
	// records ride along with the next admission's group commit.
	if s.wal != nil && (activeCoflows > 0 || len(done) > 0) {
		_, _ = s.wal.Append(&durable.Record{Type: durable.RecAdvance,
			Advance: &durable.AdvanceRecord{Now: s.eng.Now()}})
	}
	s.applied(s.eng.ApplyHeld())
	rec := EpochRecord{
		Epoch:          s.eng.Epoch(),
		SimNow:         s.eng.Now(),
		Wall:           t0,
		TickSeconds:    tickDur.Seconds(),
		ActiveCoflows:  activeCoflows,
		ActiveFlows:    activeFlows,
		Completed:      len(done),
		Reallocs:       ts.Reallocs,
		DirtySuffixSum: ts.SuffixSum,
		DirtySuffixMax: ts.SuffixMax,
	}
	if s.decided {
		rec.Decided, rec.DecideSeconds, rec.OrderChurn = true, s.decideLatency.Seconds(), s.eng.OrderChurn()
		rec.Fallback = s.decidedFallback
		rec.Preempted = int(rec.OrderChurn * float64(activeFlows))
		s.decided = false
	}
	s.pushEpoch(rec)
	if s.solving || s.draining {
		return
	}
	snap := s.eng.Snapshot()
	if len(snap.Coflows) == 0 {
		return
	}
	s.solving = true
	go func() {
		d, err := online.Decide(s.cfg.Policy, snap)
		s.do(context.Background(), func() {
			s.solving = false
			if s.draining {
				return // Drain decided the rest of the run itself
			}
			ok := false
			if err == nil {
				ok, err = s.eng.Settle(d)
			}
			s.applied(d, ok, err)
		})
	}()
}

// applied takes the outcome of a decision: an order the engine installed (ok)
// is logged and staged for the next epoch record, an error is logged.
func (s *Server) applied(d online.Decision, ok bool, err error) {
	if err != nil {
		s.logger.Error("policy decision failed", "component", "coflowd",
			"policy", s.cfg.Policy.Name(), "epoch", d.Epoch, "err", err)
	}
	if !ok || err != nil {
		return
	}
	if s.wal != nil {
		_, _ = s.wal.Append(&durable.Record{Type: durable.RecOrder, Order: &durable.OrderRecord{
			Now:         s.eng.Now(),
			LatencySecs: d.Latency.Seconds(),
			Refs:        d.Order,
			Fallbacks:   s.eng.Fallbacks(),
		}})
	}
	s.decided, s.decideLatency, s.decidedFallback = true, d.Latency, d.Fallback
	s.tracer.Record(telemetry.Span{
		Name:     "epoch-decision",
		Coflow:   -1,
		Duration: d.Latency.Seconds(),
		Attrs: map[string]string{
			"policy": s.cfg.Policy.Name(),
			"epoch":  strconv.Itoa(d.Epoch),
			"churn":  strconv.FormatFloat(s.eng.OrderChurn(), 'g', -1, 64),
		},
	})
}

// do runs op on the scheduler goroutine and waits for it to finish. It
// returns errStopped if the server shut down before the operation ran, and
// ctx's error if ctx ended before the scheduler took it. Once taken, op
// always runs to completion and do waits for it whatever ctx does.
func (s *Server) do(ctx context.Context, op func()) error {
	done := make(chan struct{})
	select {
	case s.cmds <- func() { op(); close(done) }:
	case <-s.stopped:
		return errStopped
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-s.stopped:
		// Shutdown raced the operation. If both channels were ready the
		// select above picks arbitrarily, so check done once more: an op
		// that DID run must not be reported as dropped (a 503 on an
		// admission that actually happened would make clients double-admit
		// on retry).
		select {
		case <-done:
			return nil
		default:
			return errStopped
		}
	}
}

// Drain stops admitting new coflows and runs the engine to completion:
// every in-flight coflow finishes (simulated time advances as far as
// needed, decoupled from the wall clock). It returns the final statistics.
// The HTTP listener should be shut down first so no admissions race the
// drain; late admissions are rejected with 503 regardless.
func (s *Server) Drain() (online.EngineStats, error) {
	var st online.EngineStats
	var derr error
	err := s.do(context.TODO(), func() {
		s.draining = true
		s.logger.Info("drain started", "component", "coflowd", "active", s.eng.NumCoflows())
		derr = s.eng.Drain()
		// Close out lifecycle traces for coflows that finished inside the
		// drain (the tick loop never sees them).
		drained := s.eng.TakeCompleted()
		for _, id := range drained {
			s.tracer.Record(telemetry.Span{Name: "completion", Trace: s.traceIDs[id], Coflow: id,
				Attrs: map[string]string{"drained": "true"}})
			delete(s.traceIDs, id)
		}
		s.retireIdem(drained)
		st = s.eng.Stats()
		s.logger.Info("drain finished", "component", "coflowd",
			"completed", st.Completed, "sim_now", st.Now, "err", derr)
	})
	if err != nil {
		return st, err
	}
	return st, derr
}

// Close stops the scheduler goroutine and fsync-closes the WAL. Safe to call
// more than once; after Close every handler responds 503.
func (s *Server) Close() {
	s.shutdown(false)
}

// Stats fetches the engine's aggregate counters through the scheduler
// goroutine.
func (s *Server) Stats() (online.EngineStats, error) {
	var st online.EngineStats
	err := s.do(context.TODO(), func() { st = s.eng.Stats() })
	return st, err
}

// String identifies the server configuration in logs.
func (s *Server) String() string {
	return fmt.Sprintf("coflowd(policy=%s epoch=%v timescale=%v)",
		s.cfg.Policy.Name(), s.cfg.EpochLength, s.cfg.TimeScale)
}
