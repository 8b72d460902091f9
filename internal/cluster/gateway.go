// Package cluster turns N independent coflowd daemons into one horizontally
// sharded scheduling service. Each backend owns a complete fabric of its own
// (the paper's schedulers are analyzed per-fabric, so a shard is the natural
// scaling unit); the gateway is the front door that places every admitted
// coflow on exactly one shard and answers only for what it owns: Admit routes
// to one shard through a batching queue, per-coflow status follows the coflow
// to whichever shard currently owns it under its gateway id, and Stats merges
// every shard's counters and percentile reservoirs. What a shard serves on its
// own (its schedule, its epoch ring) is read from the shard, at the URL
// /v1/backends lists for it.
//
// Fault model: backends are health-checked continuously. A backend that fails
// consecutive probes (or admissions) is ejected; its in-flight coflows are
// re-admitted on the surviving shards (restarting from zero — shards share no
// state), and the ejected backend is re-probed with exponentially backed-off
// intervals until it answers again, at which point it rejoins the placement
// rotation.
//
// State: the gateway keeps none of its own. Every placement carries the
// idempotency key gw-<gateway id> (server.GatewayKey), and the shard that
// admitted it holds that key, durably when it runs with a WAL. A gateway that
// boots empty learns each backend's keys at first contact (learn) and
// rebuilds its routing table from them; ids below the largest a shard ever
// admitted are never handed out again.
//
// Concurrency model: one mutex guards the routing table (gateway id ->
// backend + backend-local id) and backend health state. All network I/O —
// admissions, probes, the stats scatter-gather — happens outside the lock
// against snapshots, so a slow shard never wedges the gateway.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// Config parameterizes the gateway. The rest is fixed (placement by hash,
// the constants below) or reported by the shards (their durability, and the
// coflows they hold).
type Config struct {
	// HealthInterval is the probe period for healthy backends and the first
	// re-probe backoff for ejected ones (default 1s). The backoff doubles on
	// every further failure up to backoffIntervals × HealthInterval.
	HealthInterval time.Duration
	// Logger receives structured operational logs (ejections, recoveries,
	// re-admissions) with a component=coflowgate field attached. When nil,
	// logs are discarded.
	Logger *slog.Logger
}

// The gateway's failure handling. A healthy backend is ejected after
// failThreshold consecutive probe or admission failures; an ejected one is
// re-probed after a backoff that doubles up to backoffIntervals health
// intervals. Backend requests time out after clientTimeout and are retried
// on a transient failure with server.Client's default budget, which is safe
// for admissions because every placement carries an idempotency key.
// batchSize and batchInterval are the admit queue's flush rule (batcher).
const (
	failThreshold    = 2
	backoffIntervals = 30
	clientTimeout    = 5 * time.Second
	batchSize        = 16
	batchInterval    = 5 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
	return c
}

// errClosed is returned for operations after Close.
var errClosed = errors.New("cluster: gateway closed")

// errNoBackend rejects admissions when no healthy shard remains.
var errNoBackend = errors.New("cluster: no healthy backend available")

// errNoFlows rejects structurally empty coflows at the gateway, before any
// shard is bothered.
var errNoFlows = errors.New("cluster: coflow has no flows")

// errGone answers for an id below the next one that no learned shard holds:
// the gateway handed it out once, and its coflow is gone.
var errGone = errors.New("cluster: coflow id no longer known")

// Backend is one coflowd shard as the gateway sees it. All mutable fields
// are guarded by the gateway mutex; the client is immutable and used outside
// the lock.
type Backend struct {
	name   string
	url    string
	client *server.Client
	// probe is a non-retrying client for health checks: a failed probe is
	// itself the signal the health loop collects, and client-level retries
	// would multiply a hung backend's detection latency by the retry budget.
	probe *server.Client

	healthy   bool
	failures  int           // consecutive probe/admit failures while healthy
	backoff   time.Duration // current re-probe backoff while unhealthy
	nextProbe time.Time     // earliest next probe while unhealthy
	ejections int

	// durable is what the backend last said about itself, on /healthz, in an
	// admission's answer or in its key listing: it runs with a WAL and
	// recovers its own coflows after a crash. learned is set once its key
	// listing is in the routing table (learn); only then does it take
	// placements.
	durable, learned bool

	// local maps this backend's ids of the coflows placed here and not yet
	// observed complete back to gateway ids.
	local map[int]int
}

// BackendStatus is the exported snapshot of one backend (GET /v1/backends).
type BackendStatus struct {
	Name        string `json:"name"`
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	Outstanding int    `json:"outstanding"`
	Ejections   int    `json:"ejections"`
}

// routed tracks one gateway-admitted coflow through its life: queued ->
// placed on a shard -> (possibly re-admitted elsewhere after a failure) ->
// observed complete. The spec is retained until completion so a dead shard's
// in-flight coflows can be replayed on a survivor; one learned from a shard's
// key listing has only its name unless the shard sent its spec.
type routed struct {
	spec     coflow.Coflow
	backend  *Backend // nil while queued or orphaned by an ejection
	localID  int
	arrival  float64 // shard-local admission clock, echoed to the client
	trace    string  // lifecycle trace id, propagated to the owning shard
	admitted bool
	failed   bool // admission failed terminally (validation, or initial 503)
	// orphaned marks an acknowledged coflow detached by an ejection and not
	// yet re-placed; if no backend is healthy at failover time it stays set,
	// and the next backend recovery re-places it (applyProbe).
	orphaned bool
	done     bool
	final    server.CoflowResponse // cached once done
}

type admitItem struct {
	gid      int
	enqueued time.Time
	done     chan error
}

// Gateway is the cluster front door.
type Gateway struct {
	cfg     Config
	start   time.Time
	metrics *gateMetrics
	tracer  *telemetry.Tracer
	logger  *slog.Logger

	mu       sync.Mutex
	backends []*Backend
	// coflows is the routing table by gateway id. An id below next that it
	// does not hold is gone (errGone).
	coflows   map[int]*routed
	next      int
	completed int // coflows observed done through the gateway
	readmits  int // re-admissions performed after ejections

	// boot learns every backend before the first id is assigned or looked up.
	boot      sync.Once
	queue     chan admitItem
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	sweeping atomic.Bool
}

// New builds and starts a gateway: the admit batcher and the health prober
// begin immediately. Callers must Close it. Backends are added with
// AddBackend. Neither does network I/O: the gateway learns what its backends
// hold at first contact. The error is always nil.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		start:   time.Now(),
		metrics: newGateMetrics(),
		tracer:  telemetry.NewTracer("coflowgate", "", telemetry.RingCapacity),
		logger:  cfg.Logger.With("component", "coflowgate"),
		coflows: make(map[int]*routed),
		queue:   make(chan admitItem),
		quit:    make(chan struct{}),
	}
	g.wg.Add(2)
	go g.batcher()
	go g.healthLoop()
	return g, nil
}

// Tracer exposes the gateway's lifecycle-span ring (tests join it against the
// shards').
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

// Close stops the gateway's goroutines. In-flight admissions fail with a
// closed error. Safe to call more than once.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.quit) })
	g.wg.Wait()
}

// AddBackend registers a shard under a unique name, optimistically healthy;
// the prober corrects that within one interval if it is not. It enters the
// placement rotation once learned: before the gateway's first id, or at its
// first successful probe.
func (g *Gateway) AddBackend(name, url string) error {
	if name == "" {
		return errors.New("cluster: backend needs a name")
	}
	b := &Backend{
		name: name,
		url:  url,
		client: server.NewClient(url, server.WithTimeout(clientTimeout),
			server.WithInstrumentation(g.metrics.clientRetries, g.logger)),
		probe:   server.NewClient(url, server.WithTimeout(clientTimeout), server.WithRetries(0, 0)),
		healthy: true,
		local:   make(map[int]int),
	}
	g.mu.Lock()
	for _, have := range g.backends {
		if have.name == name {
			g.mu.Unlock()
			return fmt.Errorf("cluster: backend %q already registered", name)
		}
	}
	g.backends = append(g.backends, b)
	g.mu.Unlock()
	return nil
}

// learnAll learns every backend that answers, once, before the gateway
// assigns or looks up its first id. One that does not answer is learned at
// its first successful probe.
func (g *Gateway) learnAll() {
	g.mu.Lock()
	backends := append([]*Backend(nil), g.backends...)
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, b := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.learn(b)
		}()
	}
	wg.Wait()
}

// learn folds b's key listing (GET /v1/keys) into the routing table, once per
// backend. Each gw-<gid> key binds gid to b, unless the gateway has since
// given gid to another coflow (which only happens to a shard that was down
// while the gateway booted), and the next id moves past the largest one b
// ever admitted. A listing b cannot serve leaves it unlearned, out of the
// rotation, for its next probe to retry.
func (g *Gateway) learn(b *Backend) {
	ks, err := b.probe.Keys()
	if err != nil {
		g.logger.Debug("backend key listing failed", "backend", b.name, "err", err)
		return
	}
	g.mu.Lock()
	if b.learned {
		g.mu.Unlock()
		return
	}
	b.learned, b.durable = true, ks.Durable
	for _, k := range ks.Keys {
		gid, ok := server.GatewayKeyID(k.Key)
		if !ok {
			g.logger.Warn("shard lists a key that is not a gateway key; skipped",
				"backend", b.name, "key", k.Key, "local_id", k.Admit.ID)
			continue
		}
		if _, taken := g.coflows[gid]; taken {
			g.logger.Warn("shard holds a key whose gateway id went to another coflow; left unbound",
				"backend", b.name, "key", k.Key, "local_id", k.Admit.ID)
			continue
		}
		rc := &routed{spec: coflow.Coflow{Name: k.Admit.Name}, backend: b, localID: k.Admit.ID,
			arrival: k.Admit.Arrival, trace: k.Admit.Trace, admitted: true}
		if k.Spec != nil {
			rc.spec = *k.Spec
		}
		g.coflows[gid] = rc
		b.local[k.Admit.ID] = gid
		g.next = max(g.next, gid+1)
	}
	g.next = max(g.next, ks.High+1)
	stranded := g.orphansLocked() // new capacity for coflows nothing could take
	g.mu.Unlock()
	g.logger.Info("learned backend", "backend", b.name, "keys", len(ks.Keys), "high", ks.High, "durable", ks.Durable)
	if len(stranded) > 0 {
		go g.readmitOrphans(stranded)
	}
}

// Backends snapshots the roster.
func (g *Gateway) Backends() []BackendStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]BackendStatus, len(g.backends))
	for i, b := range g.backends {
		out[i] = BackendStatus{
			Name: b.name, URL: b.url, Healthy: b.healthy,
			Outstanding: len(b.local), Ejections: b.ejections,
		}
	}
	return out
}

// healthyLocked returns the healthy, learned backends not in skip. Caller
// holds mu.
func (g *Gateway) healthyLocked(skip map[*Backend]bool) []*Backend {
	var out []*Backend
	for _, b := range g.backends {
		if b.healthy && b.learned && !skip[b] {
			out = append(out, b)
		}
	}
	return out
}

// Admit assigns a gateway id, queues the coflow for batched placement, and
// waits for the shard admission to finish. Flow Release fields are offsets
// from admission, exactly as coflowd defines them; the returned arrival is on
// the owning shard's clock.
func (g *Gateway) Admit(cf coflow.Coflow) (server.AdmitResponse, error) {
	return g.AdmitTraced(cf, "")
}

// AdmitTraced is Admit under a caller-supplied lifecycle trace id (empty
// mints a fresh one). The id is propagated to the owning shard with every
// placement attempt, so the gateway's admit/batch-flush/placement spans and
// the shard's shard-admit/completion spans join at /debug/traces.
func (g *Gateway) AdmitTraced(cf coflow.Coflow, trace string) (server.AdmitResponse, error) {
	if len(cf.Flows) == 0 {
		return server.AdmitResponse{}, errNoFlows
	}
	if trace == "" {
		trace = telemetry.NewTraceID()
	}
	t0 := time.Now()
	g.boot.Do(g.learnAll)
	g.mu.Lock()
	gid := g.next
	g.next++
	rc := &routed{spec: cf, trace: trace}
	g.coflows[gid] = rc
	g.mu.Unlock()

	item := admitItem{gid: gid, enqueued: t0, done: make(chan error, 1)}
	select {
	case g.queue <- item:
	case <-g.quit:
		return server.AdmitResponse{}, errClosed
	}
	select {
	case err := <-item.done:
		if err != nil {
			return server.AdmitResponse{}, err
		}
	case <-g.quit:
		return server.AdmitResponse{}, errClosed
	}
	g.mu.Lock()
	resp := server.AdmitResponse{ID: gid, Name: cf.Name, Arrival: rc.arrival, Trace: trace}
	g.mu.Unlock()
	dur := time.Since(t0)
	g.metrics.admitSeconds.Observe(dur.Seconds())
	g.tracer.Record(telemetry.Span{
		Name: "admit", Trace: trace, Coflow: gid, Duration: dur.Seconds(),
		Attrs: map[string]string{"flows": strconv.Itoa(len(cf.Flows))},
	})
	g.logger.Debug("coflow admitted", "coflow", gid, "name", cf.Name,
		"flows", len(cf.Flows), "trace", trace, "latency", dur)
	return resp, nil
}

// batcher drains the admit queue in batches: a batch flushes when it reaches
// batchSize or when batchInterval elapses after its first entry, whichever
// comes first. Each flush admits its items to the shards concurrently and
// asynchronously — the batcher goes straight back to accepting, so one slow
// shard admission delays its own caller but never stalls the queue.
func (g *Gateway) batcher() {
	defer g.wg.Done()
	var batch []admitItem
	timer := time.NewTimer(batchInterval)
	if !timer.Stop() {
		<-timer.C
	}
	flush := func() {
		items := batch
		batch = nil
		size := strconv.Itoa(len(items))
		for _, it := range items {
			// The batch-flush span is each item's queue wait: how long batching
			// held the admission before placement began.
			g.mu.Lock()
			trace := g.coflows[it.gid].trace
			g.mu.Unlock()
			g.tracer.Record(telemetry.Span{
				Name: "batch-flush", Trace: trace, Coflow: it.gid,
				Duration: time.Since(it.enqueued).Seconds(),
				Attrs:    map[string]string{"batch_size": size},
			})
			go func(it admitItem) {
				it.done <- g.place(it.gid, true)
			}(it)
		}
	}
	for {
		select {
		case it := <-g.queue:
			if len(batch) == 0 {
				timer.Reset(batchInterval)
			}
			batch = append(batch, it)
			if len(batch) >= batchSize {
				flush()
			}
		case <-timer.C:
			flush()
		case <-g.quit:
			for _, it := range batch {
				it.done <- errClosed
			}
			return
		}
	}
}

// place routes one gateway coflow onto a shard and admits it, falling back
// to the next placement candidate when a backend fails (availability errors
// only — a validation rejection is terminal, the coflow is malformed
// everywhere). initial distinguishes first placement (a failure is returned
// to the waiting HTTP caller and is terminal for this gateway id) from
// post-ejection re-admission of a coflow the gateway already acknowledged
// with 201 — there a transient "no healthy backend" leaves the coflow
// pending, to be re-placed when a backend recovers (see applyProbe).
func (g *Gateway) place(gid int, initial bool) error {
	tried := make(map[*Backend]bool)
	for {
		g.mu.Lock()
		rc := g.coflows[gid]
		if rc.done || rc.admitted {
			g.mu.Unlock()
			return nil // re-placed concurrently (e.g. failover raced a retry)
		}
		cands := g.healthyLocked(tried)
		if len(cands) == 0 {
			if initial {
				rc.failed = true // the caller sees the 503; the id is dead
			}
			g.mu.Unlock()
			return errNoBackend
		}
		b := hashPlace(gid, cands)
		spec, trace := rc.spec, rc.trace
		g.mu.Unlock()

		t0 := time.Now()
		// The idempotency key is the gateway id, which no gateway reuses: a
		// retried or replayed placement on a shard that already admitted this
		// coflow gets the original admission back instead of a duplicate, and
		// a restarted gateway finds the coflow under it (learn).
		resp, err := b.client.AdmitWithKey(spec, trace, server.GatewayKey(gid))
		span := telemetry.Span{
			Name: "placement", Trace: trace, Coflow: gid,
			Duration: time.Since(t0).Seconds(),
			Attrs:    map[string]string{"backend": b.name},
		}
		if err != nil {
			span.Attrs["error"] = err.Error()
		}
		g.tracer.Record(span)
		if err != nil {
			var apiErr *server.APIError
			if errors.As(err, &apiErr) && terminalStatus(apiErr.StatusCode) {
				g.mu.Lock()
				rc.failed = true
				g.mu.Unlock()
				return err // the shard rejected the coflow itself; do not spread it
			}
			tried[b] = true
			g.noteBackendFailure(b, err)
			continue
		}
		g.mu.Lock()
		b.durable = resp.Durable // before anything is bound to b
		if rc.admitted || rc.done {
			// Someone else placed this coflow while our admission was in
			// flight (a recovery re-placement racing the batcher). Keep the
			// earlier booking; our copy on b is an orphan.
			g.mu.Unlock()
			return nil
		}
		if !b.healthy {
			// The backend was ejected while our admission was in flight; its
			// orphans were already detached and this coflow was not among
			// them. Recording it here would strand it on a dead shard, so
			// treat the admission as failed and place elsewhere. (The shard
			// may hold an orphan copy — the same at-least-once trade a
			// lost-response retry makes.)
			g.mu.Unlock()
			tried[b] = true
			continue
		}
		rc.backend = b
		rc.localID = resp.ID
		rc.arrival = resp.Arrival
		rc.admitted = true
		rc.orphaned = false
		b.local[resp.ID] = gid
		g.mu.Unlock()
		return nil
	}
}

// terminalStatus reports whether a shard response code means the request
// itself is bad and re-routing to another shard cannot help: the 4xx band,
// minus the transient codes the client retries (server.TransientStatus).
func terminalStatus(code int) bool {
	return code >= 400 && code < 500 && !server.TransientStatus(code)
}

// noteBackendFailure records an availability failure (a failed admission or
// probe) against a healthy backend and ejects it once the threshold is
// crossed, re-admitting its in-flight coflows elsewhere.
func (g *Gateway) noteBackendFailure(b *Backend, cause error) {
	g.mu.Lock()
	if !b.healthy {
		g.mu.Unlock()
		return
	}
	b.failures++
	if b.failures < failThreshold {
		g.mu.Unlock()
		return
	}
	orphans := g.ejectLocked(b)
	g.mu.Unlock()
	g.logger.Warn("backend ejected", "backend", b.name, "cause", cause, "orphans", len(orphans))
	go g.readmitOrphans(orphans)
}

// ejectLocked marks a backend unhealthy, arms its re-probe backoff and
// detaches its in-flight coflows, returning their gateway ids for
// re-admission. Caller holds mu and must call readmitOrphans after unlocking.
func (g *Gateway) ejectLocked(b *Backend) []int {
	if !b.healthy {
		return nil
	}
	b.healthy = false
	b.failures = 0
	b.backoff = g.cfg.HealthInterval
	b.nextProbe = time.Now().Add(b.backoff)
	b.ejections++
	if b.durable {
		// A durable backend recovers its own coflows on restart, so the
		// placement bindings stay put; detaching them here would re-admit
		// coflows the shard is about to resurrect.
		return nil
	}
	var orphans []int
	for _, gid := range b.local {
		rc := g.coflows[gid]
		if rc.done || rc.backend != b {
			continue
		}
		rc.backend = nil
		if len(rc.spec.Flows) == 0 {
			// Learned without a spec (the shard listed it complete): nothing to
			// re-admit, and the one shard that knew it is gone.
			delete(g.coflows, gid)
			continue
		}
		rc.admitted = false
		rc.orphaned = true
		orphans = append(orphans, gid)
	}
	b.local = make(map[int]int)
	sort.Ints(orphans)
	return orphans
}

// readmitOrphans replays detached coflows onto the surviving shards. A
// coflow restarts from zero on its new shard — shards share no state, the
// same trade a real stateless-scheduler failover makes. A coflow that
// cannot be placed right now (no healthy backend) stays orphaned and is
// retried when a backend recovers.
func (g *Gateway) readmitOrphans(orphans []int) {
	for _, gid := range orphans {
		if err := g.place(gid, false); err != nil {
			g.logger.Warn("re-admission failed, will retry on recovery", "coflow", gid, "err", err)
			continue
		}
		g.mu.Lock()
		g.readmits++
		trace := g.coflows[gid].trace
		g.mu.Unlock()
		g.logger.Info("coflow re-admitted after ejection", "coflow", gid, "trace", trace)
	}
}

// orphansLocked returns acknowledged coflows currently on no shard. Caller
// holds mu.
func (g *Gateway) orphansLocked() []int {
	var out []int
	for gid, rc := range g.coflows {
		if rc.orphaned && !rc.admitted && !rc.done && !rc.failed {
			out = append(out, gid)
		}
	}
	sort.Ints(out)
	return out
}

// healthLoop probes backends every HealthInterval: healthy ones on every
// tick, ejected ones once their backoff expires (doubling up to
// backoffIntervals health intervals on each further failure). A recovered
// backend rejoins the rotation with a clean slate.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.quit:
			return
		case <-t.C:
			g.probeAll()
			// The sweep does per-coflow HTTP and can be slow against a
			// wedged shard; it must never hold up the next probe tick, so
			// it runs detached with at most one sweep in flight.
			if g.sweeping.CompareAndSwap(false, true) {
				go func() {
					defer g.sweeping.Store(false)
					g.sweepCompletions()
				}()
			}
		}
	}
}

// sweepBatch bounds how many of a backend's outstanding coflows the
// completion sweep polls per health tick.
const sweepBatch = 32

// sweepCompletions polls a bounded, rotating subset of each healthy
// backend's outstanding coflows. Status folds observed completions into the
// gateway bookkeeping — completed counters, the backends' local tables, and
// the retained failover specs — so state converges even when no client
// ever polls /v1/coflows/{id} (a fire-and-forget producer). Map iteration
// order varies per tick, so every outstanding coflow is eventually visited.
func (g *Gateway) sweepCompletions() {
	g.mu.Lock()
	var gids []int
	for _, b := range g.backends {
		// Skip backends that are down or whose probes are currently failing:
		// sweeping them would burn a client timeout per coflow for nothing.
		if !b.healthy || b.failures > 0 {
			continue
		}
		n := 0
		for _, gid := range b.local {
			if n >= sweepBatch {
				break
			}
			gids = append(gids, gid)
			n++
		}
	}
	g.mu.Unlock()
	for _, gid := range gids {
		select {
		case <-g.quit:
			return
		default:
		}
		_, _, _ = g.Status(gid)
	}
}

func (g *Gateway) probeAll() {
	g.mu.Lock()
	now := time.Now()
	var due []*Backend
	for _, b := range g.backends {
		if b.healthy || !now.Before(b.nextProbe) {
			due = append(due, b)
		}
	}
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, b := range due {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			h, err := b.probe.Health()
			g.applyProbe(b, h.Durable, err)
		}(b)
	}
	wg.Wait()
}

// applyProbe folds one probe result into the backend's health state. A
// backend not yet learned is learned at its first successful probe.
func (g *Gateway) applyProbe(b *Backend, durable bool, probeErr error) {
	if probeErr == nil {
		g.mu.Lock()
		wasDown, learned := !b.healthy, b.learned
		b.healthy = true
		b.failures = 0
		b.backoff = 0
		b.durable = durable
		var stranded []int
		if wasDown && learned {
			// Recovery is the retry trigger for coflows orphaned while no
			// backend was healthy (learn does the same for a new backend).
			stranded = g.orphansLocked()
		}
		g.mu.Unlock()
		if wasDown {
			g.logger.Info("backend healthy again, re-admitted to rotation", "backend", b.name)
		}
		if !learned {
			g.learn(b)
		}
		if len(stranded) > 0 {
			// Detached: re-admission is retrying HTTP and must not hold up
			// the probe round (probeAll waits on its probes).
			go g.readmitOrphans(stranded)
		}
		return
	}
	g.mu.Lock()
	if b.healthy {
		g.mu.Unlock()
		g.noteBackendFailure(b, probeErr)
		return
	}
	// Still down: back off exponentially before the next probe.
	b.backoff = min(2*b.backoff, backoffIntervals*g.cfg.HealthInterval)
	b.nextProbe = time.Now().Add(b.backoff)
	g.mu.Unlock()
}

// Status reports one gateway coflow. found=false means the id is unknown (or
// its admission terminally failed), and errGone with it that the id was
// handed out once but no learned shard holds its coflow; a non-nil error with
// found=true means the owning shard could not be reached right now (callers
// should retry).
func (g *Gateway) Status(gid int) (server.CoflowResponse, bool, error) {
	g.boot.Do(g.learnAll)
	g.mu.Lock()
	rc, ok := g.coflows[gid]
	if !ok {
		gone := gid >= 0 && gid < g.next
		g.mu.Unlock()
		if gone {
			return server.CoflowResponse{}, false, errGone
		}
		return server.CoflowResponse{}, false, nil
	}
	switch {
	case rc.done:
		resp := rc.final
		g.mu.Unlock()
		return resp, true, nil
	case rc.failed:
		g.mu.Unlock()
		return server.CoflowResponse{}, false, nil
	case !rc.admitted:
		resp := pendingResponse(gid, rc.spec)
		g.mu.Unlock()
		return resp, true, nil
	}
	b, lid := rc.backend, rc.localID
	g.mu.Unlock()

	st, err := b.client.Coflow(lid)
	if err != nil {
		return server.CoflowResponse{}, true, err
	}
	st.ID = gid
	g.mu.Lock()
	defer g.mu.Unlock()
	if rc.backend != b || rc.localID != lid {
		// Re-admitted elsewhere while we were asking: report it in flight.
		return pendingResponse(gid, rc.spec), true, nil
	}
	if st.Done && !rc.done {
		rc.done = true
		rc.final = st
		g.completed++
		delete(b.local, lid)
		// The spec's flows are no longer needed for failover; let them go.
		rc.spec = coflow.Coflow{Name: rc.spec.Name, Weight: rc.spec.Weight}
	}
	return st, true, nil
}

// pendingResponse describes a coflow the gateway owns but no shard currently
// runs (queued, or between ejection and re-admission).
func pendingResponse(gid int, spec coflow.Coflow) server.CoflowResponse {
	total := 0.0
	for _, f := range spec.Flows {
		total += f.Size
	}
	return server.CoflowResponse{
		ID:             gid,
		Name:           spec.Name,
		Weight:         spec.Weight,
		NumFlows:       len(spec.Flows),
		TotalBytes:     total,
		RemainingBytes: total,
	}
}

// ShardStat is one backend's contribution to a scatter-gather.
type ShardStat struct {
	Name    string                `json:"name"`
	Healthy bool                  `json:"healthy"`
	Err     string                `json:"error,omitempty"`
	Stats   *server.StatsResponse `json:"stats,omitempty"`
}

// MergedStats scatter-gathers /v1/stats (with raw reservoirs) from every
// healthy backend and merges objectives, counters and percentile reservoirs
// into one EngineStats via online.MergeEngineStats. Unreachable shards are
// reported in the per-shard slice and excluded from the merge.
func (g *Gateway) MergedStats() (online.EngineStats, []ShardStat) {
	g.mu.Lock()
	backends := append([]*Backend(nil), g.backends...)
	g.mu.Unlock()

	shardStats := make([]ShardStat, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		g.mu.Lock()
		healthy := b.healthy
		g.mu.Unlock()
		shardStats[i] = ShardStat{Name: b.name, Healthy: healthy}
		if !healthy {
			shardStats[i].Err = "ejected"
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			st, err := b.client.StatsSamples()
			if err != nil {
				shardStats[i].Err = err.Error()
				return
			}
			shardStats[i].Stats = &st
		}(i, b)
	}
	wg.Wait()

	var parts []online.EngineStats
	for _, s := range shardStats {
		if s.Stats == nil {
			continue
		}
		parts = append(parts, s.Stats.EngineStats)
	}
	return online.MergeEngineStats(parts...), shardStats
}

// Network returns the topology of the first healthy backend. The gateway
// assumes every shard runs the same fabric shape (cmd/coflowgate and
// NewLocal construct them that way); load generators only need host ids that
// are valid on whichever shard a coflow lands on.
func (g *Gateway) Network() (server.NetworkResponse, error) {
	g.boot.Do(g.learnAll)
	g.mu.Lock()
	backends := g.healthyLocked(nil)
	g.mu.Unlock()
	var lastErr error = errNoBackend
	for _, b := range backends {
		net, err := b.client.Network()
		if err == nil {
			return net, nil
		}
		lastErr = err
	}
	return server.NetworkResponse{}, lastErr
}

// Counters snapshots the gateway-level accounting (not shard state).
type Counters struct {
	Coflows   int `json:"coflows"`   // gateway ids assigned
	Completed int `json:"completed"` // observed complete through the gateway
	Readmits  int `json:"readmits"`  // post-ejection re-admissions
	Backends  int `json:"backends"`
	Healthy   int `json:"healthy_backends"`
}

// CountersSnapshot reads the gateway counters.
func (g *Gateway) CountersSnapshot() Counters {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := Counters{
		Coflows:   g.next,
		Completed: g.completed,
		Readmits:  g.readmits,
		Backends:  len(g.backends),
	}
	for _, b := range g.backends {
		if b.healthy {
			c.Healthy++
		}
	}
	return c
}
