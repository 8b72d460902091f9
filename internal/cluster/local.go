package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"

	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
)

// LocalConfig parameterizes an in-process cluster: N coflowd shards, each a
// full server.Server behind its own loopback httptest listener, fronted by
// one gateway. Everything runs in this process — tests, the benchmark module
// (bench/), coflowgate -local and coflowload -cluster use it to measure
// shard-count scaling without real networking.
type LocalConfig struct {
	// Shards is the number of backends (required > 0).
	Shards int
	// Policy, EpochLength, TimeScale and FatK configure every shard
	// identically (defaults: SEBF, 2, 1, k=4). Each shard owns an independent
	// fabric of this shape.
	Policy      online.Policy
	EpochLength float64
	TimeScale   float64
	FatK        int
	// Gateway configures the front door.
	Gateway Config
	// WALDir, when non-empty, makes the shards durable: each writes its WAL
	// under WALDir/shardN and reports itself durable, so a crash-killed shard
	// restarted with Restart re-syncs from its own log instead of being
	// re-admitted from gateway memory. The gateway keeps no state either way.
	WALDir string
	// Logger receives structured shard and gateway logs (each shard's
	// logger gains its shard field automatically). When nil, logs are
	// discarded.
	Logger *slog.Logger
}

func (c LocalConfig) withDefaults() (LocalConfig, error) {
	if c.Shards <= 0 {
		return c, fmt.Errorf("cluster: local cluster needs at least 1 shard, got %d", c.Shards)
	}
	if c.Policy == nil {
		c.Policy = online.SEBFOnline{}
	}
	if c.EpochLength <= 0 {
		c.EpochLength = 2
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.FatK <= 0 {
		c.FatK = 4
	}
	if c.Logger != nil && c.Gateway.Logger == nil {
		c.Gateway.Logger = c.Logger
	}
	return c, nil
}

// localShard is one in-process backend. stop drops its server while the
// listener stays up and answers 503; start boots a fresh one at the same URL,
// the restart-after-crash the gateway's health loop is built to absorb.
type localShard struct {
	name string
	scfg server.Config
	ts   *httptest.Server

	mu      sync.Mutex
	srv     *server.Server
	handler http.Handler // nil while down
}

// newLocalShard starts a daemon on scfg behind a loopback listener whose URL
// outlives the daemon.
func newLocalShard(name string, scfg server.Config) (*localShard, error) {
	sh := &localShard{name: name, scfg: scfg}
	if err := sh.start(); err != nil {
		return nil, err
	}
	sh.ts = httptest.NewServer(http.HandlerFunc(sh.serve))
	return sh, nil
}

// start boots a fresh daemon on the shard's config behind its listener. With
// a WALDir it recovers the previous daemon's state first.
func (sh *localShard) start() error {
	srv, err := server.New(sh.scfg)
	if err != nil {
		return fmt.Errorf("cluster: starting %s: %w", sh.name, err)
	}
	sh.mu.Lock()
	sh.srv, sh.handler = srv, srv.Handler()
	sh.mu.Unlock()
	return nil
}

// stop takes the daemon down and leaves the listener answering 503. crash
// stops it the way SIGKILL would (no drain, no final WAL fsync); otherwise
// it is closed.
func (sh *localShard) stop(crash bool) {
	sh.mu.Lock()
	old := sh.srv
	sh.srv, sh.handler = nil, nil
	sh.mu.Unlock()
	switch {
	case old == nil:
	case crash:
		old.Kill()
	default:
		old.Close()
	}
}

func (sh *localShard) serve(w http.ResponseWriter, r *http.Request) {
	sh.mu.Lock()
	h := sh.handler
	sh.mu.Unlock()
	if h == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"shard down"}` + "\n"))
		return
	}
	h.ServeHTTP(w, r)
}

// Local is an in-process cluster: gateway + N shards on loopback listeners.
// A monitor watches all of it with DiscoverURL set to URL(): the gateway
// lists every shard at /v1/backends.
type Local struct {
	// Gateway is the front door; URL() serves its HTTP API.
	Gateway *Gateway

	cfg    LocalConfig
	http   *httptest.Server
	shards []*localShard

	// gmu guards the handler indirection that lets RestartGateway swap in a
	// fresh gateway while the listener URL stays the same.
	gmu            sync.Mutex
	gatewayHandler http.Handler
}

// NewLocal builds and starts an in-process cluster of cfg.Shards coflowd
// backends behind one gateway. Callers must Close it.
func NewLocal(cfg LocalConfig) (*Local, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g, err := New(cfg.Gateway)
	if err != nil {
		return nil, err
	}
	l := &Local{cfg: cfg, Gateway: g}
	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("shard%d", i)
		scfg := server.Config{
			Network:     graph.FatTree(cfg.FatK, 1),
			Policy:      cfg.Policy,
			EpochLength: cfg.EpochLength,
			TimeScale:   cfg.TimeScale,
			Shard:       name,
			Logger:      cfg.Logger,
		}
		if cfg.WALDir != "" {
			scfg.WALDir = filepath.Join(cfg.WALDir, name)
		}
		sh, err := newLocalShard(name, scfg)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.shards = append(l.shards, sh)
		if err := l.Gateway.AddBackend(name, sh.ts.URL); err != nil {
			l.Close()
			return nil, err
		}
	}
	l.gatewayHandler = l.Gateway.Handler()
	l.http = httptest.NewServer(http.HandlerFunc(l.serveGateway))
	return l, nil
}

// serveGateway forwards to whichever gateway incarnation currently fronts
// the cluster.
func (l *Local) serveGateway(w http.ResponseWriter, r *http.Request) {
	l.gmu.Lock()
	h := l.gatewayHandler
	l.gmu.Unlock()
	h.ServeHTTP(w, r)
}

// URL is the gateway's base URL.
func (l *Local) URL() string { return l.http.URL }

// Client returns a fresh typed client against the gateway.
func (l *Local) Client() *server.Client { return server.NewClient(l.URL()) }

// NumShards returns the configured shard count.
func (l *Local) NumShards() int { return len(l.shards) }

// ShardURL is shard i's base URL — what the gateway's backend client dials,
// exposed so tests can hit a shard's own HTTP surface (metrics, traces)
// directly.
func (l *Local) ShardURL(i int) string { return l.shards[i].ts.URL }

// Kill simulates a crash of shard i: its scheduler stops, every coflow it
// owned is lost, and its listener answers 503 until Restart. The gateway's
// health loop will eject it and re-admit its in-flight coflows elsewhere.
func (l *Local) Kill(i int) { l.shards[i].stop(false) }

// CrashKill stops shard i the way SIGKILL would: the scheduler dies with no
// drain and no final WAL fsync, and the listener answers 503 until Restart.
// Without a WALDir this is equivalent to Kill.
func (l *Local) CrashKill(i int) { l.shards[i].stop(true) }

// Restart boots shard i again at the same URL against its original config —
// the crashed process coming back. With a WALDir the new daemon recovers the
// old one's coflows from its log before serving; without one it comes back
// empty. The gateway re-admits it to the placement rotation at its next
// successful probe.
func (l *Local) Restart(i int) error { return l.shards[i].start() }

// RestartGateway stops the gateway and boots an empty replacement over every
// shard listener, which rebuilds its routing table from the keys the shards
// hold. The cluster URL stays the same; callers should re-read l.Gateway
// afterwards.
func (l *Local) RestartGateway() error {
	l.Gateway.Close()
	g, err := New(l.cfg.Gateway)
	if err != nil {
		return fmt.Errorf("cluster: restarting gateway: %w", err)
	}
	for _, sh := range l.shards {
		if err := g.AddBackend(sh.name, sh.ts.URL); err != nil {
			g.Close()
			return fmt.Errorf("cluster: re-registering %s: %w", sh.name, err)
		}
	}
	l.gmu.Lock()
	l.Gateway = g
	l.gatewayHandler = g.Handler()
	l.gmu.Unlock()
	return nil
}

// Shard returns shard i's live server (nil while killed), for direct state
// inspection in tests and benchmarks.
func (l *Local) Shard(i int) *server.Server {
	sh := l.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.srv
}

// DrainAll drains every live shard in parallel (each runs its in-flight
// coflows to completion in simulated time, decoupled from the wall clock)
// and returns the merged statistics. The parallel drain is the wall-clock
// win sharding buys: each shard drains only its own fabric.
func (l *Local) DrainAll() (online.EngineStats, error) {
	type result struct {
		st  online.EngineStats
		err error
	}
	results := make([]result, len(l.shards))
	var wg sync.WaitGroup
	for i, sh := range l.shards {
		sh.mu.Lock()
		srv := sh.srv
		sh.mu.Unlock()
		if srv == nil {
			continue
		}
		wg.Add(1)
		go func(i int, srv *server.Server) {
			defer wg.Done()
			results[i].st, results[i].err = srv.Drain()
		}(i, srv)
	}
	wg.Wait()
	var parts []online.EngineStats
	for i, r := range results {
		if r.err != nil {
			return online.EngineStats{}, fmt.Errorf("cluster: draining shard%d: %w", i, r.err)
		}
		parts = append(parts, r.st)
	}
	return online.MergeEngineStats(parts...), nil
}

// Close tears the whole cluster down.
func (l *Local) Close() {
	if l.http != nil {
		l.http.Close()
	}
	if l.Gateway != nil {
		l.Gateway.Close()
	}
	for _, sh := range l.shards {
		if sh.ts != nil {
			sh.ts.Close()
		}
		sh.mu.Lock()
		srv := sh.srv
		sh.srv = nil
		sh.mu.Unlock()
		if srv != nil {
			srv.Close()
		}
	}
}
