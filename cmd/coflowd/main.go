// Command coflowd is the long-running coflow-scheduler daemon: it simulates
// a datacenter network in (scaled) real time, admits coflows over HTTP as
// they arrive, and re-prioritizes residual flows every epoch with the
// selected online policy (internal/server wraps internal/online).
//
//	coflowd -addr :8080 -policy sebf -epoch 2 -timescale 10
//
// Endpoints:
//
//	POST /v1/coflows       admit a coflow (JSON body: {"name","weight","flows":[{"source","dest","size"}]})
//	GET  /v1/coflows/{id}  status, CCT once done
//	GET  /v1/schedule      current residual priority order
//	GET  /v1/stats         weighted CCT/response, slowdown and solve-latency percentiles
//	GET  /v1/network       topology summary (host ids for load generators)
//	GET  /v1/epochs        recent scheduler epochs: tick/decide latency, order churn, active counts
//	GET  /v1/keys          the gw-<id> keys a cluster gateway admitted under, for its restart
//	GET  /healthz          liveness; "durable" is true with -wal-dir
//	GET  /metrics          Prometheus text metrics (shared telemetry registry)
//	GET  /debug/traces     coflow lifecycle trace spans (JSON ring, ?trace= filters)
//	GET  /debug/pprof/     runtime profiles
//
// Shutdown is graceful: on SIGINT/SIGTERM the listener drains, the engine
// runs every in-flight coflow to completion, and the final statistics are
// dumped to stderr. Drive it with cmd/coflowload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		policyName = flag.String("policy", "sebf", "epoch policy: sebf, fifo, lp")
		epochLen   = flag.Float64("epoch", 2.0, "epoch length in simulated time units")
		timeScale  = flag.Float64("timescale", 1.0, "simulated time units per wall-clock second")
		fatK       = flag.Int("fatk", 4, "fat-tree arity (k=4: 16 servers, k=8: the paper's 128)")
		shard      = flag.String("shard", "", "cluster shard identity: labels every /metrics series with {shard=\"...\"} so gateway-scraped backends stay distinguishable")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory; admissions are fsynced before acking and a restart recovers the engine from snapshot + log")
		snapEvery  = flag.Duration("snapshot-interval", 0, "engine snapshot period (0 = default 30s with -wal-dir, negative disables)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	policy, err := online.PolicyByName(*policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowd:", err)
		os.Exit(2)
	}
	if *fatK < 2 || *fatK%2 != 0 {
		fmt.Fprintf(os.Stderr, "coflowd: -fatk must be an even number >= 2, got %d\n", *fatK)
		os.Exit(2)
	}
	if *epochLen <= 0 {
		fmt.Fprintf(os.Stderr, "coflowd: -epoch must be positive, got %v\n", *epochLen)
		os.Exit(2)
	}
	if *timeScale <= 0 {
		fmt.Fprintf(os.Stderr, "coflowd: -timescale must be positive, got %v\n", *timeScale)
		os.Exit(2)
	}
	network := graph.FatTree(*fatK, 1)

	// Component and shard fields are attached by the server's own call sites
	// and Config defaults, so the base logger carries neither.
	logger := telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*logLevel), *logFormat, "", "")
	s, err := server.New(server.Config{
		Network:          network,
		Policy:           policy,
		EpochLength:      *epochLen,
		TimeScale:        *timeScale,
		Shard:            *shard,
		WALDir:           *walDir,
		SnapshotInterval: *snapEvery,
		Logger:           logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowd:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("coflowd: %s listening on %s (%d-host fat-tree)",
		s, *addr, graph.NumFatTreeHosts(*fatK))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("coflowd: signal received, draining")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "coflowd:", err)
			os.Exit(1)
		}
		return
	}

	// Graceful shutdown: stop accepting connections, finish in-flight
	// requests, then run the engine dry and report.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("coflowd: http shutdown: %v", err)
	}
	final, err := s.Drain()
	if err != nil {
		log.Printf("coflowd: drain: %v", err)
	}
	s.Close()
	server.LogFinalStats("coflowd", final)
}
