// Command coflowgate is the cluster front door: a gateway that shards
// admitted coflows across N coflowd backends (each an independent fabric)
// and serves coflowd's admission, status, stats and network API under
// gateway ids.
//
// Two topologies:
//
//	coflowgate -addr :8090 -backends http://s1:8080,http://s2:8080
//	coflowgate -addr :8090 -local 4 -policy sebf -timescale 10
//
// With -backends the gateway fronts already-running coflowd daemons (start
// them with distinct -shard labels so their /metrics stay distinguishable).
// Each daemon reports on /healthz and in its admission answers whether it
// runs with a -wal-dir; the gateway keeps a durable daemon's coflows bound to
// it while it is down, because the restarted daemon recovers them, and
// re-admits a stateless daemon's coflows on the survivors.
// With -local N it spins up N in-process shards on loopback listeners — the
// zero-setup way to run a whole cluster in one process, the same harness the
// tests and the admit-cluster benchmark workload use. -state-dir gives those
// shards WALs under one root.
//
// The gateway keeps no state of its own. It admits every coflow under the
// idempotency key gw-<gateway id>, and a restarted gateway rebuilds its
// routing table from the keys its shards hold (GET /v1/keys on each coflowd),
// continuing past the largest id any of them ever admitted. What a gateway
// crash loses is what a non-durable shard that crashes with it loses: that
// shard's in-flight coflows.
//
// The gateway answers for what it owns: gateway ids, placement, and the
// merges that need every shard. A shard's own schedule and epoch ring are
// read from the shard, at the URL /v1/backends lists for it.
//
//	POST /v1/coflows       place on one shard (batched; rendezvous hash of the gateway id)
//	GET  /v1/coflows/{id}  follows the coflow to its current shard
//	GET  /v1/stats         merged objectives, counters and percentile reservoirs
//	GET  /v1/network       shard topology (all shards are built alike)
//	GET  /v1/backends      shard roster with health state and URLs
//	GET  /healthz          gateway + shard health
//	GET  /metrics          coflowgate_* Prometheus text metrics, per-backend labelled
//	GET  /debug/traces     gateway-side lifecycle trace spans (join to shards by trace id)
//	GET  /debug/pprof/     runtime profiles
//
// Backends are health-checked; a failing shard is ejected with exponential
// re-probe backoff and its in-flight coflows are re-admitted on the
// survivors. On SIGINT/SIGTERM a -local gateway drains its shards and dumps
// the merged final statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coflowsched/internal/cluster"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coflowgate:", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and streams (smoke-testable without
// exec'ing a binary). It serves until ctx is cancelled.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", ":8090", "listen address")
		backends       = fs.String("backends", "", "comma-separated coflowd base URLs to front")
		local          = fs.Int("local", 0, "spin up this many in-process shards instead of -backends")
		healthInterval = fs.Duration("health-interval", time.Second, "backend probe period")
		policyName     = fs.String("policy", "sebf", "shard policy for -local: sebf, fifo, lp")
		epochLen       = fs.Float64("epoch", 2.0, "shard epoch length for -local")
		timeScale      = fs.Float64("timescale", 1.0, "shard simulated time units per wall second for -local")
		fatK           = fs.Int("fatk", 4, "shard fat-tree arity for -local")
		stateDir       = fs.String("state-dir", "", "with -local: the shards' WAL root (each shard recovers its own coflows)")
		logLevel       = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat      = fs.String("log-format", "text", "log output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*backends == "") == (*local == 0) {
		return errors.New("exactly one of -backends or -local is required")
	}
	if *stateDir != "" && *local == 0 {
		return errors.New("-state-dir needs -local: the gateway keeps no state, and a -backends coflowd keeps its own with -wal-dir")
	}
	logger := telemetry.NewLogger(stderr, telemetry.ParseLevel(*logLevel), *logFormat, "", "")
	gcfg := cluster.Config{HealthInterval: *healthInterval, Logger: logger}

	var (
		g            *cluster.Gateway
		localCluster *cluster.Local
		err          error
	)
	if *local > 0 {
		policy, err := online.PolicyByName(*policyName)
		if err != nil {
			return err
		}
		localCluster, err = cluster.NewLocal(cluster.LocalConfig{
			Shards:      *local,
			Policy:      policy,
			EpochLength: *epochLen,
			TimeScale:   *timeScale,
			FatK:        *fatK,
			Gateway:     gcfg,
			WALDir:      *stateDir,
			Logger:      logger,
		})
		if err != nil {
			return err
		}
		defer localCluster.Close()
		g = localCluster.Gateway
		log.Printf("coflowgate: %d in-process shards (policy %s, k=%d fat-tree each)", *local, *policyName, *fatK)
	} else {
		g, err = cluster.New(gcfg)
		if err != nil {
			return err
		}
		defer g.Close()
		for i, url := range strings.Split(*backends, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			if err := g.AddBackend(fmt.Sprintf("backend%d", i), url); err != nil {
				return err
			}
		}
		if len(g.Backends()) == 0 {
			return errors.New("-backends named no usable URLs")
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: g.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("coflowgate: listening on %s fronting %d backend(s)", *addr, len(g.Backends()))

	select {
	case <-ctx.Done():
		log.Printf("coflowgate: signal received, shutting down")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("coflowgate: http shutdown: %v", err)
	}
	if localCluster != nil {
		merged, err := localCluster.DrainAll()
		if err != nil {
			log.Printf("coflowgate: drain: %v", err)
		} else {
			server.LogFinalStats("coflowgate", merged)
		}
	}
	return nil
}
