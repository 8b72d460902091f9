// Command coflowmon is the cluster's monitoring daemon: it scrapes coflowd
// and coflowgate /metrics pages into bounded in-memory time-series,
// evaluates multi-window burn-rate SLO rules over them, and on a rule's
// transition to firing writes a flight-recorder post-mortem bundle joining
// recent time-series, lifecycle traces, scheduler epoch records, and an
// on-alert 1 s CPU profile plus heap snapshot from every live target.
//
//	coflowmon -addr :8099 -discover http://localhost:8090 -bundle-dir ./bundles
//	coflowmon -addr :8099 -targets shard0=http://s0:8080,shard1=http://s1:8080
//
// With -discover the gateway is scraped as instance "gateway" and its
// /v1/backends roster is re-read every interval, so shards joining or
// leaving the rotation are picked up automatically; a plain coflowd there
// has no roster and is scraped alone as instance "coflowd". -targets names
// endpoints statically (name=url pairs, or bare URLs which are named
// target0, target1, ...); both can be combined.
//
// Endpoints:
//
//	GET /v1/targets  per-target scrape status, last error and duration
//	GET /v1/query    range queries: ?metric=&view=raw|last|rate|quantile&q=&since=&l.<label>=<v>
//	GET /v1/slo      SLO rule states, burn rates and written bundle index
//	GET /healthz     liveness
//
// Per-stage admit latency is a quantile query on one child, e.g.
// /v1/query?metric=coflowd_admit_stage_seconds&view=quantile&l.stage=group-commit.
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

	"coflowsched/internal/monitor"
	"coflowsched/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coflowmon:", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and streams (smoke-testable without
// exec'ing a binary). It serves until ctx is cancelled.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8099", "listen address")
		targets   = fs.String("targets", "", "comma-separated scrape targets: name=url pairs or bare URLs")
		discover  = fs.String("discover", "", "coflowgate base URL; scrape it and its /v1/backends roster")
		interval  = fs.Duration("interval", time.Second, "scrape and rule-evaluation period")
		bundleDir = fs.String("bundle-dir", "", "write flight-recorder bundles here on firing transitions (empty disables)")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parsed, err := parseTargets(*targets)
	if err != nil {
		return err
	}
	if len(parsed) == 0 && *discover == "" {
		return errors.New("at least one of -targets or -discover is required")
	}
	logger := telemetry.NewLogger(stderr, telemetry.ParseLevel(*logLevel), *logFormat, "coflowmon", "")
	m, err := monitor.New(monitor.Config{
		Targets:     parsed,
		DiscoverURL: *discover,
		Interval:    *interval,
		BundleDir:   *bundleDir,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	defer m.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: m.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("coflowmon: listening on %s, %d static target(s), discover=%q, interval %s",
		*addr, len(parsed), *discover, *interval)

	select {
	case <-ctx.Done():
		log.Printf("coflowmon: signal received, shutting down")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("coflowmon: http shutdown: %v", err)
	}
	return nil
}

// parseTargets decodes the -targets flag: name=url pairs, or bare URLs which
// are auto-named target0, target1, ...
func parseTargets(s string) ([]monitor.Target, error) {
	var out []monitor.Target
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			if name == "" || url == "" {
				return nil, fmt.Errorf("bad target %q (want name=url)", part)
			}
			out = append(out, monitor.Target{Name: name, URL: url})
			continue
		}
		out = append(out, monitor.Target{Name: fmt.Sprintf("target%d", i), URL: part})
	}
	return out, nil
}
