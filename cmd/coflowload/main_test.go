package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coflowsched/internal/cluster"
	"coflowsched/internal/graph"
	"coflowsched/internal/monitor"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", "x", "-trace", "y"}, &stdout, &stderr); err == nil {
		t.Errorf("-scenario with -trace accepted")
	}
	if err := run([]string{"-scenario", "no-such"}, &stdout, &stderr); err == nil {
		t.Errorf("unknown scenario accepted")
	}
	if err := run([]string{"-trace", "/does/not/exist.csv"}, &stdout, &stderr); err == nil {
		t.Errorf("missing trace file accepted")
	}
	if err := run([]string{"-not-a-flag"}, &stdout, &stderr); err == nil {
		t.Errorf("unknown flag accepted")
	}
}

func TestRunDeadTarget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-target", "http://127.0.0.1:1", "-quiet"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("dead target error = %v, want unreachable", err)
	}
}

// TestRunTraceReplay drives the full command against a live in-process
// daemon: parse a trace file, remap it onto the daemon's topology, replay on
// a compressed clock and wait for completion.
func TestRunTraceReplay(t *testing.T) {
	s, err := server.New(server.Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		TimeScale:   2000,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	path := filepath.Join(t.TempDir(), "t.csv")
	traceCSV := "coflow,arrival_ms,mappers,reducers\nj0,0,0;1,2:40;3:20\nj1,200,4,5:10\nj2,500,2;3,0:30\n"
	if err := os.WriteFile(path, []byte(traceCSV), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	err = run([]string{"-target", ts.URL, "-trace", path, "-speedup", "10", "-wait", "-quiet"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "failures=0") || !strings.Contains(out, "completed=3") {
		t.Errorf("unexpected replay report:\n%s", out)
	}
	if !strings.Contains(out, "daemon: admitted=3 completed=3") {
		t.Errorf("missing daemon stats line:\n%s", out)
	}
}

// TestRunJSONOutput: -json prints one machine-readable object with the load
// summary and (with -wait) the daemon's final statistics.
func TestRunJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-cluster", "1", "-cluster-timescale", "200",
		"-coflows", "5", "-rate", "500", "-wait", "-quiet", "-json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -json: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	var out struct {
		Target string `json:"target"`
		Load   struct {
			Requests    int     `json:"requests"`
			Failures    int     `json:"failures"`
			AchievedRPS float64 `json:"achieved_rps"`
			P95         float64 `json:"admit_latency_p95_seconds"`
			Completed   int     `json:"completed"`
		} `json:"load"`
		Daemon *struct {
			Admitted  int `json:"admitted"`
			Completed int `json:"completed"`
		} `json:"daemon"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%s", err, stdout.String())
	}
	if out.Target == "" || out.Load.Requests != 5 || out.Load.Failures != 0 || out.Load.Completed != 5 {
		t.Errorf("unexpected JSON load summary: %+v", out)
	}
	if out.Load.AchievedRPS <= 0 || out.Load.P95 <= 0 {
		t.Errorf("JSON summary lacks throughput/latency: %+v", out.Load)
	}
	if out.Daemon == nil || out.Daemon.Completed != 5 {
		t.Errorf("JSON summary lacks daemon stats: %+v", out.Daemon)
	}
}

// TestRunClusterMode spins the in-process cluster behind the new -cluster
// flag and replays a small workload through the gateway to completion.
func TestRunClusterMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-cluster", "2", "-cluster-timescale", "200",
		"-coflows", "12", "-rate", "500", "-wait", "-quiet",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -cluster: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "failures=0") || !strings.Contains(out, "completed=12") {
		t.Errorf("unexpected cluster replay report:\n%s", out)
	}
	if !strings.Contains(out, "daemon: admitted=12 completed=12") {
		t.Errorf("missing merged stats line:\n%s", out)
	}

	// The gateway places by hash only: -cluster-placement is not a flag.
	if err := run([]string{"-cluster", "2", "-cluster-placement", "hash"}, &stdout, &stderr); err == nil {
		t.Error("-cluster-placement accepted")
	}
}

// TestFetchSLOTimesOut: a monitor that accepts the connection and never
// answers costs fetchSLO one probeTimeout and an error, so runSoak's poll
// cannot hold the soak past its deadline.
func TestFetchSLOTimesOut(t *testing.T) {
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // released when the client gives up
	}))
	t.Cleanup(silent.Close)
	start := time.Now()
	rules, err := fetchSLO(silent.URL)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("fetchSLO from a silent monitor returned %d rules and no error", len(rules))
	}
	if elapsed > probeTimeout+time.Second {
		t.Errorf("fetchSLO returned after %s, want about probeTimeout (%s)", elapsed, probeTimeout)
	}
}

// TestSoakRules: -slo overrides map onto the stock rule set.
func TestSoakRules(t *testing.T) {
	rules, err := soakRules("p99_admit_ms=250, p99_tick_ms=80")
	if err != nil {
		t.Fatalf("soakRules: %v", err)
	}
	objectives := map[string]float64{}
	for _, r := range rules {
		objectives[r.Name] = r.Objective
	}
	if objectives["admit-p99"] != 0.25 || objectives["tick-p99"] != 0.08 {
		t.Errorf("overrides not applied: %+v", objectives)
	}
	for _, bad := range []string{"p99_admit_ms", "nope=5", "p99_admit_ms=-1", "p99_admit_ms=x"} {
		if _, err := soakRules(bad); err == nil {
			t.Errorf("soakRules(%q) accepted", bad)
		}
	}
	// -slo without -cluster is a flag error.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-slo", "p99_admit_ms=250"}, &stdout, &stderr); err == nil {
		t.Error("-slo without -cluster accepted")
	}
	// -soak without any monitor is a flag error.
	if err := run([]string{"-target", "http://127.0.0.1:1", "-soak", "1s"}, &stdout, &stderr); err == nil {
		t.Error("-soak without -monitor or -cluster accepted")
	}
}

// TestRunSoakHealthy is the green half of the SLO-enforcement acceptance
// test: a short soak of a healthy embedded cluster exits zero with every
// rule healthy in the JSON soak section.
func TestRunSoakHealthy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-cluster", "2", "-cluster-timescale", "200",
		"-soak", "1500ms", "-rate", "40", "-slo", "p99_admit_ms=5000",
		"-wait", "-quiet", "-json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("healthy soak failed: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	var out struct {
		Soak *struct {
			DurationSeconds float64  `json:"duration_seconds"`
			Violated        []string `json:"violated"`
			Rules           []struct {
				Rule struct {
					Name string `json:"name"`
				} `json:"rule"`
				State string `json:"state"`
			} `json:"rules"`
		} `json:"soak"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if out.Soak == nil || out.Soak.DurationSeconds < 1.4 {
		t.Fatalf("soak section missing or short: %+v", out.Soak)
	}
	if len(out.Soak.Violated) != 0 {
		t.Errorf("healthy soak reported violations: %+v", out.Soak.Violated)
	}
	names := map[string]bool{}
	for _, r := range out.Soak.Rules {
		names[r.Rule.Name] = true
	}
	for _, want := range []string{"admit-p99", "tick-p99", "shard-down", "scrape-failure"} {
		if !names[want] {
			t.Errorf("soak rules lack %s (have %v)", want, names)
		}
	}
}

// TestRunSoakViolated is the red half: a soak pointed (via -monitor) at a
// cluster whose shard has been killed exits with errSLOViolated, and the
// monitor's flight recorder has written a bundle for the fired rule.
func TestRunSoakViolated(t *testing.T) {
	bundleDir := t.TempDir()
	l, err := cluster.NewLocal(cluster.LocalConfig{
		Shards:    2,
		TimeScale: 200,
		Monitor: &monitor.Config{
			Interval:  100 * time.Millisecond,
			BundleDir: bundleDir,
		},
		Logger: telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	defer l.Close()

	// Kill a shard and wait for the monitor to notice: the shard's listener
	// answers 503, so its scrape fails (up=0) and, once the gateway's health
	// loop ejects it, coflowgate_backend_up goes 0 too.
	l.Kill(1)
	deadline := time.Now().Add(20 * time.Second)
	for {
		fired := false
		for _, r := range l.Monitor.RuleStatuses() {
			if r.Rule.Name == "scrape-failure" && r.State == monitor.StateFiring {
				fired = true
			}
		}
		if fired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape-failure never fired: %+v", l.Monitor.RuleStatuses())
		}
		time.Sleep(50 * time.Millisecond)
	}

	var stdout, stderr bytes.Buffer
	err = run([]string{
		"-target", l.URL(), "-monitor", l.MonitorURL(),
		"-soak", "500ms", "-rate", "20", "-quiet",
	}, &stdout, &stderr)
	if !errors.Is(err, errSLOViolated) {
		t.Fatalf("soak against broken cluster = %v, want errSLOViolated\nstdout: %s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "VIOLATED") {
		t.Errorf("text report lacks violation banner:\n%s", stdout.String())
	}

	// The firing transition produced a readable bundle. The write lands after
	// the firing state becomes visible (capture samples an on-alert CPU
	// profile first), so poll for the file.
	deadline = time.Now().Add(20 * time.Second)
	for len(l.Monitor.Bundles()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no bundles written")
		}
		time.Sleep(50 * time.Millisecond)
	}
	data, err := os.ReadFile(l.Monitor.Bundles()[0].Path)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	var b monitor.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if b.Rule.State != monitor.StateFiring || len(b.Series) == 0 || len(b.Targets) == 0 {
		t.Errorf("bundle incomplete: rule=%+v series=%d targets=%d", b.Rule, len(b.Series), len(b.Targets))
	}
}
