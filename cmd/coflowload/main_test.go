package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"coflowsched/internal/cluster"
	"coflowsched/internal/graph"
	"coflowsched/internal/monitor"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
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
	if err := run([]string{"-speedup", "0"}, &stdout, &stderr); err == nil {
		t.Errorf("-speedup 0 accepted")
	}
	if err := run([]string{"-coflows", "0"}, &stdout, &stderr); err == nil {
		t.Errorf("-coflows 0 accepted")
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
// daemon from each of its three workload sources: the generated Poisson
// process (a 120-coflow closed-loop replay, read through -json), a catalog
// scenario remapped from its 12-host star onto the daemon's fat-tree, and a
// parsed trace file. Every request must succeed, every coflow must finish,
// and the daemon must have admitted and completed each one.
func TestRunTraceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	traceCSV := "coflow,arrival_ms,mappers,reducers\nj0,0,0;1,2:40;3:20\nj1,200,4,5:10\nj2,500,2;3,0:30\n"
	if err := os.WriteFile(path, []byte(traceCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	incast, ok := workload.LookupScenario("incast")
	if !ok {
		t.Fatal("incast scenario not registered")
	}
	incastInst, _, err := incast.Build()
	if err != nil {
		t.Fatalf("building scenario: %v", err)
	}

	for _, tc := range []struct {
		name      string
		timeScale float64 // keeps the simulated network far ahead of the replay
		args      []string
		n         int
	}{
		{"TestClosedLoopReplay", 1000, []string{"-coflows", "120", "-rate", "400", "-json"}, 120},
		// ~25 simulated units of arrivals in ~0.5 s wall.
		{"TestScenarioReplay", 2000, []string{"-scenario", "incast", "-speedup", "50"}, len(incastInst.Coflows)},
		{"TestTraceReplay", 2000, []string{"-trace", path, "-speedup", "10"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := server.New(server.Config{
				Network:     graph.FatTree(4, 1),
				Policy:      online.SEBFOnline{},
				EpochLength: 2,
				TimeScale:   tc.timeScale,
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

			var stdout, stderr bytes.Buffer
			args := append([]string{"-target", ts.URL, "-wait", "-quiet"}, tc.args...)
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
			}
			if !slices.Contains(tc.args, "-json") {
				out := stdout.String()
				if !strings.Contains(out, "failures=0") || !strings.Contains(out, fmt.Sprintf("completed=%d", tc.n)) {
					t.Errorf("unexpected replay report:\n%s", out)
				}
				if !strings.Contains(out, fmt.Sprintf("daemon: admitted=%d completed=%d", tc.n, tc.n)) {
					t.Errorf("missing daemon stats line:\n%s", out)
				}
				return
			}
			var out struct {
				Load struct {
					Requests    int     `json:"requests"`
					Failures    int     `json:"failures"`
					AchievedRPS float64 `json:"achieved_rps"`
					P95         float64 `json:"admit_latency_p95_seconds"`
					Completed   int     `json:"completed"`
				} `json:"load"`
				Daemon struct {
					Decisions        int     `json:"decisions"`
					Admitted         int     `json:"admitted"`
					Completed        int     `json:"completed"`
					WeightedCCT      float64 `json:"weighted_cct"`
					WeightedResponse float64 `json:"weighted_response"`
				} `json:"daemon"`
			}
			if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
				t.Fatalf("stdout is not one JSON object: %v\n%s", err, stdout.String())
			}
			if out.Load.Requests != tc.n || out.Load.Failures != 0 || out.Load.Completed != tc.n {
				t.Errorf("load summary %+v, want %d requests, 0 failures, %d completed", out.Load, tc.n, tc.n)
			}
			if out.Load.AchievedRPS <= 0 || out.Load.P95 <= 0 {
				t.Errorf("degenerate load summary: %+v", out.Load)
			}
			if out.Daemon.Admitted != tc.n || out.Daemon.Completed != tc.n {
				t.Errorf("daemon saw admitted=%d completed=%d, want %d/%d", out.Daemon.Admitted, out.Daemon.Completed, tc.n, tc.n)
			}
			if out.Daemon.WeightedCCT <= 0 || out.Daemon.WeightedResponse <= 0 {
				t.Errorf("daemon objectives not positive: %+v", out.Daemon)
			}
			if out.Daemon.Decisions == 0 {
				t.Errorf("no policy decisions during a %d-coflow replay", tc.n)
			}
		})
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

// TestRunJSONAdmitStages: -json reports the admit pipeline stage by stage,
// read from the run's monitor over the run's window. Every admission passes
// coalesce-wait and engine-admit; a cluster without a WAL has no WAL stages.
func TestRunJSONAdmitStages(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-cluster", "1", "-cluster-timescale", "200",
		"-coflows", "20", "-rate", "500", "-wait", "-quiet", "-json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -json: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	var out struct {
		Stages []stageLatency `json:"admit_stages"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%s", err, stdout.String())
	}
	counts := map[string]uint64{}
	for _, st := range out.Stages {
		counts[st.Stage] = st.Count
		if st.P50 <= 0 || st.P99 < st.P50 {
			t.Errorf("stage %s: p50=%v p99=%v, want 0 < p50 <= p99", st.Stage, st.P50, st.P99)
		}
	}
	if len(counts) != 2 || counts["coalesce-wait"] != 20 || counts["engine-admit"] != 20 {
		t.Errorf("admit_stages counts = %v, want coalesce-wait and engine-admit at 20 and nothing else", counts)
	}
}

// newDaemon serves a coflowd on loopback through wrap (nil serves it as is).
func newDaemon(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Network:     graph.FatTree(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		TimeScale:   1000,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// scrapeTimeout is the monitor's bound on one scrape.
const scrapeTimeout = 2 * time.Second

// TestRunSoakSilentScrape: a target that accepts the scrape's connection and
// never answers it costs each of the monitor's ticks one scrapeTimeout, and
// no more. The soak window still closes on time, the run ends within a
// bounded number of ticks, and the silence reads as scrape-failure.
func TestRunSoakSilentScrape(t *testing.T) {
	ts := newDaemon(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				<-r.Context().Done() // released when the scraper gives up
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	const soak = 500 * time.Millisecond
	var stdout, stderr bytes.Buffer
	begin := time.Now()
	err := run([]string{"-target", ts.URL, "-soak", soak.String(), "-rate", "20", "-quiet", "-json"}, &stdout, &stderr)
	elapsed := time.Since(begin)
	if !errors.Is(err, errSLOViolated) {
		t.Fatalf("soak against a silent scrape = %v, want errSLOViolated\nstdout: %s", err, stdout.String())
	}
	var out struct {
		Soak struct {
			DurationSeconds float64  `json:"duration_seconds"`
			Violated        []string `json:"violated"`
		} `json:"soak"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if !slices.Contains(out.Soak.Violated, "scrape-failure") {
		t.Errorf("violated = %v, want scrape-failure", out.Soak.Violated)
	}
	if held := time.Duration(out.Soak.DurationSeconds * float64(time.Second)); held > soak+scrapeTimeout {
		t.Errorf("soak held %s, want at most %s", held, soak+scrapeTimeout)
	}
	// The tick before the first send, the loop's tick in flight when the
	// window closes and the tick after it each wait one scrapeTimeout.
	if limit := soak + 3*scrapeTimeout + time.Second; elapsed > limit {
		t.Errorf("run took %s, want at most %s", elapsed, limit)
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
	// -slo and -bundle-dir configure the run's own monitor, which watches
	// any target, so both are accepted with -target.
	ts := newDaemon(t, nil)
	var stdout, stderr bytes.Buffer
	args := []string{"-target", ts.URL, "-coflows", "2", "-rate", "500", "-quiet",
		"-slo", "p99_admit_ms=250", "-bundle-dir", t.TempDir()}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Errorf("-slo and -bundle-dir with -target: %v\nstderr: %s", err, stderr.String())
	}
	// The run makes its own monitor: -monitor is not a flag.
	if err := run([]string{"-target", ts.URL, "-monitor", "x"}, &stdout, &stderr); err == nil {
		t.Error("-monitor accepted")
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

// TestRunSoakViolated is the red half: a soak of a cluster whose shard has
// been killed exits with errSLOViolated, and the run's monitor has written a
// flight-recorder bundle for a fired rule into -bundle-dir.
func TestRunSoakViolated(t *testing.T) {
	bundleDir := t.TempDir()
	l, err := cluster.NewLocal(cluster.LocalConfig{
		Shards:    2,
		TimeScale: 200,
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	defer l.Close()

	// The killed shard's listener answers 503, so its scrape fails (up=0)
	// from the monitor's first tick on, and once the gateway's health loop
	// ejects it, coflowgate_backend_up goes 0 too.
	l.Kill(1)
	var stdout, stderr bytes.Buffer
	err = run([]string{
		"-target", l.URL(), "-bundle-dir", bundleDir,
		"-soak", "500ms", "-rate", "20", "-quiet",
	}, &stdout, &stderr)
	if !errors.Is(err, errSLOViolated) {
		t.Fatalf("soak against broken cluster = %v, want errSLOViolated\nstdout: %s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "VIOLATED") {
		t.Errorf("text report lacks violation banner:\n%s", stdout.String())
	}

	// The monitor is closed when run returns, so every bundle a firing
	// transition began is whole on disk.
	paths, err := filepath.Glob(filepath.Join(bundleDir, "bundle-*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundles written (%v)", err)
	}
	data, err := os.ReadFile(paths[0])
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
