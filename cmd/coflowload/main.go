// Command coflowload replays a coflow arrival process against a live coflowd
// daemon (cmd/coflowd) and reports achieved request throughput plus
// admit-latency percentiles — the closed-loop load-testing companion to the
// daemon.
//
// Three workload sources:
//
//	coflowload -target http://localhost:8080 -coflows 200 -rate 100 -wait
//	coflowload -scenario heavy-tail -speedup 4 -wait
//	coflowload -trace fb.csv -speedup 10 -wait
//
// With -cluster N the target is replaced by an in-process cluster: N coflowd
// shards behind a coflowgate gateway that places each coflow by a hash of its
// gateway id, all on loopback listeners (the same harness the admit-cluster
// benchmark workload uses). That makes shard-count scaling measurable from
// one command with no daemons to start:
//
//	coflowload -cluster 4 -coflows 400 -rate 1000 -cluster-timescale 50 -wait
//
// The default mode generates a Poisson process (workload.GenerateArrivals, 3
// flows per coflow, mean flow size 4, mean weight 1, seed 1) on a stand-in
// star with the daemon's host count (fetched from GET /v1/network).
// With -scenario or -trace, the named catalog scenario or parsed trace file
// is replayed instead. All three are replayed the same way: endpoints are
// remapped onto the daemon's hosts by host index, and arrival times are
// compressed by -speedup into the wall-clock send schedule, so a multi-hour
// trace can drive the daemon in seconds (pair with the daemon's -timescale).
//
// With -wait the command polls until every admitted coflow completes and
// reports the daemon's final scheduling statistics. Exit status is non-zero
// if any request failed.
//
// With -soak DURATION the command becomes an SLO-gated soak test: it holds
// the target request rate for the duration while polling a coflowmon
// /v1/slo endpoint, and exits non-zero if any SLO rule fires. The monitor is
// either external (-monitor URL) or, with -cluster, embedded automatically
// in the in-process cluster. -slo overrides stock objectives
// (p99_admit_ms=X, p99_tick_ms=X, comma-separated) and -bundle-dir gives the
// embedded monitor's flight recorder a home:
//
//	coflowload -cluster 2 -soak 30s -rate 200 -slo p99_admit_ms=250 -bundle-dir ./bundles
//	coflowload -target http://gw:8090 -monitor http://mon:8099 -soak 5m
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"coflowsched/internal/cluster"
	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/monitor"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

// errFailedRequests distinguishes "the replay ran but some admissions
// failed" (already summarized in the printed report) from setup errors.
var errFailedRequests = errors.New("some requests failed")

// errSLOViolated means the soak completed but an SLO rule fired — the
// gating signal CI and release pipelines key on.
var errSLOViolated = errors.New("slo violated")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFailedRequests) && !errors.Is(err, errSLOViolated) {
			fmt.Fprintln(os.Stderr, "coflowload:", err)
		}
		os.Exit(1)
	}
}

// run is main with injectable arguments and streams (smoke-testable without
// exec'ing a binary).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "http://localhost:8080", "coflowd base URL")
		coflows  = fs.Int("coflows", 100, "number of coflows to replay (generated mode)")
		rate     = fs.Float64("rate", 50, "mean coflow arrivals per wall-clock second (generated mode)")
		scenario = fs.String("scenario", "", "replay a named workload scenario instead of generating (see coflowgen -list-scenarios)")
		trace    = fs.String("trace", "", "replay a Facebook/Varys-style CSV trace file instead of generating")
		speedup  = fs.Float64("speedup", 1, "replay clock compression: arrival time t is sent at wall-clock t/speedup seconds (generated arrivals are wall-clock seconds already)")
		wait     = fs.Bool("wait", false, "poll until every admitted coflow completes")
		quiet    = fs.Bool("quiet", false, "suppress progress logging")
		jsonOut  = fs.Bool("json", false, "print the run summary as one JSON object (machine-readable; implies -quiet on stdout formatting only)")

		clusterN  = fs.Int("cluster", 0, "replay against an in-process cluster of this many coflowd shards behind a coflowgate gateway (overrides -target)")
		timescale = fs.Float64("cluster-timescale", 50, "shard simulated time units per wall second with -cluster")

		soak       = fs.Duration("soak", 0, "hold the target rate for this long while polling /v1/slo; exit non-zero if a rule fires")
		sloSpec    = fs.String("slo", "", "comma-separated SLO objective overrides for the embedded monitor: p99_admit_ms=X, p99_tick_ms=X")
		monitorURL = fs.String("monitor", "", "coflowmon base URL to poll during -soak (set automatically with -cluster)")
		bundleDir  = fs.String("bundle-dir", "", "flight-recorder bundle directory for the embedded monitor")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scenario != "" && *trace != "" {
		return fmt.Errorf("-scenario and -trace are mutually exclusive")
	}
	sloRules, err := soakRules(*sloSpec)
	if err != nil {
		return err
	}
	if *sloSpec != "" && *clusterN == 0 {
		return fmt.Errorf("-slo configures the embedded monitor and needs -cluster")
	}

	if *speedup <= 0 {
		return fmt.Errorf("-speedup must be positive")
	}
	// -scenario and -trace build their instance here; the generated one
	// needs the daemon's host count and is drawn once the target answers.
	var inst *coflow.Instance
	var arrivals []float64
	switch {
	case *scenario != "":
		sc, ok := workload.LookupScenario(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %v)", *scenario, workload.ScenarioNames())
		}
		if inst, arrivals, err = sc.Build(); err != nil {
			return err
		}
	case *trace != "":
		if inst, arrivals, err = loadTrace(*trace); err != nil {
			return err
		}
	case *coflows < 1 && *soak == 0:
		return fmt.Errorf("-coflows must be positive")
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	targetURL := *target
	monURL := *monitorURL
	if *clusterN > 0 {
		lcfg := cluster.LocalConfig{
			Shards:    *clusterN,
			TimeScale: *timescale,
			Logger:    telemetry.LogfLogger(logf),
		}
		if *soak > 0 || *bundleDir != "" {
			// A soaked or bundle-collecting cluster run gets an embedded
			// monitor watching the gateway and every shard.
			lcfg.Monitor = &monitor.Config{
				Interval:  soakScrapeInterval,
				Rules:     sloRules,
				BundleDir: *bundleDir,
			}
		}
		local, err := cluster.NewLocal(lcfg)
		if err != nil {
			return fmt.Errorf("starting in-process cluster: %v", err)
		}
		defer local.Close()
		targetURL = local.URL()
		logf("coflowload: in-process cluster of %d shards at %s", *clusterN, targetURL)
		if local.Monitor != nil {
			monURL = local.MonitorURL()
			logf("coflowload: embedded monitor at %s", monURL)
		}
	}
	if *soak > 0 && monURL == "" {
		return fmt.Errorf("-soak needs a monitor: pass -monitor URL or use -cluster")
	}

	c := server.NewClient(targetURL)
	health, err := c.Health()
	if err != nil {
		return fmt.Errorf("daemon unreachable at %s: %v", targetURL, err)
	}
	logf("coflowload: target %s healthy (policy %s, sim clock %.2f)", targetURL, health.Policy, health.Now)
	net, err := c.Network()
	if err != nil {
		return fmt.Errorf("fetching topology: %w", err)
	}
	if len(net.Hosts) < 2 {
		return fmt.Errorf("daemon topology has %d hosts, need at least 2", len(net.Hosts))
	}
	if inst == nil {
		n := *coflows
		if *soak > 0 {
			// Size the workload to cover the soak window at the requested
			// rate; -coflows is ignored in soak mode.
			n = int(soak.Seconds()**rate) + 1
		}
		// A stand-in star with the daemon's host count, so that replayWire's
		// host-index mapping lands each endpoint on its own host.
		inst, arrivals, err = workload.GenerateArrivals(graph.Star(len(net.Hosts), 1), workload.ArrivalConfig{
			Config: workload.Config{NumCoflows: n, Width: genWidth, MeanSize: genMeanSize, MeanWeight: genMeanWeight},
			Rate:   *rate,
		}, rand.New(rand.NewSource(genSeed)))
		if err != nil {
			return fmt.Errorf("generating workload: %w", err)
		}
	}
	logf("coflowload: replaying %d coflows (%d flows) at %gx compression",
		len(inst.Coflows), inst.NumFlows(), *speedup)

	load := func() (*loadReport, error) {
		return replay(c, net.Hosts, inst, arrivals, *speedup, *wait, logf)
	}
	var report *loadReport
	var soakRep *soakReport
	if *soak > 0 {
		report, soakRep, err = runSoak(load, monURL, *soak, logf)
	} else {
		report, err = load()
	}
	if err != nil {
		if report != nil && !*jsonOut {
			fmt.Fprintln(stdout, report)
		}
		return err
	}

	var daemonStats *server.StatsResponse
	if *wait {
		st, err := c.Stats()
		if err != nil {
			return fmt.Errorf("fetching final stats: %v", err)
		}
		daemonStats = &st
	}
	// Best-effort per-stage admit-latency breakdown, scraped from the shard
	// histograms: it turns "admit p99 violated" into "group-commit grew".
	stages, stageErr := fetchStageBreakdown(targetURL)
	if stageErr != nil {
		logf("coflowload: stage breakdown unavailable: %v", stageErr)
	}
	if soakRep != nil && len(soakRep.Violated) > 0 {
		soakRep.GuiltyStage = worstStage(stages)
	}
	if *jsonOut {
		// One JSON object on stdout: the replay summary plus, with -wait, the
		// daemon's final scheduling statistics — scriptable run comparison.
		out := struct {
			Target string                `json:"target"`
			Load   *loadReport           `json:"load"`
			Daemon *server.StatsResponse `json:"daemon,omitempty"`
			Stages []stageLatency        `json:"admit_stages,omitempty"`
			Soak   *soakReport           `json:"soak,omitempty"`
		}{Target: targetURL, Load: report, Daemon: daemonStats, Stages: stages, Soak: soakRep}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stdout, report)
		if daemonStats != nil {
			st := daemonStats
			fmt.Fprintf(stdout, "daemon: admitted=%d completed=%d weighted_cct=%.2f weighted_response=%.2f slowdown_p95=%.2f solve_ms_p95=%.3f\n",
				st.Admitted, st.Completed, st.WeightedCCT, st.WeightedResponse, st.SlowdownP95, st.SolveMsP95)
		}
		for _, st := range stages {
			fmt.Fprintf(stdout, "stage: %-15s count=%-6d p50=%.3fms p99=%.3fms\n",
				st.Stage, st.Count, st.P50*1000, st.P99*1000)
		}
		if soakRep != nil {
			fmt.Fprint(stdout, soakRep)
		}
	}
	if soakRep != nil && len(soakRep.Violated) > 0 {
		return errSLOViolated
	}
	if report.Failures > 0 {
		return errFailedRequests
	}
	return nil
}

// soakScrapeInterval is the embedded monitor's scrape period in soak mode —
// short enough that a short CI soak sees several rule evaluations.
const soakScrapeInterval = 100 * time.Millisecond

// soakReport summarizes an SLO-gated soak: the held duration, every rule's
// final status, and the rules that fired at any point during the window.
type soakReport struct {
	DurationSeconds float64              `json:"duration_seconds"`
	Rules           []monitor.RuleStatus `json:"rules"`
	Violated        []string             `json:"violated,omitempty"`
	// GuiltyStage names the admit-pipeline stage with the worst p99 when a
	// rule fired — the first place to look.
	GuiltyStage string `json:"guilty_stage,omitempty"`
}

// String renders the text-mode soak summary.
func (s *soakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: held %.1fs, %d rules", s.DurationSeconds, len(s.Rules))
	if len(s.Violated) == 0 {
		b.WriteString(", all healthy\n")
	} else {
		fmt.Fprintf(&b, ", VIOLATED: %s", strings.Join(s.Violated, ", "))
		if s.GuiltyStage != "" {
			fmt.Fprintf(&b, " (worst stage: %s)", s.GuiltyStage)
		}
		b.WriteString("\n")
	}
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "soak: rule %-16s %-8s firings=%d\n", r.Rule.Name, r.State, r.Firings)
	}
	return b.String()
}

// runSoak runs runLoad in the background while polling the monitor's
// /v1/slo, holding the soak window open even if the load finishes early. A
// rule counts as violated if it is firing — or has fired — at any poll.
func runSoak(runLoad func() (*loadReport, error), monURL string, d time.Duration, logf func(string, ...any)) (*loadReport, *soakReport, error) {
	type loadResult struct {
		report *loadReport
		err    error
	}
	start := time.Now()
	loadCh := make(chan loadResult, 1)
	go func() {
		r, err := runLoad()
		loadCh <- loadResult{r, err}
	}()

	violated := map[string]bool{}
	poll := func() ([]monitor.RuleStatus, error) {
		rules, err := fetchSLO(monURL)
		if err != nil {
			return nil, err
		}
		for _, r := range rules {
			if (r.State == monitor.StateFiring || r.Firings > 0) && !violated[r.Rule.Name] {
				violated[r.Rule.Name] = true
				logf("coflowload: SLO %s %s (firings=%d)", r.Rule.Name, r.State, r.Firings)
			}
		}
		return rules, nil
	}

	ticker := time.NewTicker(soakScrapeInterval)
	defer ticker.Stop()
	deadline := time.After(d)
	var load *loadResult
	var pollErr error
	for load == nil || time.Since(start) < d {
		select {
		case r := <-loadCh:
			load = &r
		case <-ticker.C:
			if _, err := poll(); err != nil {
				pollErr = err
			} else {
				pollErr = nil
			}
		case <-deadline:
			// Window elapsed; keep draining the load if it is still running.
			if load == nil {
				r := <-loadCh
				load = &r
			}
		}
	}
	finalRules, err := poll()
	if err != nil {
		return load.report, nil, fmt.Errorf("polling monitor %s: %v", monURL, err)
	}
	if pollErr != nil {
		return load.report, nil, fmt.Errorf("polling monitor %s: %v", monURL, pollErr)
	}
	rep := &soakReport{DurationSeconds: time.Since(start).Seconds(), Rules: finalRules}
	for _, r := range finalRules {
		if violated[r.Rule.Name] {
			rep.Violated = append(rep.Violated, r.Rule.Name)
		}
	}
	return load.report, rep, load.err
}

// probeTimeout bounds each of coflowload's reads beside the load itself: the
// /v1/slo poll, the stage scrape and the backend roster. A peer that accepts
// a connection and never answers then costs one failed poll, not the soak.
const probeTimeout = 2 * time.Second

// probeClient makes every one of those reads.
var probeClient = &http.Client{Timeout: probeTimeout}

// fetchSLO reads a coflowmon /v1/slo endpoint.
func fetchSLO(monURL string) ([]monitor.RuleStatus, error) {
	resp, err := probeClient.Get(strings.TrimSuffix(monURL, "/") + "/v1/slo")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var body struct {
		Rules []monitor.RuleStatus `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Rules, nil
}

// soakRules builds the embedded monitor's rule set: the stock DefaultRules
// over the soak scrape interval, with -slo objective overrides applied.
// Supported keys: p99_admit_ms (admit-p99), p99_tick_ms (tick-p99).
func soakRules(spec string) ([]monitor.Rule, error) {
	rules := monitor.DefaultRules(soakScrapeInterval)
	if spec == "" {
		return rules, nil
	}
	byKey := map[string]string{"p99_admit_ms": "admit-p99", "p99_tick_ms": "tick-p99"}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, raw, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -slo entry %q (want key=value)", part)
		}
		name, known := byKey[strings.TrimSpace(key)]
		if !known {
			return nil, fmt.Errorf("unknown -slo key %q (have p99_admit_ms, p99_tick_ms)", key)
		}
		ms, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil || ms <= 0 {
			return nil, fmt.Errorf("bad -slo value in %q: want positive milliseconds", part)
		}
		for i := range rules {
			if rules[i].Name == name {
				rules[i].Objective = ms / 1000
			}
		}
	}
	return rules, nil
}

// The generated workload's shape (workload.GenerateArrivals): flows per
// coflow, mean flow size, mean coflow weight, and the seed of its draw. Every
// flow is released on its coflow's arrival.
const (
	genWidth      = 3
	genMeanSize   = 4
	genMeanWeight = 1
	genSeed       = 1
)

// loadTrace parses a trace file and realizes it on a stand-in star wide
// enough for every slot; replayWire remaps hosts by index onto whatever
// topology the daemon actually runs.
func loadTrace(path string) (*coflow.Instance, []float64, error) {
	tr, err := workload.ParseTraceFile(path)
	if err != nil {
		return nil, nil, err
	}
	maxSlot := 0
	for _, rec := range tr.Records {
		for _, s := range rec.Mappers {
			if s > maxSlot {
				maxSlot = s
			}
		}
		for _, s := range rec.Reducers {
			if s > maxSlot {
				maxSlot = s
			}
		}
	}
	standIn := graph.Star(maxSlot+2, 1)
	return tr.Instance(standIn)
}
