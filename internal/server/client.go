package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/stats"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

// Client is a small typed client for the coflowd HTTP API, shared by
// cmd/coflowload, the cluster gateway and the closed-loop tests.
//
// Every request carries the HTTPClient's timeout (so a hung backend fails the
// request instead of stalling the caller forever) and transient failures —
// transport errors and the TransientStatus codes — are retried up to Retries
// times with exponentially growing, jittered backoff. Admissions are
// exactly-once under this policy: every Admit carries an idempotency key in
// the X-Coflow-Id header (auto-generated unless the caller supplies one via
// AdmitWithKey), so a retried request whose original response was lost
// replays the first admission instead of creating a second coflow — even
// across a daemon restart when the daemon runs with a WAL.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 10s timeout.
	HTTPClient *http.Client
	// Retries is the number of additional attempts after a transient failure
	// (default 2; 0 disables retrying).
	Retries int
	// RetryBase is the backoff before the first retry; each further retry
	// doubles it, and every wait is jittered to half-to-full of its nominal
	// value so synchronized clients do not stampede a recovering backend.
	// Default 50ms.
	RetryBase time.Duration
	// RetryCounter, when non-nil, counts retried attempts labeled by API
	// endpoint ("admit", "stats", ...). The gateway wires its registry's
	// coflowgate_client_retries_total vec here so backend flakiness is
	// visible at /metrics before it becomes an ejection.
	RetryCounter *telemetry.CounterVec
	// Logger, when non-nil, receives a debug line per retried attempt.
	Logger *slog.Logger
}

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithTimeout sets the per-request timeout (covering connect, request and
// response body).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.HTTPClient.Timeout = d }
}

// WithRetries sets the transient-failure retry budget and the base backoff.
// n is the number of retries after the initial attempt; base <= 0 keeps the
// default backoff.
func WithRetries(n int, base time.Duration) ClientOption {
	return func(c *Client) {
		c.Retries = n
		if base > 0 {
			c.RetryBase = base
		}
	}
}

// WithInstrumentation attaches retry accounting: each retried attempt bumps
// retries with the endpoint label and logs one debug line on logger. Either
// argument may be nil.
func WithInstrumentation(retries *telemetry.CounterVec, logger *slog.Logger) ClientOption {
	return func(c *Client) {
		c.RetryCounter = retries
		c.Logger = logger
	}
}

// NewClient builds a client for the given base URL.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		BaseURL:    strings.TrimRight(base, "/"),
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
		Retries:    2,
		RetryBase:  50 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// TransientStatus reports whether a response code signals a transient
// condition: a request timeout (408), overload (429), or a gateway or
// availability failure (502/503/504). The client retries exactly these; the
// cluster gateway treats every other 4xx as the request's own fault.
func TransientStatus(code int) bool {
	switch code {
	case http.StatusRequestTimeout, http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// doJSON performs one API call with the retry policy applied. endpoint is the
// short API name retry accounting is labeled with; header entries (trace
// propagation) are re-sent on every attempt, as is the body.
func (c *Client) doJSON(method, path, endpoint string, header map[string]string, body []byte, out any) error {
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.countRetry(endpoint, attempt, lastErr)
			// Exponential backoff with half-to-full jitter.
			nominal := c.RetryBase << (attempt - 1)
			if nominal <= 0 {
				nominal = 50 * time.Millisecond
			}
			time.Sleep(nominal/2 + time.Duration(rand.Int63n(int64(nominal/2)+1)))
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := c.HTTPClient.Do(req)
		if err != nil {
			lastErr = err // transport failure (refused, reset, timeout): retry
			continue
		}
		code := resp.StatusCode
		err = decodeResponse(resp, out)
		if err != nil && TransientStatus(code) {
			lastErr = err
			continue
		}
		return err
	}
	return fmt.Errorf("server: %d attempts failed: %w", attempts, lastErr)
}

// countRetry records one retried attempt in the configured instrumentation.
func (c *Client) countRetry(endpoint string, attempt int, cause error) {
	if c.RetryCounter != nil {
		c.RetryCounter.With(endpoint).Inc()
	}
	if c.Logger != nil {
		c.Logger.Debug("retrying request", "component", "client",
			"endpoint", endpoint, "base_url", c.BaseURL, "attempt", attempt, "cause", cause)
	}
}

func (c *Client) get(path, endpoint string, out any) error {
	return c.doJSON(http.MethodGet, path, endpoint, nil, nil, out)
}

// Admit posts one coflow; flow Release fields are offsets from admission.
// A fresh idempotency key is generated per call and re-sent on every retry,
// so a lost response cannot double-admit: the retried request gets the
// original admission back.
func (c *Client) Admit(cf coflow.Coflow) (AdmitResponse, error) {
	return c.AdmitWithKey(cf, "", telemetry.NewTraceID())
}

// AdmitTraced posts one coflow carrying a lifecycle trace id in the
// X-Coflow-Trace header, so the admitting daemon's spans join the caller's.
// An empty trace behaves like Admit (the daemon mints its own id). Like
// Admit, each call carries a fresh auto-generated idempotency key.
func (c *Client) AdmitTraced(cf coflow.Coflow, trace string) (AdmitResponse, error) {
	return c.AdmitWithKey(cf, trace, telemetry.NewTraceID())
}

// AdmitWithKey posts one coflow with an explicit idempotency key (X-Coflow-Id
// header) and optional trace id. Callers that own retry loops spanning
// process restarts — the cluster gateway re-placing an orphaned coflow, say —
// pass a stable key so every attempt lands on the same admission. An empty
// key sends no idempotency header at all (at-least-once admission).
func (c *Client) AdmitWithKey(cf coflow.Coflow, trace, key string) (AdmitResponse, error) {
	body, err := json.Marshal(cf)
	if err != nil {
		return AdmitResponse{}, err
	}
	header := map[string]string{}
	if trace != "" {
		header[telemetry.TraceHeader] = trace
	}
	if key != "" {
		header[IdemHeader] = key
	}
	var out AdmitResponse
	return out, c.doJSON(http.MethodPost, "/v1/coflows", "admit", header, body, &out)
}

// Coflow fetches one coflow's status.
func (c *Client) Coflow(id int) (CoflowResponse, error) {
	var out CoflowResponse
	return out, c.get(fmt.Sprintf("/v1/coflows/%d", id), "coflow", &out)
}

// Schedule fetches the current residual priority order.
func (c *Client) Schedule() (ScheduleResponse, error) {
	var out ScheduleResponse
	return out, c.get("/v1/schedule", "schedule", &out)
}

// Stats fetches the aggregate statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	return out, c.get("/v1/stats", "stats", &out)
}

// StatsSamples fetches the aggregate statistics together with the raw
// percentile sample reservoirs — what the cluster gateway scatter-gathers to
// compute merged tails.
func (c *Client) StatsSamples() (StatsResponse, error) {
	var out StatsResponse
	return out, c.get("/v1/stats?samples=1", "stats", &out)
}

// Health fetches the health summary.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	return out, c.get("/healthz", "health", &out)
}

// Keys fetches the gateway admissions the daemon holds.
func (c *Client) Keys() (KeysResponse, error) {
	var out KeysResponse
	return out, c.get("/v1/keys", "keys", &out)
}

// Network fetches the topology summary the generator builds coflows from.
func (c *Client) Network() (NetworkResponse, error) {
	var out NetworkResponse
	return out, c.get("/v1/network", "network", &out)
}

// APIError is a non-2xx response decoded into an error. Callers that need to
// distinguish validation failures (4xx: retrying or re-routing cannot help)
// from availability failures (5xx: another backend might succeed) unwrap it
// with errors.As; the cluster gateway's placement fallback does exactly that.
type APIError struct {
	// StatusCode is the HTTP status; Status its text form.
	StatusCode int
	Status     string
	// Message is the server's JSON error message (or raw body).
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Status, e.Message)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Status: resp.Status}
		var e errorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(body))
		}
		return apiErr
	}
	return json.Unmarshal(body, out)
}

// LoadConfig parameterizes a load-generation run: a Poisson replay of
// workload.GenerateArrivals against a live daemon, in wall-clock time — or,
// when Instance is set, a replay of a prebuilt workload (a scenario or a
// parsed trace) on a scaled wall clock.
type LoadConfig struct {
	// Instance, when non-nil, is a prebuilt workload to replay instead of
	// generating one. Arrivals must be index-aligned with Instance.Coflows
	// and non-decreasing (what workload scenarios and traces produce);
	// endpoints are remapped onto the daemon's hosts by host index. The
	// Coflows/Width/MeanSize/MeanWeight/Rate knobs are ignored in this mode.
	Instance *coflow.Instance
	Arrivals []float64
	// SpeedUp compresses the replay clock: a coflow arriving at simulated
	// time t is sent at wall-clock t/SpeedUp seconds after the first arrival
	// (default 1). Pair with the daemon's -timescale to keep the simulated
	// network ahead of the replay.
	SpeedUp float64
	// Coflows is the number of coflows to admit (default 100).
	Coflows int
	// Width is the number of flows per coflow (default 3).
	Width int
	// MeanSize and MeanWeight shape the coflows (defaults 4 and 1).
	MeanSize   float64
	MeanWeight float64
	// Rate is the mean coflow arrival rate in requests per wall-clock
	// second (default 50). Inter-arrival gaps are exponential — the same
	// Poisson process the simulator studies, replayed in real time.
	Rate float64
	// Concurrency is the number of concurrent admitters (default 4). If
	// arrivals outpace them the replay degrades gracefully from open-loop
	// to closed-loop.
	Concurrency int
	// Seed makes the replay reproducible.
	Seed int64
	// WaitComplete polls after the replay until every admitted coflow
	// finishes (or WaitTimeout, default 60s, elapses).
	WaitComplete bool
	WaitTimeout  time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (cfg LoadConfig) withDefaults() LoadConfig {
	if cfg.SpeedUp <= 0 {
		cfg.SpeedUp = 1
	}
	if cfg.Coflows <= 0 {
		cfg.Coflows = 100
	}
	if cfg.Width <= 0 {
		cfg.Width = 3
	}
	if cfg.MeanSize <= 0 {
		cfg.MeanSize = 4
	}
	if cfg.MeanWeight <= 0 {
		cfg.MeanWeight = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 50
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 60 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// LoadReport summarizes a replay: request outcome counts, achieved
// throughput, and admit-request latency percentiles. The JSON shape is
// coflowload's -json output — machine-readable for scripted comparisons
// (durations in seconds).
type LoadReport struct {
	Requests    int           `json:"requests"`
	Failures    int           `json:"failures"`
	Duration    time.Duration `json:"-"`
	AchievedRPS float64       `json:"achieved_rps"`
	// LatencyP50/P95/P99 are admit request latencies.
	LatencyP50 time.Duration `json:"-"`
	LatencyP95 time.Duration `json:"-"`
	LatencyP99 time.Duration `json:"-"`
	// Completed counts coflows confirmed finished (only populated with
	// WaitComplete).
	Completed int `json:"completed,omitempty"`
	// FirstError carries the first failure's message, for diagnostics.
	FirstError string `json:"first_error,omitempty"`
	// DurationSeconds and the latency seconds mirror the Duration fields in
	// JSON-friendly units; populated by MarshalJSON.
	DurationSeconds float64 `json:"duration_seconds"`
	LatencyP50Secs  float64 `json:"admit_latency_p50_seconds"`
	LatencyP95Secs  float64 `json:"admit_latency_p95_seconds"`
	LatencyP99Secs  float64 `json:"admit_latency_p99_seconds"`
}

// MarshalJSON renders the report with durations in seconds.
func (r *LoadReport) MarshalJSON() ([]byte, error) {
	type alias LoadReport // strip the method to avoid recursion
	a := alias(*r)
	a.DurationSeconds = r.Duration.Seconds()
	a.LatencyP50Secs = r.LatencyP50.Seconds()
	a.LatencyP95Secs = r.LatencyP95.Seconds()
	a.LatencyP99Secs = r.LatencyP99.Seconds()
	return json.Marshal(a)
}

// String renders the report for terminals.
func (r *LoadReport) String() string {
	s := fmt.Sprintf("requests=%d failures=%d duration=%.2fs achieved_rps=%.1f latency p50/p95/p99 = %.2f/%.2f/%.2f ms",
		r.Requests, r.Failures, r.Duration.Seconds(), r.AchievedRPS,
		float64(r.LatencyP50.Microseconds())/1e3,
		float64(r.LatencyP95.Microseconds())/1e3,
		float64(r.LatencyP99.Microseconds())/1e3)
	if r.Completed > 0 {
		s += fmt.Sprintf(" completed=%d", r.Completed)
	}
	if r.FirstError != "" {
		s += "\nfirst error: " + r.FirstError
	}
	return s
}

// RunLoad replays a coflow arrival process against a live daemon.
//
// With cfg.Instance set, the prebuilt workload (a scenario or parsed trace)
// is replayed; by default the workload comes from workload.GenerateArrivals on
// a star stand-in topology with the daemon's host count, its arrival times in
// wall-clock seconds. Either way the instance is replayed the same way:
// endpoints are remapped onto the daemon's hosts by host index (mod the
// daemon's host count), arrivals from the first one on are compressed by
// SpeedUp into the wall-clock send schedule, and each flow keeps its release
// offset from the coflow's arrival in simulated time (zero for a generated
// workload: every flow is released on admission).
func RunLoad(c *Client, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	net, err := c.Network()
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetching topology: %w", err)
	}
	if len(net.Hosts) < 2 {
		return nil, fmt.Errorf("loadgen: daemon topology has %d hosts, need at least 2", len(net.Hosts))
	}
	if cfg.Instance == nil {
		// Draw the workload on a stand-in star with the daemon's host count, so
		// replayWire's host-index mapping lands each endpoint on its own host.
		inst, arrivals, err := workload.GenerateArrivals(graph.Star(len(net.Hosts), 1), workload.ArrivalConfig{
			Config: workload.Config{
				NumCoflows: cfg.Coflows,
				Width:      cfg.Width,
				MeanSize:   cfg.MeanSize,
				MeanWeight: cfg.MeanWeight,
			},
			Rate: cfg.Rate,
		}, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, fmt.Errorf("loadgen: generating workload: %w", err)
		}
		cfg.Instance, cfg.Arrivals = inst, arrivals
	}
	wire, sendAt, err := replayWire(cfg, net)
	if err != nil {
		return nil, err
	}

	// Replay: a dispatcher paces the arrival schedule, workers admit.
	type result struct {
		id      int
		latency float64 // seconds
		err     error
	}
	jobs := make(chan int)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				resp, err := c.Admit(wire[i])
				results <- result{id: resp.ID, latency: time.Since(t0).Seconds(), err: err}
			}
		}()
	}
	start := time.Now()
	go func() {
		for i := range wire {
			due := start.Add(time.Duration(sendAt[i] * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	report := &LoadReport{}
	var latencies []float64
	var ids []int
	for res := range results {
		report.Requests++
		if res.err != nil {
			report.Failures++
			if report.FirstError == "" {
				report.FirstError = res.err.Error()
			}
			continue
		}
		latencies = append(latencies, res.latency)
		ids = append(ids, res.id)
	}
	report.Duration = time.Since(start)
	if report.Duration > 0 {
		report.AchievedRPS = float64(report.Requests) / report.Duration.Seconds()
	}
	if len(latencies) > 0 {
		report.LatencyP50 = time.Duration(stats.Percentile(latencies, 50) * float64(time.Second))
		report.LatencyP95 = time.Duration(stats.Percentile(latencies, 95) * float64(time.Second))
		report.LatencyP99 = time.Duration(stats.Percentile(latencies, 99) * float64(time.Second))
	}
	cfg.Logf("loadgen: admitted %d coflows in %.2fs (%.1f rps, %d failures)",
		report.Requests-report.Failures, report.Duration.Seconds(), report.AchievedRPS, report.Failures)

	if cfg.WaitComplete {
		completed, err := waitComplete(c, ids, cfg.WaitTimeout, cfg.Logf)
		report.Completed = completed
		if err != nil {
			return report, err
		}
	}
	return report, nil
}

// replayWire maps a prebuilt instance onto the daemon's topology. The
// instance's hosts are indexed in their own topology's host order and mapped
// onto the daemon's hosts modulo the daemon's host count; a pair that
// collapses onto one daemon host (possible when the daemon has fewer hosts
// than the instance) shifts its destination to the next host so the flow
// stays a network transfer.
func replayWire(cfg LoadConfig, net NetworkResponse) ([]coflow.Coflow, []float64, error) {
	inst := cfg.Instance
	if len(inst.Coflows) == 0 {
		return nil, nil, fmt.Errorf("loadgen: replay instance has no coflows")
	}
	if len(cfg.Arrivals) != len(inst.Coflows) {
		return nil, nil, fmt.Errorf("loadgen: %d arrivals for %d coflows", len(cfg.Arrivals), len(inst.Coflows))
	}
	srcHosts := inst.Network.Hosts()
	hostIndex := make(map[graph.NodeID]int, len(srcHosts))
	for i, h := range srcHosts {
		hostIndex[h] = i
	}
	n := len(net.Hosts)
	wire := make([]coflow.Coflow, len(inst.Coflows))
	sendAt := make([]float64, len(inst.Coflows))
	// Rebase the schedule on the first arrival so the replay starts sending
	// immediately even for traces whose clock starts late.
	base := cfg.Arrivals[0]
	for i, cf := range inst.Coflows {
		arrival := cfg.Arrivals[i]
		if i > 0 && arrival < cfg.Arrivals[i-1] {
			return nil, nil, fmt.Errorf("loadgen: arrivals decrease at coflow %d", i)
		}
		name := cf.Name
		if name == "" {
			name = fmt.Sprintf("replay-%d", i)
		}
		w := coflow.Coflow{Name: name, Weight: cf.Weight, Flows: make([]coflow.Flow, len(cf.Flows))}
		for j, f := range cf.Flows {
			si, ok := hostIndex[f.Source]
			di, dok := hostIndex[f.Dest]
			if !ok || !dok {
				return nil, nil, fmt.Errorf("loadgen: coflow %d flow %d endpoints are not hosts of the instance topology", i, j)
			}
			src, dst := si%n, di%n
			if src == dst {
				dst = (dst + 1) % n
			}
			release := f.Release - arrival
			if release < 0 {
				release = 0
			}
			w.Flows[j] = coflow.Flow{
				Source:  graph.NodeID(net.Hosts[src]),
				Dest:    graph.NodeID(net.Hosts[dst]),
				Size:    f.Size,
				Release: release,
			}
		}
		wire[i] = w
		sendAt[i] = (arrival - base) / cfg.SpeedUp
	}
	return wire, sendAt, nil
}

// waitComplete polls the per-coflow status endpoint until every id reports
// done or the timeout elapses. Individual poll errors are treated as
// transient — the id stays pending and is retried until the deadline, so a
// single dropped connection does not fail a replay whose coflows all
// complete — but the last one is surfaced if the deadline expires.
func waitComplete(c *Client, ids []int, timeout time.Duration, logf func(string, ...any)) (int, error) {
	deadline := time.Now().Add(timeout)
	pending := append([]int(nil), ids...)
	done := 0
	var lastErr error
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			err := fmt.Errorf("loadgen: %d of %d coflows still unfinished after %v", len(pending), len(ids), timeout)
			if lastErr != nil {
				err = fmt.Errorf("%w (last poll error: %v)", err, lastErr)
			}
			return done, err
		}
		next := pending[:0]
		for _, id := range pending {
			st, err := c.Coflow(id)
			if err != nil {
				lastErr = err
				logf("loadgen: polling coflow %d: %v (will retry)", id, err)
				next = append(next, id)
				continue
			}
			if st.Done {
				done++
			} else {
				next = append(next, id)
			}
		}
		pending = next
		if len(pending) > 0 {
			logf("loadgen: waiting for %d coflows to finish", len(pending))
			time.Sleep(50 * time.Millisecond)
		}
	}
	return done, nil
}
