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
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/telemetry"
)

// Client is a small typed client for the coflowd HTTP API, shared by
// cmd/coflowload, the cluster gateway and the benchmark's admit workloads.
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

// Network fetches the topology summary, whose hosts coflowload maps its
// workload onto (the gateway answers it with a healthy shard's).
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
