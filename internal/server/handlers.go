package server

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/telemetry"
)

// Wire types. POST /v1/coflows takes a coflow.Coflow JSON object directly
// (the same shape coflow instances serialize with), with per-flow "release"
// fields interpreted as offsets from the admission time; everything below is
// a response.

// AdmitResponse acknowledges POST /v1/coflows.
type AdmitResponse struct {
	ID int `json:"id"`
	// Name echoes the submitted coflow name.
	Name string `json:"name,omitempty"`
	// Arrival is the simulated admission time assigned by the server.
	Arrival float64 `json:"arrival"`
	// Trace is the coflow's lifecycle trace id: the X-Coflow-Trace request
	// header when the caller (a gateway) sent one, otherwise minted here.
	// Spans under this id appear at /debug/traces.
	Trace string `json:"trace,omitempty"`
	// Durable is set when the daemon runs with a write-ahead log, so the
	// coflow survives a crash of the daemon. A gateway learns it here before
	// it binds the coflow to this shard.
	Durable bool `json:"durable,omitempty"`
}

// CoflowResponse is GET /v1/coflows/{id}: the engine's own per-coflow record,
// live status with the CCT once done.
type CoflowResponse = online.CoflowStatus

// ScheduleEntry identifies one flow in the priority order.
type ScheduleEntry struct {
	Coflow int `json:"coflow"`
	Flow   int `json:"flow"`
}

// ScheduleResponse is GET /v1/schedule: the applied priority order over
// residual flows, highest priority first.
type ScheduleResponse struct {
	Now    float64         `json:"now"`
	Policy string          `json:"policy"`
	Order  []ScheduleEntry `json:"order"`
}

// StatsResponse is GET /v1/stats: the engine's counters and objectives as the
// engine reports them, beside what the engine does not know (the policy, the
// epoch length, the shard) and the summary percentiles of its reservoirs. The
// raw reservoirs behind the percentiles (Slowdowns, and SolveLatencies in
// seconds) are sent only when the request asks for them (GET
// /v1/stats?samples=1): they are what a cluster gateway needs to merge
// percentile tails across shards, which summary percentiles alone cannot do.
type StatsResponse struct {
	online.EngineStats
	Policy      string  `json:"policy"`
	EpochLength float64 `json:"epoch_length"`
	// Shard echoes the daemon's cluster identity (empty standalone).
	Shard       string  `json:"shard,omitempty"`
	SlowdownP50 float64 `json:"slowdown_p50"`
	SlowdownP95 float64 `json:"slowdown_p95"`
	SlowdownP99 float64 `json:"slowdown_p99"`
	SolveMsP50  float64 `json:"solve_ms_p50"`
	SolveMsP95  float64 `json:"solve_ms_p95"`
	SolveMsP99  float64 `json:"solve_ms_p99"`
}

// NewStatsResponse is the one place a StatsResponse is built: coflowd's
// /v1/stats from its engine, the gateway's from the merge of its shards', and
// the end-of-run report of both (LogFinalStats). The reservoirs stay in the
// response only with samples.
func NewStatsResponse(st online.EngineStats, policy string, epochLength float64, shard string, samples bool) StatsResponse {
	resp := StatsResponse{
		EngineStats: st,
		Policy:      policy,
		EpochLength: epochLength,
		Shard:       shard,
		SlowdownP50: pct(st.Slowdowns, 50),
		SlowdownP95: pct(st.Slowdowns, 95),
		SlowdownP99: pct(st.Slowdowns, 99),
		SolveMsP50:  pct(st.SolveLatencies, 50) * 1e3,
		SolveMsP95:  pct(st.SolveLatencies, 95) * 1e3,
		SolveMsP99:  pct(st.SolveLatencies, 99) * 1e3,
	}
	if !samples {
		resp.Slowdowns, resp.SolveLatencies = nil, nil
	}
	return resp
}

// LogFinalStats logs the end-of-run summary a daemon prints after its drain,
// prefixed with the daemon's name: the engine's counts, its objectives, and
// the slowdown and solve-latency percentiles. coflowd logs its engine's,
// coflowgate -local the merge of its shards'.
func LogFinalStats(daemon string, st online.EngineStats) {
	r := NewStatsResponse(st, "", 0, "", false)
	log.Printf("%s: final: admitted=%d completed=%d epochs=%d decisions=%d fallbacks=%d",
		daemon, r.Admitted, r.Completed, r.Epochs, r.Decisions, r.Fallbacks)
	log.Printf("%s: final: weighted_cct=%.2f weighted_response=%.2f", daemon, r.WeightedCCT, r.WeightedResponse)
	log.Printf("%s: final: slowdown p50/p95/p99 = %.2f/%.2f/%.2f", daemon, r.SlowdownP50, r.SlowdownP95, r.SlowdownP99)
	log.Printf("%s: final: solve latency p50/p95/p99 = %.3f/%.3f/%.3f ms", daemon, r.SolveMsP50, r.SolveMsP95, r.SolveMsP99)
}

// HealthResponse is GET /healthz.
type HealthResponse struct {
	Status   string  `json:"status"`
	Policy   string  `json:"policy"`
	Now      float64 `json:"now"`
	Admitted int     `json:"admitted"`
	// Durable reports that the daemon runs with a write-ahead log and
	// recovers its coflows after a crash.
	Durable bool `json:"durable"`
}

// KeysResponse is GET /v1/keys: the gateway admissions this daemon holds,
// from which a restarted gateway rebuilds its routing table. High is the
// largest gateway id the daemon ever admitted (-1 for none), kept past its
// key's eviction; Keys lists every GatewayKey still held, in admission order.
type KeysResponse struct {
	Durable bool       `json:"durable"`
	High    int        `json:"high"`
	Keys    []KeyEntry `json:"keys"`
}

// KeyEntry is one held gateway key: the admission it made and whether that
// coflow has completed. Spec, the coflow as admitted (releases as offsets),
// comes only from a daemon without a WAL and only while the coflow is in
// flight; a durable daemon recovers its coflows itself.
type KeyEntry struct {
	Key   string         `json:"key"`
	Admit AdmitResponse  `json:"admit"`
	Done  bool           `json:"done,omitempty"`
	Spec  *coflow.Coflow `json:"spec,omitempty"`
}

// NetworkResponse is GET /v1/network: what a load generator needs to build
// valid coflows — the topology's host node ids.
type NetworkResponse struct {
	Nodes int   `json:"nodes"`
	Edges int   `json:"edges"`
	Hosts []int `json:"hosts"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API with request accounting applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/coflows", s.handleAdmit)
	mux.HandleFunc("GET /v1/coflows/{id}", s.handleCoflow)
	mux.HandleFunc("GET /v1/schedule", s.handleSchedule)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/network", s.handleNetwork)
	mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	mux.HandleFunc("GET /v1/keys", s.handleKeys)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/traces", s.tracer.Handler())
	RegisterPprof(mux)
	return s.countRequests(mux)
}

// RegisterPprof mounts the net/http/pprof profiling endpoints on a non-default
// mux. Shared with the cluster gateway so both daemons profile identically.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// MaxBodyBytes bounds POST bodies; the largest legitimate coflows are a few
// thousand flows, well under this. Shared with the cluster gateway so the
// daemon and the front door enforce the same admission cap.
const MaxBodyBytes = 8 << 20

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var cf coflow.Coflow
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cf); err != nil {
		RespondError(w, http.StatusBadRequest, "decoding coflow: "+err.Error())
		return
	}
	// The gateway propagates its trace id in the header; a standalone daemon
	// mints one so single-shard deployments still get lifecycle traces.
	trace := r.Header.Get(telemetry.TraceHeader)
	if trace == "" {
		trace = telemetry.NewTraceID()
	}
	// An idempotency key makes the admission exactly-once across retries: a
	// repeated key replays the original response instead of admitting again,
	// and with a WAL the key survives a daemon restart.
	key := r.Header.Get(IdemHeader)
	req := &admitReq{cf: cf, key: key, trace: trace, enq: time.Now()}
	// The scheduler admits and appends (see admit.go); the durability wait
	// happens here, so a slow disk stalls this request, not the epoch loop, and
	// concurrent handlers share one fsync. A client that has gone before the
	// scheduler takes the admission is not admitted (503); one that was taken
	// always completes. A duplicate replays only after its original's record
	// is durable.
	err := s.do(r.Context(), func() { s.admit(req) })
	if err == nil {
		s.commit(req)
	}
	resp, dup := req.resp, req.dup
	admitErr, walErr := req.admitErr, req.walErr
	if err == nil && admitErr == nil && walErr == nil && !dup {
		s.tracer.Record(telemetry.Span{
			Name:     "shard-admit",
			Trace:    trace,
			Coflow:   resp.ID,
			Duration: time.Since(req.enq).Seconds(),
			Attrs:    map[string]string{"flows": strconv.Itoa(len(cf.Flows))},
		})
		s.recordStageSpans(req)
		s.logger.Debug("coflow admitted", "component", "coflowd",
			"coflow", resp.ID, "name", cf.Name, "flows", len(cf.Flows), "trace", trace)
	}
	if key != "" {
		w.Header().Set(IdemHeader, key)
	}
	switch {
	case err != nil:
		RespondError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(admitErr, errDraining):
		RespondError(w, http.StatusServiceUnavailable, admitErr.Error())
	case admitErr != nil:
		RespondError(w, http.StatusBadRequest, admitErr.Error())
	case walErr != nil:
		// The coflow may be admitted in memory but is not durable; the sticky
		// log error keeps the daemon read-only, so a retry cannot double-admit.
		RespondError(w, http.StatusServiceUnavailable, "durability failure: "+walErr.Error())
	default:
		resp.Durable = s.wal != nil
		RespondJSON(w, http.StatusCreated, resp)
	}
}

func (s *Server) handleCoflow(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		RespondError(w, http.StatusBadRequest, "invalid coflow id")
		return
	}
	var st online.CoflowStatus
	var found bool
	if err := s.do(r.Context(), func() { st, found = s.eng.CoflowStatus(id) }); err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if !found {
		RespondError(w, http.StatusNotFound, "unknown coflow id")
		return
	}
	RespondJSON(w, http.StatusOK, st)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var resp ScheduleResponse
	if err := s.do(r.Context(), func() {
		resp.Now = s.eng.Now()
		resp.Policy = s.cfg.Policy.Name()
		for _, ref := range s.eng.Order() {
			resp.Order = append(resp.Order, ScheduleEntry{Coflow: ref.Coflow, Flow: ref.Index})
		}
	}); err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if resp.Order == nil {
		resp.Order = []ScheduleEntry{}
	}
	RespondJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	RespondJSON(w, http.StatusOK, NewStatsResponse(st, s.cfg.Policy.Name(), s.cfg.EpochLength, s.cfg.Shard,
		r.URL.Query().Get("samples") != ""))
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	g := s.cfg.Network
	resp := NetworkResponse{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for _, h := range g.Hosts() {
		resp.Hosts = append(resp.Hosts, int(h))
	}
	RespondJSON(w, http.StatusOK, resp)
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	resp := KeysResponse{Durable: s.wal != nil, Keys: []KeyEntry{}}
	if err := s.do(r.Context(), func() {
		resp.High = s.high
		for key, e := range s.idem {
			if _, ok := GatewayKeyID(key); ok {
				st, _ := s.eng.CoflowStatus(e.resp.ID)
				resp.Keys = append(resp.Keys, KeyEntry{Key: key, Admit: e.resp, Done: st.Done, Spec: e.spec})
			}
		}
	}); err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	sort.Slice(resp.Keys, func(i, j int) bool { return resp.Keys[i].Admit.ID < resp.Keys[j].Admit.ID })
	RespondJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var resp HealthResponse
	if err := s.do(r.Context(), func() {
		resp = HealthResponse{
			Status:   "ok",
			Policy:   s.cfg.Policy.Name(),
			Now:      s.eng.Now(),
			Admitted: s.eng.NumCoflows(),
			Durable:  s.wal != nil,
		}
	}); err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	RespondJSON(w, http.StatusOK, resp)
}

// pct keeps NaN out of JSON: encoding/json cannot marshal it.
func pct(xs []float64, p float64) float64 { return stats.PercentileOr(xs, p, 0) }

// RespondJSON writes one JSON response. Exported for the cluster gateway,
// which mirrors this daemon's wire behavior and must not drift from it.
func RespondJSON(w http.ResponseWriter, code int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(payload)
}

// RespondError writes the JSON error envelope every non-2xx response uses
// (the shape decodeResponse and the gateway parse back out).
func RespondError(w http.ResponseWriter, code int, msg string) {
	RespondJSON(w, code, errorResponse{Error: msg})
}
