package server

import (
	"net/http"

	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// Admit-pipeline stage labels of coflowd_admit_stage_seconds, in pipeline
// order. Every child is created at registration so the family (and each
// stage) is present on the very first scrape, observations or not.
const (
	stageCoalesceWait = "coalesce-wait" // handler submit → scheduler pickup
	stageEngineAdmit  = "engine-admit"  // engine.Admit, per admission
	stageWALAppend    = "wal-append"    // log record append, per admission
	stageGroupCommit  = "group-commit"  // log Commit wait in the handler, per durable admission
)

// AdmitStages lists the stage labels above in pipeline order, for readers
// that report the breakdown stage by stage.
var AdmitStages = []string{stageCoalesceWait, stageEngineAdmit, stageWALAppend, stageGroupCommit}

// serverMetrics is coflowd's registry surface: every series /metrics serves.
// Request counters and the tick histogram are instrumented live; the engine
// gauges are refreshed at scrape time from one scheduler round trip (see
// handleMetrics). Metric names are part of the scrape contract — the
// conformance test in internal/telemetry pins them.
type serverMetrics struct {
	reg *telemetry.Registry

	up               *telemetry.Gauge
	simNow           *telemetry.Gauge
	epochs           *telemetry.Counter
	decisions        *telemetry.Counter
	solverFallbacks  *telemetry.Counter
	admitted         *telemetry.Counter
	completed        *telemetry.Counter
	coflowsActive    *telemetry.Gauge
	flowsActive      *telemetry.Gauge
	weightedCCT      *telemetry.Gauge
	weightedResponse *telemetry.Gauge
	requests         *telemetry.Counter
	requestErrors    *telemetry.Counter
	tickDuration     *telemetry.Histogram
	traceSpans       *telemetry.Counter
	walRecords       *telemetry.Counter
	walFsyncs        *telemetry.Counter
	walRecovered     *telemetry.Gauge
	snapshots        *telemetry.Counter

	// Admit-pipeline stage latencies. The stage* fields cache the labeled
	// children so the hot path observes without a map lookup.
	admitStage  *telemetry.HistogramVec
	stageWait   *telemetry.Histogram
	stageEngine *telemetry.Histogram
	stageAppend *telemetry.Histogram
	stageCommit *telemetry.Histogram
}

// newServerMetrics registers coflowd's metric families. A non-empty shard
// identity becomes a constant {shard="..."} label on every series, so a
// gateway scraping N backends can tell their time series apart.
func newServerMetrics(shard string) *serverMetrics {
	var consts []telemetry.Label
	if shard != "" {
		consts = append(consts, telemetry.Label{Name: "shard", Value: shard})
	}
	reg := telemetry.NewRegistry(consts...)
	m := &serverMetrics{
		reg:              reg,
		up:               reg.Gauge("coflowd_up", "1 while the daemon serves"),
		simNow:           reg.Gauge("coflowd_sim_now", "engine clock in simulated time units"),
		epochs:           reg.Counter("coflowd_epochs_total", "engine advances (epoch ticks)"),
		decisions:        reg.Counter("coflowd_decisions_total", "applied policy decisions"),
		admitted:         reg.Counter("coflowd_coflows_admitted_total", "coflows admitted"),
		completed:        reg.Counter("coflowd_coflows_completed_total", "coflows completed"),
		coflowsActive:    reg.Gauge("coflowd_coflows_active", "admitted, unfinished coflows"),
		flowsActive:      reg.Gauge("coflowd_flows_active", "admitted, unfinished flows"),
		weightedCCT:      reg.Gauge("coflowd_weighted_cct", "sum of weight * completion time over completed coflows"),
		weightedResponse: reg.Gauge("coflowd_weighted_response", "sum of weight * response time over completed coflows"),
		requests:         reg.Counter("coflowd_http_requests_total", "HTTP requests served"),
		requestErrors:    reg.Counter("coflowd_http_request_errors_total", "HTTP requests answered with a 4xx/5xx status"),
		tickDuration:     reg.Histogram("coflowd_tick_duration_seconds", "scheduler tick duration distribution", nil),
		traceSpans:       reg.Counter("coflowd_trace_spans_total", "lifecycle trace spans recorded"),
		walRecords:       reg.Counter("coflowd_wal_records_total", "write-ahead log records appended this process"),
		walFsyncs:        reg.Counter("coflowd_wal_fsyncs_total", "write-ahead log fsync calls (group commit batches)"),
		walRecovered:     reg.Gauge("coflowd_wal_recovered_coflows", "admitted-but-incomplete coflows restored at boot"),
		snapshots:        reg.Counter("coflowd_snapshots_total", "engine snapshots written"),
		admitStage:       reg.HistogramVec("coflowd_admit_stage_seconds", "admit-pipeline stage latency: coalesce-wait (handler submit → scheduler pickup), engine-admit, wal-append, group-commit (per durable admission, in the handler)", nil, "stage"),
	}
	// The one reason today: a policy decided by its fallback on a solver
	// error. Created at registration, so the series reads 0 until one happens.
	m.solverFallbacks = reg.CounterVec("coflowd_policy_fallback_total",
		"policy decisions settled as a fallback order, by reason", "reason").With("solver")
	m.stageWait = m.admitStage.With(stageCoalesceWait)
	m.stageEngine = m.admitStage.With(stageEngineAdmit)
	m.stageAppend = m.admitStage.With(stageWALAppend)
	m.stageCommit = m.admitStage.With(stageGroupCommit)
	telemetry.RegisterRuntimeCollector(reg)
	m.up.Set(1)
	return m
}

// updateFromEngine refreshes the scrape-time mirrors of the engine's
// aggregate state.
func (m *serverMetrics) updateFromEngine(st online.EngineStats) {
	m.simNow.Set(st.Now)
	m.epochs.Set(float64(st.Epochs))
	m.decisions.Set(float64(st.Decisions))
	m.solverFallbacks.Set(float64(st.Fallbacks))
	m.admitted.Set(float64(st.Admitted))
	m.completed.Set(float64(st.Completed))
	m.coflowsActive.Set(float64(st.Active))
	m.flowsActive.Set(float64(st.ActiveFlows))
	m.weightedCCT.Set(st.WeightedCCT)
	m.weightedResponse.Set(st.WeightedResponse)
}

// statusRecorder captures the response code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// countRequests wraps the mux with request/error accounting for /metrics.
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.metrics.requests.Inc()
		if rec.code >= 400 {
			s.metrics.requestErrors.Inc()
		}
	})
}

// handleMetrics serves the Prometheus text exposition from the shared
// telemetry registry: engine gauges are refreshed from one scheduler round
// trip, then the registry renders every family (HELP/TYPE headers, shard
// labels, histogram buckets) through the one code path coflowgate uses too.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.metrics.updateFromEngine(st)
	spans, _ := s.tracer.Totals()
	s.metrics.traceSpans.Set(float64(spans))
	if s.wal != nil {
		appends, syncs := s.wal.Stats()
		s.metrics.walRecords.Set(float64(appends))
		s.metrics.walFsyncs.Set(float64(syncs))
	}
	s.metrics.reg.Handler().ServeHTTP(w, r)
}
