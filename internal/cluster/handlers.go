package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/server"
	"coflowsched/internal/stats"
	"coflowsched/internal/telemetry"
)

// The gateway serves coflowd's admission, status, stats and network API, so
// every existing client — coflowload, the typed server.Client, the
// closed-loop tests — can point at a cluster without changes. Responses reuse
// the server package's wire types; gateway-only endpoints (/v1/backends) and
// fields are additive.

// gateHealthResponse is GET /healthz: the server.HealthResponse shape plus
// cluster fields.
type gateHealthResponse struct {
	Status   string  `json:"status"`
	Policy   string  `json:"policy"`
	Now      float64 `json:"now"`
	Admitted int     `json:"admitted"`
	Backends int     `json:"backends"`
	Healthy  int     `json:"healthy_backends"`
}

// gateStatsResponse is GET /v1/stats: the merged server.StatsResponse plus
// the per-shard detail.
type gateStatsResponse struct {
	server.StatsResponse
	GatewayCompleted int         `json:"gateway_completed"`
	Readmits         int         `json:"readmits"`
	Shards           []ShardStat `json:"shards"`
}

// Handler returns the gateway's HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/coflows", g.handleAdmit)
	mux.HandleFunc("GET /v1/coflows/{id}", g.handleCoflow)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/network", g.handleNetwork)
	mux.HandleFunc("GET /v1/backends", g.handleBackends)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.Handle("GET /debug/traces", g.tracer.Handler())
	server.RegisterPprof(mux)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		g.metrics.requests.Inc()
	})
}

func (g *Gateway) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var cf coflow.Coflow
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cf); err != nil {
		server.RespondError(w, http.StatusBadRequest, "decoding coflow: "+err.Error())
		return
	}
	resp, err := g.AdmitTraced(cf, r.Header.Get(telemetry.TraceHeader))
	switch {
	case err == nil:
		// The gateway coflow id names the shard's dedupe key (gw-<id>) and is
		// echoed the way coflowd echoes its keys; the gateway reads none.
		w.Header().Set(server.IdemHeader, strconv.Itoa(resp.ID))
		server.RespondJSON(w, http.StatusCreated, resp)
	case errors.Is(err, errClosed), errors.Is(err, errNoBackend):
		server.RespondError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errNoFlows):
		server.RespondError(w, http.StatusBadRequest, err.Error())
	default:
		var apiErr *server.APIError
		if errors.As(err, &apiErr) && terminalStatus(apiErr.StatusCode) {
			// The shard's validation verdict passes through as our own.
			server.RespondError(w, apiErr.StatusCode, apiErr.Message)
			return
		}
		server.RespondError(w, http.StatusBadGateway, err.Error())
	}
}

func (g *Gateway) handleCoflow(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.RespondError(w, http.StatusBadRequest, "invalid coflow id")
		return
	}
	st, found, err := g.Status(id)
	switch {
	case errors.Is(err, errGone):
		server.RespondError(w, http.StatusGone, err.Error())
	case !found:
		server.RespondError(w, http.StatusNotFound, "unknown coflow id")
	case err != nil:
		server.RespondError(w, http.StatusBadGateway, "shard unreachable: "+err.Error())
	default:
		server.RespondJSON(w, http.StatusOK, st)
	}
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	merged, shards := g.MergedStats()
	counters := g.CountersSnapshot()
	policy, epochLength := shardConfig(shards)
	pct := func(xs []float64, p float64) float64 { return stats.PercentileOr(xs, p, 0) }
	resp := gateStatsResponse{
		StatsResponse: server.StatsResponse{
			Now:              merged.Now,
			Policy:           policy,
			EpochLength:      epochLength,
			Epochs:           merged.Epochs,
			Decisions:        merged.Decisions,
			Admitted:         merged.Admitted,
			Completed:        merged.Completed,
			Active:           merged.Active,
			ActiveFlows:      merged.ActiveFlows,
			WeightedCCT:      merged.WeightedCCT,
			WeightedResponse: merged.WeightedResponse,
			SlowdownP50:      pct(merged.Slowdowns, 50),
			SlowdownP95:      pct(merged.Slowdowns, 95),
			SlowdownP99:      pct(merged.Slowdowns, 99),
			SolveMsP50:       pct(merged.SolveLatencies, 50) * 1e3,
			SolveMsP95:       pct(merged.SolveLatencies, 95) * 1e3,
			SolveMsP99:       pct(merged.SolveLatencies, 99) * 1e3,
		},
		GatewayCompleted: counters.Completed,
		Readmits:         counters.Readmits,
		Shards:           shards,
	}
	server.RespondJSON(w, http.StatusOK, resp)
}

// shardConfig reports the shards' policy and epoch length (they are
// homogeneous by construction; the first reporting shard's answer wins).
func shardConfig(shards []ShardStat) (policy string, epochLength float64) {
	for _, s := range shards {
		if s.Stats != nil {
			return s.Stats.Policy, s.Stats.EpochLength
		}
	}
	return "", 0
}

func (g *Gateway) handleNetwork(w http.ResponseWriter, r *http.Request) {
	net, err := g.Network()
	if err != nil {
		code := http.StatusBadGateway
		if errors.Is(err, errNoBackend) {
			code = http.StatusServiceUnavailable
		}
		server.RespondError(w, code, err.Error())
		return
	}
	server.RespondJSON(w, http.StatusOK, net)
}

func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	server.RespondJSON(w, http.StatusOK, g.Backends())
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	c := g.CountersSnapshot()
	resp := gateHealthResponse{
		Status:   "ok",
		Policy:   "gateway(hash)",
		Now:      time.Since(g.start).Seconds(),
		Admitted: c.Coflows,
		Backends: c.Backends,
		Healthy:  c.Healthy,
	}
	if c.Healthy == 0 {
		resp.Status = "degraded"
		server.RespondJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	server.RespondJSON(w, http.StatusOK, resp)
}
