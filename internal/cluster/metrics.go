package cluster

import (
	"net/http"

	"coflowsched/internal/telemetry"
)

// gateMetrics is coflowgate's registry surface. Gateway-level routing and
// health series live here under coflowgate_*; shard-internal scheduling
// metrics stay on the shards' own /metrics (labelled via coflowd -shard).
// Request counters, retry counts and the admit histogram are instrumented
// live; the roster mirrors are refreshed at scrape time (see handleMetrics).
type gateMetrics struct {
	reg *telemetry.Registry

	up              *telemetry.Gauge
	coflows         *telemetry.Counter
	backendsHealthy *telemetry.Gauge
	requests        *telemetry.Counter
	backendUp       *telemetry.GaugeVec
	clientRetries   *telemetry.CounterVec
	admitSeconds    *telemetry.Histogram
}

func newGateMetrics() *gateMetrics {
	reg := telemetry.NewRegistry()
	m := &gateMetrics{
		reg:             reg,
		up:              reg.Gauge("coflowgate_up", "1 while the gateway serves"),
		coflows:         reg.Counter("coflowgate_coflows_total", "gateway coflow ids assigned"),
		backendsHealthy: reg.Gauge("coflowgate_backends_healthy", "backends currently in the placement rotation"),
		requests:        reg.Counter("coflowgate_http_requests_total", "HTTP requests served"),
		backendUp:       reg.GaugeVec("coflowgate_backend_up", "1 while the labelled backend is healthy", "shard"),
		clientRetries:   reg.CounterVec("coflowgate_client_retries_total", "backend requests retried after a transient failure", "endpoint"),
		admitSeconds:    reg.Histogram("coflowgate_admit_seconds", "gateway admission latency (queue wait + shard round trip)", nil),
	}
	telemetry.RegisterRuntimeCollector(reg)
	m.up.Set(1)
	return m
}

// handleMetrics serves the gateway's Prometheus text exposition from the
// shared telemetry registry — the same code path coflowd uses. The gateway
// counters and the per-backend roster are mirrored at scrape time.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := g.CountersSnapshot()
	g.metrics.coflows.Set(float64(c.Coflows))
	g.metrics.backendsHealthy.Set(float64(c.Healthy))
	for _, bs := range g.Backends() {
		up := 0.0
		if bs.Healthy {
			up = 1
		}
		g.metrics.backendUp.With(bs.Name).Set(up)
	}
	g.metrics.reg.Handler().ServeHTTP(w, r)
}
