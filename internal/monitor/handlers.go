package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler mounts the monitor's HTTP API:
//
//	GET /v1/targets  last scrape outcome per target
//	GET /v1/query    range queries over stored series (raw / last / rate /
//	                 quantile views)
//	GET /v1/slo      rule states, burn rates and written bundles
//	GET /healthz     liveness
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/targets", m.handleTargets)
	mux.HandleFunc("GET /v1/query", m.handleQuery)
	mux.HandleFunc("GET /v1/slo", m.handleSLO)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		respondJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func respondJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func respondError(w http.ResponseWriter, code int, format string, args ...any) {
	respondJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (m *Monitor) handleTargets(w http.ResponseWriter, r *http.Request) {
	respondJSON(w, http.StatusOK, map[string]any{"targets": m.TargetStatuses()})
}

func (m *Monitor) handleSLO(w http.ResponseWriter, r *http.Request) {
	respondJSON(w, http.StatusOK, map[string]any{
		"rules":   m.RuleStatuses(),
		"bundles": m.Bundles(),
	})
}

// queryResponse is the /v1/query payload: the resolved series for raw views,
// or a single derived value for last/rate/quantile views.
type queryResponse struct {
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	View   string            `json:"view"`
	Series []SeriesData      `json:"series,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	OK     bool              `json:"ok"`
}

// handleQuery serves range queries. Parameters:
//
//	metric   series name (required; family name for view=quantile)
//	l.<k>=v  label equality constraints, repeatable
//	since    how far back to look (Go duration, default 5m)
//	view     raw (default) | last | rate | quantile
//	q        quantile in (0,1) for view=quantile (default 0.99)
func (m *Monitor) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		respondError(w, http.StatusBadRequest, "metric parameter required")
		return
	}
	since := 5 * time.Minute
	if raw := q.Get("since"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			respondError(w, http.StatusBadRequest, "bad since %q", raw)
			return
		}
		since = d
	}
	labels := map[string]string{}
	for key, vals := range q {
		if strings.HasPrefix(key, "l.") && len(vals) > 0 {
			labels[strings.TrimPrefix(key, "l.")] = vals[0]
		}
	}
	sel := Selector{Name: metric, Labels: labels}
	now := time.Now()
	resp := queryResponse{Metric: metric, Labels: labels, View: q.Get("view")}
	if resp.View == "" {
		resp.View = "raw"
	}
	switch resp.View {
	case "raw":
		resp.Series = m.store.Query(sel, now.Add(-since), now)
		resp.OK = len(resp.Series) > 0
	case "last":
		v, ok := m.store.LastValue(sel, now, since, "max")
		resp.OK = ok
		if ok {
			resp.Value = &v
		}
	case "rate":
		v, ok := m.store.CounterRate(sel, now, since)
		resp.OK = ok
		if ok {
			resp.Value = &v
		}
	case "quantile":
		quant := 0.99
		if raw := q.Get("q"); raw != "" {
			p, err := strconv.ParseFloat(raw, 64)
			if err != nil || p <= 0 || p >= 1 {
				respondError(w, http.StatusBadRequest, "bad quantile %q", raw)
				return
			}
			quant = p
		}
		v, ok := m.store.HistogramQuantile(sel, quant, now, since)
		resp.OK = ok
		if ok {
			resp.Value = &v
		}
	default:
		respondError(w, http.StatusBadRequest, "unknown view %q", resp.View)
		return
	}
	respondJSON(w, http.StatusOK, resp)
}
