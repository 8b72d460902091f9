package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"coflowsched/internal/cluster"
	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/stats"
	"coflowsched/internal/telemetry"
)

// legacyCoflow and legacyStats are the wire types /v1/coflows/{id} and
// /v1/stats were before the endpoints served the engine's own records, filled
// the way their handlers filled them: field by field from the engine's
// structs, the completion fields only once done, no fallback count. They are
// the oracle of TestWireCompat.
type legacyCoflow struct {
	ID             int      `json:"id"`
	Name           string   `json:"name,omitempty"`
	Weight         float64  `json:"weight"`
	Arrival        float64  `json:"arrival"`
	NumFlows       int      `json:"num_flows"`
	FlowsDone      int      `json:"flows_done"`
	TotalBytes     float64  `json:"total_bytes"`
	RemainingBytes float64  `json:"remaining_bytes"`
	Done           bool     `json:"done"`
	Completion     *float64 `json:"completion,omitempty"`
	CCT            *float64 `json:"cct,omitempty"`
	Slowdown       *float64 `json:"slowdown,omitempty"`
}

func legacyCoflowOf(st online.CoflowStatus) legacyCoflow {
	resp := legacyCoflow{
		ID: st.ID, Name: st.Name, Weight: st.Weight, Arrival: st.Arrival,
		NumFlows: st.NumFlows, FlowsDone: st.FlowsDone,
		TotalBytes: st.TotalBytes, RemainingBytes: st.RemainingBytes, Done: st.Done,
	}
	if st.Done {
		completion, cct, slowdown := st.Completion, st.Response, st.Slowdown
		resp.Completion, resp.CCT, resp.Slowdown = &completion, &cct, &slowdown
	}
	return resp
}

type legacyStats struct {
	Now              float64   `json:"now"`
	Policy           string    `json:"policy"`
	EpochLength      float64   `json:"epoch_length"`
	Epochs           int       `json:"epochs"`
	Decisions        int       `json:"decisions"`
	Admitted         int       `json:"admitted"`
	Completed        int       `json:"completed"`
	Active           int       `json:"active"`
	ActiveFlows      int       `json:"active_flows"`
	WeightedCCT      float64   `json:"weighted_cct"`
	WeightedResponse float64   `json:"weighted_response"`
	SlowdownP50      float64   `json:"slowdown_p50"`
	SlowdownP95      float64   `json:"slowdown_p95"`
	SlowdownP99      float64   `json:"slowdown_p99"`
	SolveMsP50       float64   `json:"solve_ms_p50"`
	SolveMsP95       float64   `json:"solve_ms_p95"`
	SolveMsP99       float64   `json:"solve_ms_p99"`
	Shard            string    `json:"shard,omitempty"`
	Slowdowns        []float64 `json:"slowdowns,omitempty"`
	SolveLatencies   []float64 `json:"solve_latencies,omitempty"`
}

func legacyStatsOf(st online.EngineStats, policy string, epochLength float64, shard string, samples bool) legacyStats {
	pct := func(xs []float64, p float64) float64 { return stats.PercentileOr(xs, p, 0) }
	resp := legacyStats{
		Now: st.Now, Policy: policy, EpochLength: epochLength,
		Epochs: st.Epochs, Decisions: st.Decisions,
		Admitted: st.Admitted, Completed: st.Completed, Active: st.Active, ActiveFlows: st.ActiveFlows,
		WeightedCCT: st.WeightedCCT, WeightedResponse: st.WeightedResponse,
		SlowdownP50: pct(st.Slowdowns, 50), SlowdownP95: pct(st.Slowdowns, 95), SlowdownP99: pct(st.Slowdowns, 99),
		SolveMsP50: pct(st.SolveLatencies, 50) * 1e3, SolveMsP95: pct(st.SolveLatencies, 95) * 1e3,
		SolveMsP99: pct(st.SolveLatencies, 99) * 1e3,
		Shard:      shard,
	}
	if samples {
		resp.Slowdowns, resp.SolveLatencies = st.Slowdowns, st.SolveLatencies
	}
	return resp
}

// asMap is v as a JSON object decodes: what a client of the wire sees.
func asMap(t *testing.T, v any) map[string]any {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	return m
}

// getMap GETs url and decodes its 200 body as a JSON object.
func getMap(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return m
}

// sameWire fails unless got holds every key of want with want's value, and
// no other key but those in added.
func sameWire(t *testing.T, what string, got, want map[string]any, added ...string) {
	t.Helper()
	for k, v := range want {
		if gv, ok := got[k]; !ok {
			t.Errorf("%s: key %q gone (was %v)", what, k, v)
		} else if !reflect.DeepEqual(gv, v) {
			t.Errorf("%s: %q = %v, was %v", what, k, gv, v)
		}
	}
	var extra []string
	for k := range got {
		if _, ok := want[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	sort.Strings(added)
	if !slices.Equal(extra, added) {
		t.Errorf("%s: new keys %v, want %v", what, extra, added)
	}
}

// wireCoflow is coflow i of TestWireCompat's run: by i mod 3 small (done
// after the run's ticks), large (still running) or released 100 time units
// after admission (still pending).
func wireCoflow(i int) coflow.Coflow {
	hosts := graph.FatTree(4, 1).Hosts()
	size, release := 1.0, 0.0
	switch i % 3 {
	case 1:
		size = 400
	case 2:
		release = 100
	}
	return coflow.Coflow{
		Name: fmt.Sprintf("wire-%d", i), Weight: float64(1 + i%2),
		Flows: []coflow.Flow{
			{Source: hosts[i%8], Dest: hosts[8+(i+1)%8], Size: size, Release: release},
			{Source: hosts[(i+3)%16], Dest: hosts[(i+9)%16], Size: 2 * size, Release: release},
		},
	}
}

// TestWireCompat pins GET /v1/stats and GET /v1/coflows/{id} of coflowd and of
// the cluster gateway to what they served when each endpoint copied the
// engine's records into a wire type of its own: on one stepped run over two
// shards, with a done, a running and a pending coflow, every key keeps its
// value, and the fallback count is the only key added.
func TestWireCompat(t *testing.T) {
	shards := []*server.Stepped{
		server.StartStepped(t, online.SEBFOnline{}),
		server.StartStepped(t, online.SEBFOnline{}),
	}
	urls := make([]string, len(shards))
	g, err := cluster.New(cluster.Config{HealthInterval: time.Hour, Logger: telemetry.LogfLogger(t.Logf)})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(g.Close)
	for i, s := range shards {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		if err := g.AddBackend(fmt.Sprintf("shard%d", i), ts.URL); err != nil {
			t.Fatalf("add backend: %v", err)
		}
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)

	const n = 9
	gc := server.NewClient(gts.URL)
	for i := 0; i < n; i++ {
		if _, err := gc.Admit(wireCoflow(i)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	for _, at := range []float64{2, 4, 6} {
		for _, s := range shards {
			s.TickAt(t, at)
		}
	}

	// coflowd: every coflow each shard holds, by name, which is how a gateway
	// id is matched to it below.
	byName := map[string]online.CoflowStatus{}
	states := map[string]int{}
	for si, s := range shards {
		for id := 0; ; id++ {
			st, ok := s.EngineCoflow(t, id)
			if !ok {
				break
			}
			byName[st.Name] = st
			switch {
			case st.Done:
				states["done"]++
			case st.RemainingBytes < st.TotalBytes:
				states["running"]++
			default:
				states["pending"]++
			}
			sameWire(t, fmt.Sprintf("shard%d /v1/coflows/%d", si, id),
				getMap(t, fmt.Sprintf("%s/v1/coflows/%d", urls[si], id)), asMap(t, legacyCoflowOf(st)))
		}
	}
	if states["done"] == 0 || states["running"] == 0 || states["pending"] == 0 {
		t.Fatalf("coflow states %v, want a done, a running and a pending coflow", states)
	}

	// The gateway: each coflow under its gateway id, as its shard reports it.
	for gid := 0; gid < n; gid++ {
		got := getMap(t, fmt.Sprintf("%s/v1/coflows/%d", gts.URL, gid))
		st, ok := byName[got["name"].(string)]
		if !ok {
			t.Fatalf("gateway coflow %d: no shard holds %v", gid, got["name"])
		}
		want := legacyCoflowOf(st)
		want.ID = gid
		sameWire(t, fmt.Sprintf("gateway /v1/coflows/%d", gid), got, asMap(t, want))
	}

	// coflowd's stats, with and without the reservoirs.
	engines := make([]online.EngineStats, len(shards))
	for si, s := range shards {
		st, err := s.Stats()
		if err != nil {
			t.Fatalf("shard%d stats: %v", si, err)
		}
		engines[si] = st
		for _, samples := range []bool{false, true} {
			url := urls[si] + "/v1/stats"
			if samples {
				url += "?samples=1"
			}
			got := getMap(t, url)
			sameWire(t, url, got, asMap(t, legacyStatsOf(st, "SEBFOnline", 2, "", samples)), "fallbacks")
			if got["fallbacks"] != float64(st.Fallbacks) {
				t.Errorf("%s: fallbacks = %v, want the engine's %d", url, got["fallbacks"], st.Fallbacks)
			}
		}
	}
	if len(engines[0].SolveLatencies)+len(engines[1].SolveLatencies) == 0 {
		t.Fatal("no decision was timed: the percentiles compare zeros")
	}

	// The gateway's stats: the merge of the shards', beside its own counters
	// and each shard's stats with the reservoirs.
	got := getMap(t, gts.URL+"/v1/stats")
	counters := g.CountersSnapshot()
	want := asMap(t, legacyStatsOf(online.MergeEngineStats(engines...), "SEBFOnline", 2, "", false))
	want["gateway_completed"] = float64(counters.Completed)
	want["readmits"] = float64(counters.Readmits)
	gotShards, _ := got["shards"].([]any)
	delete(got, "shards")
	sameWire(t, "gateway /v1/stats", got, want, "fallbacks")
	if sum := engines[0].Fallbacks + engines[1].Fallbacks; got["fallbacks"] != float64(sum) {
		t.Errorf("gateway /v1/stats: fallbacks = %v, want the shards' %d", got["fallbacks"], sum)
	}
	if len(gotShards) != len(shards) {
		t.Fatalf("gateway /v1/stats lists %d shards, want %d", len(gotShards), len(shards))
	}
	for si, raw := range gotShards {
		sh, _ := raw.(map[string]any)
		st, _ := sh["stats"].(map[string]any)
		delete(sh, "stats")
		sameWire(t, fmt.Sprintf("gateway /v1/stats shards[%d]", si), sh,
			map[string]any{"name": fmt.Sprintf("shard%d", si), "healthy": true})
		sameWire(t, fmt.Sprintf("gateway /v1/stats shards[%d].stats", si), st,
			asMap(t, legacyStatsOf(engines[si], "SEBFOnline", 2, "", true)), "fallbacks")
	}
}
