package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"coflowsched/internal/cluster"
	"coflowsched/internal/durable"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/server"
	"coflowsched/internal/stats"
	"coflowsched/internal/telemetry"
	"coflowsched/internal/workload"
)

// admitClients is the number of closed-loop submitters: a coflow's submitter
// waits for the id before it goes on, so each client sends its next coflow
// only when the previous one is acknowledged.
func admitClients() int { return min(runtime.NumCPU(), 4) }

// stages are the shard's admit-pipeline stages as coflowd labels them, and
// the per-layer metric each one's mean is reported as.
var stages = []struct{ label, metric string }{
	{"coalesce-wait", "server.coalesce_wait_ms"},
	{"batch-assembly", "server.batch_assembly_ms"},
	{"engine-admit", "server.engine_admit_ms"},
	{"wal-append", "server.wal_append_ms"},
	{"group-commit", "server.group_commit_ms"},
}

// admitWorkload admits a seeded set of width-3 coflows over HTTP, closed
// loop, into a durable daemon whose fabric ticks while they arrive, then
// drains it: into one coflowd, or through the gateway into two. One
// operation is one admission as its client sees it. The window runs from the
// first send to drained; ops_per_s counts the admission phase alone.
func admitWorkload(clustered bool) workloadFn {
	return func(it *iteration) error {
		n := it.sz.shardAdmits
		if clustered {
			n = it.sz.clusterAdmits
		}
		clients := admitClients()
		it.params["fat_tree_k"], it.params["coflows"], it.params["width"], it.params["mean_size"] = 4, n, 3, 4
		it.params["clients"], it.params["loop"] = clients, "closed"
		it.params["epoch_length"], it.params["time_scale"] = it.sz.epochLength, it.sz.timeScale
		it.params["policy"], it.params["wal"] = online.SEBFOnline{}.Name(), true

		g := graph.FatTree(4, 1)
		gen := it.tr.begin("workload.generate", -1, -1)
		inst, err := workload.Generate(g, workload.Config{NumCoflows: n, Width: 3, MeanSize: 4},
			rand.New(rand.NewSource(subSeed(it.seed, it.round))))
		if err != nil {
			return err
		}
		cfs := inst.Coflows
		for i := range cfs {
			for j := range cfs[i].Flows {
				cfs[i].Flows[j].Release = 0 // an offset from admission
			}
		}
		it.tr.end(gen)

		// The daemons at their library defaults (Partitions 0, gateway batch
		// hold 5ms) apart from what a deployment must set: the fabric's clock
		// and where the logs go.
		var (
			url      string
			drain    func() (online.EngineStats, error)
			scrapes  []string // the shards' /metrics
			gateway  *cluster.Gateway
			teardown func()
		)
		if clustered {
			it.params["shards"], it.params["placement"] = 2, "consistent-hash"
			l, err := cluster.NewLocal(cluster.LocalConfig{Shards: 2, FatK: 4,
				EpochLength: it.sz.epochLength, TimeScale: it.sz.timeScale, WALDir: it.walDir})
			if err != nil {
				return err
			}
			url, drain, gateway, teardown = l.URL(), l.DrainAll, l.Gateway, l.Close
			for i := 0; i < l.NumShards(); i++ {
				scrapes = append(scrapes, l.ShardURL(i)+"/metrics")
			}
		} else {
			srv, err := server.New(server.Config{Network: g, Policy: online.SEBFOnline{},
				EpochLength: it.sz.epochLength, TimeScale: it.sz.timeScale, WALDir: it.walDir})
			if err != nil {
				return err
			}
			ts := httptest.NewServer(timedAdmits(it.tr, srv.Handler()))
			url, drain = ts.URL, srv.Drain
			scrapes = []string{ts.URL + "/metrics"}
			teardown = func() { ts.Close(); srv.Close() }
		}
		defer teardown()

		lat := make([]time.Duration, n)
		errs := make([]error, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		it.startWindow()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := server.NewClient(url)
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					t0 := time.Now()
					sp := it.tr.begin("client.admit", -1, i)
					if it.tr != nil {
						_, errs[i] = client.AdmitTraced(cfs[i], fmt.Sprintf(benchTrace, sp, i))
					} else {
						_, errs[i] = client.Admit(cfs[i])
					}
					it.tr.end(sp)
					lat[i] = time.Since(t0)
				}
			}()
		}
		wg.Wait()
		it.opWindow = time.Since(it.winStart)
		sp := it.tr.begin("server.drain", -1, -1)
		st, drainErr := drain()
		it.tr.end(sp)
		it.endWindow()

		admitted := 0
		it.attempt(n)
		for i, err := range errs {
			if err != nil {
				it.fail("admit %d: %v", i, err)
				continue
			}
			admitted++
			it.op(lat[i])
		}
		if drainErr != nil {
			return fmt.Errorf("drain: %w", drainErr)
		}
		it.attempt(admitted)
		for i := st.Completed; i < admitted; i++ {
			it.fail("coflow not completed after drain (%d of %d done)", st.Completed, admitted)
		}
		// Simulated time follows the wall clock here, so a completion time read
		// against the daemon's start would mostly measure how long the clients
		// took to get to the coflow. Each coflow's clock starts at its own
		// admission instead (Σ w·(C − a)); measured, not exact.
		it.wcct, it.slowdowns = st.WeightedResponse, st.Slowdowns
		if it.tr == nil {
			return nil
		}

		lt := it.tr.aggregate(it.winStart, it.winEnd)
		it.dist = lt.durs
		clientMs := stats.Mean(it.opsMs)
		it.layer["workload.generate_s"] = it.tr.total("workload.generate").Seconds()
		it.layer["server.drain_s"] = lt.total["server.drain"].Seconds()
		var shard telemetry.Metrics
		for _, u := range scrapes {
			m, err := scrape(u)
			if err != nil {
				return err
			}
			shard.Samples = append(shard.Samples, m.Samples...)
		}
		stageSum := 0.0
		for _, s := range stages {
			ms := 1e3 * stats.Ratio(sum(&shard, "coflowd_admit_stage_seconds_sum", "stage", s.label),
				sum(&shard, "coflowd_admit_stage_seconds_count", "stage", s.label))
			it.layer[s.metric] = ms
			stageSum += ms
		}
		it.layer["server.admits_per_batch"] = stats.Ratio(sum(&shard, "coflowd_admit_batch_size_sum"), sum(&shard, "coflowd_admit_batch_size_count"))
		it.layer["server.ticks"] = sum(&shard, "coflowd_tick_duration_seconds_count")
		it.layer["server.tick_ms_mean"] = 1e3 * stats.Ratio(sum(&shard, "coflowd_tick_duration_seconds_sum"), it.layer["server.ticks"])
		it.layer["durable.records"] = sum(&shard, "coflowd_wal_records_total")
		it.layer["durable.fsyncs"] = sum(&shard, "coflowd_wal_fsyncs_total")
		it.layer["durable.records_per_fsync"] = stats.Ratio(it.layer["durable.records"], it.layer["durable.fsyncs"])
		if !clustered {
			handlerMs := 1e3 * stats.Mean(lt.durs["server.http_admit"])
			it.layer["server.http_admit_ms"] = handlerMs
			it.layer["client.http_ms"] = clientMs - handlerMs
			it.layer["server.unattributed_ms"] = handlerMs - stageSum
			return nil
		}
		gw, err := scrape(url + "/metrics")
		if err != nil {
			return err
		}
		gateMs := 1e3 * stats.Ratio(sum(gw, "coflowgate_admit_seconds_sum"), sum(gw, "coflowgate_admit_seconds_count"))
		var hold, rtt []float64
		for _, s := range gateway.Tracer().Snapshot() {
			switch s.Name {
			case "batch-flush":
				hold = append(hold, s.Duration)
			case "placement":
				rtt = append(rtt, s.Duration)
			}
		}
		it.layer["cluster.admit_ms_mean"] = gateMs
		it.layer["client.http_ms"] = clientMs - gateMs
		it.layer["cluster.wal_records"] = sum(gw, "coflowgate_wal_records_total")
		it.layer["cluster.wal_fsyncs"] = sum(gw, "coflowgate_wal_fsyncs_total")
		it.layer["cluster.records_per_fsync"] = stats.Ratio(it.layer["cluster.wal_records"], it.layer["cluster.wal_fsyncs"])
		it.layer["cluster.self_ms"] = gateMs - stageSum
		it.layer["cluster.hold_ms"] = 1e3 * stats.Mean(hold)
		it.layer["cluster.shard_rtt_ms"] = 1e3 * stats.Mean(rtt)
		it.layer["cluster.unattributed_ms"] = gateMs - 1e3*(stats.Mean(hold)+stats.Mean(rtt))
		return nil
	}
}

// benchTrace is the lifecycle trace id a traced admission carries: the
// client span's id and the operation, so that the span recorded at the
// daemon's front door names the client span that caused it.
const benchTrace = "bench-%d-%d"

// timedAdmits records a span around the daemon's whole admit handler. With a
// nil tracer it is the handler itself.
func timedAdmits(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent, op int
		if _, err := fmt.Sscanf(r.Header.Get(telemetry.TraceHeader), benchTrace, &parent, &op); err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("server.http_admit", parent, op)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

func scrape(url string) (*telemetry.Metrics, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return telemetry.ParseMetrics(string(body))
}

// sum adds every sample of the name whose labels match the key/value pairs:
// over the shards when the page set holds several.
func sum(m *telemetry.Metrics, name string, kv ...string) float64 {
	total := 0.0
outer:
	for _, s := range m.Samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		total += s.Value
	}
	return total
}

// walProbe times the log directly: serial Append+Commit pairs on a
// durable.Log in the directory the daemons log to, each pair one fsync. It is
// the floor under server.group_commit_ms, and it is the number that differs
// between a tmpfs and a disk.
func walProbe(o options, sz sizes) (map[string]metric, error) {
	dir := filepath.Join(o.walDir, "probe")
	log, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return nil, err
	}
	us := make([]float64, 0, sz.walAppends)
	for i := 0; i < sz.walAppends && err == nil; i++ {
		t0 := time.Now()
		var seq uint64
		seq, err = log.Append(&durable.Record{Type: durable.RecAdvance, Advance: &durable.AdvanceRecord{Now: float64(i)}})
		if err == nil {
			err = log.Commit(seq)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return map[string]metric{"durable.append_commit_us_p50": {Value: pct(us, 50), N: len(us)}}, err
}
