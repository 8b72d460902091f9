package main

import (
	"fmt"
	"sync"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/server"
	"coflowsched/internal/stats"
)

// replayConcurrency is the number of concurrent admit requests. If arrivals
// outpace them the replay degrades gracefully from open-loop to closed-loop.
const replayConcurrency = 4

// waitTimeout bounds -wait's completion polling.
const waitTimeout = 60 * time.Second

// loadReport summarizes a replay: request outcome counts, achieved
// throughput, and admit-request latency percentiles, all times in seconds.
// It is the "load" object of -json.
type loadReport struct {
	Requests    int     `json:"requests"`
	Failures    int     `json:"failures"`
	AchievedRPS float64 `json:"achieved_rps"`
	// Completed counts coflows confirmed finished (only populated with -wait).
	Completed int `json:"completed,omitempty"`
	// FirstError carries the first failure's message, for diagnostics.
	FirstError string  `json:"first_error,omitempty"`
	Duration   float64 `json:"duration_seconds"`
	LatencyP50 float64 `json:"admit_latency_p50_seconds"`
	LatencyP95 float64 `json:"admit_latency_p95_seconds"`
	LatencyP99 float64 `json:"admit_latency_p99_seconds"`
}

// String renders the report for terminals.
func (r *loadReport) String() string {
	s := fmt.Sprintf("requests=%d failures=%d duration=%.2fs achieved_rps=%.1f latency p50/p95/p99 = %.2f/%.2f/%.2f ms",
		r.Requests, r.Failures, r.Duration, r.AchievedRPS,
		r.LatencyP50*1e3, r.LatencyP95*1e3, r.LatencyP99*1e3)
	if r.Completed > 0 {
		s += fmt.Sprintf(" completed=%d", r.Completed)
	}
	if r.FirstError != "" {
		s += "\nfirst error: " + r.FirstError
	}
	return s
}

// replay sends inst's coflows to the daemon behind c, whose hosts are hosts:
// endpoints are remapped onto them by host index (replayWire), arrivals from
// the first one on are compressed by speedUp into the wall-clock send
// schedule, and each flow keeps its release offset from the coflow's arrival.
// With wait it then polls until every admitted coflow is done.
func replay(c *server.Client, hosts []int, inst *coflow.Instance, arrivals []float64, speedUp float64, wait bool, logf func(string, ...any)) (*loadReport, error) {
	wire, sendAt, err := replayWire(inst, arrivals, speedUp, hosts)
	if err != nil {
		return nil, err
	}

	// A dispatcher paces the arrival schedule, workers admit.
	type result struct {
		id      int
		latency float64 // seconds
		err     error
	}
	jobs := make(chan int)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < replayConcurrency; w++ {
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

	report := &loadReport{}
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
	report.Duration = time.Since(start).Seconds()
	if report.Duration > 0 {
		report.AchievedRPS = float64(report.Requests) / report.Duration
	}
	if len(latencies) > 0 {
		report.LatencyP50 = stats.Percentile(latencies, 50)
		report.LatencyP95 = stats.Percentile(latencies, 95)
		report.LatencyP99 = stats.Percentile(latencies, 99)
	}
	logf("coflowload: admitted %d coflows in %.2fs (%.1f rps, %d failures)",
		report.Requests-report.Failures, report.Duration, report.AchievedRPS, report.Failures)

	if wait {
		report.Completed, err = waitComplete(c, ids, logf)
		if err != nil {
			return report, err
		}
	}
	return report, nil
}

// replayWire maps an instance onto the daemon's hosts. The instance's hosts
// are indexed in their own topology's host order and mapped onto the
// daemon's hosts modulo the daemon's host count; a pair that collapses onto
// one daemon host (possible when the daemon has fewer hosts than the
// instance) shifts its destination to the next host so the flow stays a
// network transfer. sendAt[i] is coflow i's send offset in wall-clock
// seconds.
func replayWire(inst *coflow.Instance, arrivals []float64, speedUp float64, hosts []int) (wire []coflow.Coflow, sendAt []float64, err error) {
	if len(inst.Coflows) == 0 {
		return nil, nil, fmt.Errorf("replay instance has no coflows")
	}
	if len(arrivals) != len(inst.Coflows) {
		return nil, nil, fmt.Errorf("%d arrivals for %d coflows", len(arrivals), len(inst.Coflows))
	}
	srcHosts := inst.Network.Hosts()
	hostIndex := make(map[graph.NodeID]int, len(srcHosts))
	for i, h := range srcHosts {
		hostIndex[h] = i
	}
	n := len(hosts)
	wire = make([]coflow.Coflow, len(inst.Coflows))
	sendAt = make([]float64, len(inst.Coflows))
	// Rebase the schedule on the first arrival so the replay starts sending
	// immediately even for traces whose clock starts late.
	base := arrivals[0]
	for i, cf := range inst.Coflows {
		arrival := arrivals[i]
		if i > 0 && arrival < arrivals[i-1] {
			return nil, nil, fmt.Errorf("arrivals decrease at coflow %d", i)
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
				return nil, nil, fmt.Errorf("coflow %d flow %d endpoints are not hosts of the instance topology", i, j)
			}
			src, dst := si%n, di%n
			if src == dst {
				dst = (dst + 1) % n
			}
			w.Flows[j] = coflow.Flow{
				Source:  graph.NodeID(hosts[src]),
				Dest:    graph.NodeID(hosts[dst]),
				Size:    f.Size,
				Release: max(f.Release-arrival, 0),
			}
		}
		wire[i] = w
		sendAt[i] = (arrival - base) / speedUp
	}
	return wire, sendAt, nil
}

// waitComplete polls the per-coflow status endpoint until every id reports
// done or waitTimeout elapses. Individual poll errors are treated as
// transient — the id stays pending and is retried until the deadline, so a
// single dropped connection does not fail a replay whose coflows all
// complete — but the last one is surfaced if the deadline expires.
func waitComplete(c *server.Client, ids []int, logf func(string, ...any)) (int, error) {
	deadline := time.Now().Add(waitTimeout)
	pending := append([]int(nil), ids...)
	done := 0
	var lastErr error
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			err := fmt.Errorf("%d of %d coflows still unfinished after %v", len(pending), len(ids), waitTimeout)
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
				logf("coflowload: polling coflow %d: %v (will retry)", id, err)
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
			logf("coflowload: waiting for %d coflows to finish", len(pending))
			time.Sleep(50 * time.Millisecond)
		}
	}
	return done, nil
}
