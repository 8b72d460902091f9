package main

import (
	"fmt"
	"math/rand"
	"time"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/workload"
)

// arrivalStream generates n coflows of the paper's shape (workload.Generate:
// random host pairs, Poisson sizes) and their arrival times. Arrival i falls
// uniformly in the i-th slot of length 1/rate: the mean rate and the jitter
// inside an epoch are a Poisson process's, but the count in any long window
// does not fluctuate, so runs on different seeds do comparable work and their
// numbers can be held to one bound. Flows are released on arrival.
func arrivalStream(g *graph.Graph, n, width int, rate float64, seed int64) ([]coflow.Coflow, []float64, error) {
	rng := rand.New(rand.NewSource(seed))
	inst, err := workload.Generate(g, workload.Config{NumCoflows: n, Width: width, MeanSize: 4}, rng)
	if err != nil {
		return nil, nil, err
	}
	arrivals := make([]float64, n)
	for i := range inst.Coflows {
		arrivals[i] = (float64(i) + rng.Float64()) / rate
		for j := range inst.Coflows[i].Flows {
			inst.Coflows[i].Flows[j].Release = 0 // an offset from admission
		}
	}
	return inst.Coflows, arrivals, nil
}

// missRatio is the share of flows whose (source, destination) pair no earlier
// flow of the stream had: the share of admissions that cannot be served from
// the graph's k-shortest-paths memo on a fresh graph.
func missRatio(cfs []coflow.Coflow) float64 {
	seen := map[[2]graph.NodeID]bool{}
	flows := 0
	for _, cf := range cfs {
		for _, f := range cf.Flows {
			seen[[2]graph.NodeID{f.Source, f.Dest}] = true
			flows++
		}
	}
	return float64(len(seen)) / float64(flows)
}

// benchPolicy stands between the engine and the policy under test. It
// records a span around Decide, and on the LP workload it is what makes
// fallbacks visible: it asks for the strict LP, counts a failure, and then
// does what the non-strict LPEpoch does silently, decide by SEBF.
type benchPolicy struct {
	inner    online.Policy
	lp       bool
	tr       *tracer
	parent   int // the online.decide span this Decide runs under
	attempts int
	failures []string
}

func (p *benchPolicy) Name() string { return p.inner.Name() }

func (p *benchPolicy) Decide(snap *online.Snapshot) ([]coflow.FlowRef, error) {
	sp := p.tr.begin("policy.decide", p.parent, snap.Epoch)
	defer p.tr.end(sp)
	order, err := p.inner.Decide(snap)
	if !p.lp {
		return order, err
	}
	p.attempts++
	if err == nil {
		return order, nil
	}
	p.failures = append(p.failures, err.Error())
	return online.SEBFOnline{}.Decide(snap)
}

// onlineWorkload drives one in-process online.Engine over a seeded arrival
// stream until every coflow completes, one epoch at a time as coflowd's loop
// does: admit what has arrived, decide, advance. One operation is one epoch.
// The graph is built fresh every iteration, so its path memo starts cold.
func onlineWorkload(k int, lp bool) workloadFn {
	return func(it *iteration) error {
		n, width, rate := it.sz.k4Coflows, it.sz.onlineWidth, it.sz.k4Rate
		epoch := 1.0
		switch {
		case lp:
			n, width, rate = it.sz.lpCoflows, it.sz.lpWidth, it.sz.lpRate
		case k == 8:
			n, rate, epoch = it.sz.k8Coflows, it.sz.k8Rate, it.sz.k8Epoch
		}
		it.params["fat_tree_k"], it.params["coflows"], it.params["width"] = k, n, width
		it.params["rate"], it.params["epoch_length"], it.params["mean_size"] = rate, epoch, 4

		g := graph.FatTree(k, 1)
		gen := it.tr.begin("workload.generate", -1, -1)
		cfs, arrivals, err := arrivalStream(g, n, width, rate, it.seed)
		it.tr.end(gen)
		if err != nil {
			return err
		}
		var policy online.Policy = online.SEBFOnline{}
		if lp {
			policy = online.LPEpoch{Sync: true, Strict: true}
		}
		var wrapped *benchPolicy
		if lp || it.tr != nil {
			wrapped = &benchPolicy{inner: policy, lp: lp, tr: it.tr}
			policy = wrapped
		}
		it.params["policy"] = policy.Name()
		// The library's zero-value configuration, so that a slow default
		// shows here. The epoch length has no default.
		eng, err := online.NewEngine(g, policy, online.Config{EpochLength: epoch})
		if err != nil {
			return err
		}

		var reallocs, suffixSum, suffixMax, flowsSum, flowsMax int
		var churn float64
		maxEpochs := 100*n + int(arrivals[n-1]) + 1000
		next, epochs := 0, 0
		it.startWindow()
		for next < n || !eng.Done() {
			if epochs > maxEpochs {
				return fmt.Errorf("stream not finished after %d epochs", epochs)
			}
			now := eng.Now()
			t0 := time.Now()
			for next < n && arrivals[next] <= now {
				sp := it.tr.begin("online.admit", -1, epochs)
				_, err := eng.Admit(cfs[next], now)
				it.tr.end(sp)
				it.attempt(1)
				if err != nil {
					it.fail("admit %d: %v", next, err)
				}
				next++
			}
			sp := it.tr.begin("online.decide", -1, epochs)
			if wrapped != nil {
				wrapped.parent = sp
			}
			err := eng.DecideSync()
			it.tr.end(sp)
			if err != nil {
				return fmt.Errorf("epoch %d: decide: %w", epochs, err)
			}
			sp = it.tr.begin("online.advance", -1, epochs)
			err = eng.AdvanceTo(now + epoch)
			it.tr.end(sp)
			if err != nil {
				return fmt.Errorf("epoch %d: advance: %w", epochs, err)
			}
			it.op(time.Since(t0))
			epochs++
			if it.tr != nil {
				ts := eng.TakeTickStats()
				reallocs += ts.Reallocs
				suffixSum += ts.SuffixSum
				suffixMax = max(suffixMax, ts.SuffixMax)
				_, flows := eng.ActiveCounts()
				flowsSum += flows
				flowsMax = max(flowsMax, flows)
				churn += eng.OrderChurn()
			}
		}
		it.endWindow()

		st := eng.Stats()
		it.attempt(n)
		for i := st.Completed; i < n; i++ {
			it.fail("coflow not completed (%d of %d done)", st.Completed, n)
		}
		if wrapped != nil && lp {
			it.attempt(wrapped.attempts)
			for _, f := range wrapped.failures {
				it.fail("strict LP fell back to SEBF: %s", f)
			}
		}
		it.wcct, it.slowdowns, it.exact, it.serial = st.WeightedCCT, st.Slowdowns, true, true
		if it.tr == nil {
			return nil
		}

		lt := it.tr.aggregate(it.winStart, it.winEnd)
		it.dist = lt.durs
		ticks := make([]float64, len(it.opsMs))
		for i, ms := range it.opsMs {
			ticks[i] = ms / 1e3
		}
		it.dist["tick"] = ticks
		it.layer["workload.generate_s"] = it.tr.total("workload.generate").Seconds()
		it.layer["online.admit_s"] = lt.total["online.admit"].Seconds()
		it.layer["online.decide_s"] = lt.total["online.decide"].Seconds()
		it.layer["online.advance_s"] = lt.total["online.advance"].Seconds()
		it.layer["online.unattributed_s"] = (it.wall - lt.roots).Seconds()
		it.layer["graph.ksp_miss_ratio"] = missRatio(cfs)
		it.layer["online.epochs"] = float64(epochs)
		it.layer["online.active_flows_mean"] = float64(flowsSum) / float64(epochs)
		it.layer["online.active_flows_max"] = float64(flowsMax)
		it.layer["online.order_churn_mean"] = churn / float64(epochs)
		it.layer["sim.reallocs"] = float64(reallocs)
		it.layer["sim.suffix_sum"] = float64(suffixSum)
		it.layer["sim.suffix_max"] = float64(suffixMax)
		if lp {
			it.layer["policy.lp_attempts"] = float64(wrapped.attempts)
			it.layer["policy.lp_failures"] = float64(len(wrapped.failures))
		}
		return nil
	}
}

// kspProbe times graph.KShortestPathsCached directly: sampled host pairs on a
// fresh graph (every call computes), then the same pairs again (every call is
// served from the memo). It is what online.admit_s is made of on k=8.
func kspProbe(k int) probeFn {
	return func(o options, sz sizes) (map[string]metric, error) {
		g := graph.FatTree(k, 1)
		hosts := g.Hosts()
		rng := rand.New(rand.NewSource(o.seed))
		pairs := make([][2]graph.NodeID, 0, sz.kspPairs)
		seen := map[[2]graph.NodeID]bool{}
		for len(pairs) < sz.kspPairs && len(seen) < len(hosts)*(len(hosts)-1) {
			p := [2]graph.NodeID{hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]}
			if p[0] == p[1] || seen[p] {
				continue
			}
			seen[p] = true
			pairs = append(pairs, p)
		}
		pass := func() []float64 {
			us := make([]float64, len(pairs))
			for i, p := range pairs {
				t0 := time.Now()
				g.KShortestPathsCached(p[0], p[1], 4)
				us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			}
			return us
		}
		miss, hit := pass(), pass()
		return map[string]metric{
			"graph.ksp_miss_us_p50": {Value: pct(miss, 50), N: len(miss)},
			"graph.ksp_hit_us_p50":  {Value: pct(hit, 50), N: len(hit)},
		}, nil
	}
}
