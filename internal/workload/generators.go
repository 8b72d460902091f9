package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// This file adds the structured workload shapes the uniform Poisson
// generator (Generate/GenerateArrivals) cannot express: heavy-tailed flow
// sizes, skewed fan-in/fan-out communication patterns, incast bursts and
// time-varying arrival rates. Production coflow traces are dominated by
// exactly these shapes (Varys/Aalo report >50% of bytes in <5% of coflows),
// so scheduling results on uniform workloads alone overstate how easy the
// problem is.
//
// Every generator returns (instance, arrivals, error) with arrivals
// index-aligned to the instance's coflows and non-decreasing, the contract
// the scenario catalog and the online engine rely on. The generators' shapes
// are the scenarios' own: each catalog entry is their only caller, so every
// parameter but fan-in against fan-out is a constant, and each runs on its
// scenario's topology (16 or 12 hosts, more than any fan degree needs).

// heavy-tail: ten 3-flow coflows at rate 1 whose per-coflow size follows a
// bounded Pareto with shape heavyTailAlpha on [heavyTailMin, heavyTailMax].
// Alpha in (1, 2) gives finite mean but infinite variance, the regime
// datacenter flow sizes are usually fitted to. Alpha is typed so that
// 1/heavyTailAlpha is the float64 quotient the draws were pinned with, not the
// exact 1/1.3 rounded once.
const (
	heavyTailCoflows         = 10
	heavyTailWidth           = 3
	heavyTailRate            = 1
	heavyTailAlpha   float64 = 1.3
	heavyTailMin             = 1.0
	heavyTailMax             = 100.0
)

// paretoSize draws from the bounded Pareto of the heavy-tail scenario by
// inverse transform sampling: u uniform in [0,1) maps to
// xm / (1 - u*(1-(xm/xmax)^alpha))^(1/alpha).
func paretoSize(rng *rand.Rand) float64 {
	u := rng.Float64()
	ratio := math.Pow(heavyTailMin/heavyTailMax, heavyTailAlpha)
	x := heavyTailMin / math.Pow(1-u*(1-ratio), 1/heavyTailAlpha)
	if x > heavyTailMax {
		x = heavyTailMax // guard float roundoff at u -> 1
	}
	return x
}

// generateHeavyTail builds a Poisson arrival stream of coflows with bounded
// Pareto flow sizes: most coflows are small, a few are elephants that
// dominate total bytes. All flows of a coflow share one size draw, matching
// the per-coflow (not per-flow) skew of the Facebook trace.
func generateHeavyTail(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
	hosts := g.Hosts()
	inst := &coflow.Instance{Network: g}
	arrivals := make([]float64, heavyTailCoflows)
	t := 0.0
	for i := 0; i < heavyTailCoflows; i++ {
		t += rng.ExpFloat64() / heavyTailRate
		arrivals[i] = t
		size := paretoSize(rng)
		cf := coflow.Coflow{Name: fmt.Sprintf("heavytail-%d", i), Weight: 1}
		for j := 0; j < heavyTailWidth; j++ {
			src, dst := distinctHosts(hosts, rng)
			cf.Flows = append(cf.Flows, coflow.Flow{Source: src, Dest: dst, Size: size, Release: t})
		}
		inst.Coflows = append(inst.Coflows, cf)
	}
	if err := inst.Validate(false); err != nil {
		return nil, nil, fmt.Errorf("workload: generated invalid heavy-tail instance: %w", err)
	}
	return inst, arrivals, nil
}

// fan-in and fan-out: eight coflows at rate 1, each skewDegree flows of
// Poisson(skewMeanSize)+1 between one pivot host and distinct peers.
const (
	skewCoflows  = 8
	skewDegree   = 5
	skewRate     = 1
	skewMeanSize = 3
)

// generateSkewed builds a Poisson arrival stream of fan-in (shuffle
// aggregation: peers send into the pivot) or, with fanOut, fan-out
// (broadcast: the pivot sends to the peers) coflows. Each coflow picks a
// random pivot host, whose access link is the structural bottleneck — the
// situation where coflow-aware ordering matters most.
func generateSkewed(g *graph.Graph, fanOut bool, rng *rand.Rand) (*coflow.Instance, []float64, error) {
	hosts := g.Hosts()
	inst := &coflow.Instance{Network: g}
	arrivals := make([]float64, skewCoflows)
	t := 0.0
	for i := 0; i < skewCoflows; i++ {
		t += rng.ExpFloat64() / skewRate
		arrivals[i] = t
		pivot := hosts[rng.Intn(len(hosts))]
		peers := samplePeers(hosts, pivot, skewDegree, rng)
		name := fmt.Sprintf("fanin-%d", i)
		if fanOut {
			name = fmt.Sprintf("fanout-%d", i)
		}
		cf := coflow.Coflow{Name: name, Weight: 1}
		for _, p := range peers {
			size := float64(Poisson(rng, skewMeanSize) + 1)
			f := coflow.Flow{Source: p, Dest: pivot, Size: size, Release: t}
			if fanOut {
				f.Source, f.Dest = pivot, p
			}
			cf.Flows = append(cf.Flows, f)
		}
		inst.Coflows = append(inst.Coflows, cf)
	}
	if err := inst.Validate(false); err != nil {
		return nil, nil, fmt.Errorf("workload: generated invalid skewed instance: %w", err)
	}
	return inst, arrivals, nil
}

// incast: incastBursts waves of incastBurstSize coflows, incastGap apart,
// each coflow arriving within incastJitter of its wave's start with
// incastFanIn senders of Poisson(incastMeanSize)+1:
// incast is many small transfers, not elephants.
const (
	incastBursts    = 3
	incastBurstSize = 4
	incastFanIn     = 6
	incastGap       = 10.0
	incastJitter    = incastGap / 10
	incastMeanSize  = 2
)

// generateIncast builds the incast waves. All coflows of a wave aggregate
// into the same destination host (a fresh random victim per wave),
// overloading its access link — the partition/aggregate incast pattern of web
// serving and distributed storage.
func generateIncast(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
	hosts := g.Hosts()
	inst := &coflow.Instance{Network: g}
	var arrivals []float64
	for b := 0; b < incastBursts; b++ {
		waveStart := float64(b) * incastGap
		victim := hosts[rng.Intn(len(hosts))]
		// Draw the wave's arrival offsets and sort so arrivals stay
		// non-decreasing across the whole instance.
		offsets := make([]float64, incastBurstSize)
		for i := range offsets {
			offsets[i] = rng.Float64() * incastJitter
		}
		sort.Float64s(offsets)
		for i, off := range offsets {
			t := waveStart + off
			senders := samplePeers(hosts, victim, incastFanIn, rng)
			cf := coflow.Coflow{Name: fmt.Sprintf("incast-%d-%d", b, i), Weight: 1}
			for _, s := range senders {
				size := float64(Poisson(rng, incastMeanSize) + 1)
				cf.Flows = append(cf.Flows, coflow.Flow{Source: s, Dest: victim, Size: size, Release: t})
			}
			inst.Coflows = append(inst.Coflows, cf)
			arrivals = append(arrivals, t)
		}
	}
	if err := inst.Validate(false); err != nil {
		return nil, nil, fmt.Errorf("workload: generated invalid incast instance: %w", err)
	}
	return inst, arrivals, nil
}

// diurnal: twelve 3-flow coflows of Poisson(diurnalMeanSize)+1 per flow,
// arriving at a rate that swings sinusoidally between diurnalBaseRate and
// diurnalPeakRate with period diurnalPeriod — the compressed day/night cycle
// every production cluster sees.
const (
	diurnalCoflows  = 12
	diurnalWidth    = 3
	diurnalBaseRate = 0.25
	diurnalPeakRate = 4
	diurnalPeriod   = 12
	diurnalMeanSize = 4
)

// diurnalRate is the diurnal arrival rate at simulated time t.
func diurnalRate(t float64) float64 {
	phase := (1 + math.Sin(2*math.Pi*t/diurnalPeriod)) / 2
	return diurnalBaseRate + (diurnalPeakRate-diurnalBaseRate)*phase
}

// generateDiurnal builds a non-homogeneous Poisson arrival stream by Lewis-
// Shedler thinning: candidate arrivals are drawn at the peak rate and kept
// with probability diurnalRate(t)/diurnalPeakRate.
func generateDiurnal(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
	hosts := g.Hosts()
	inst := &coflow.Instance{Network: g}
	arrivals := make([]float64, diurnalCoflows)
	t := 0.0
	for i := 0; i < diurnalCoflows; i++ {
		for { // thinning: propose at the peak rate, accept at rate(t)/peak
			t += rng.ExpFloat64() / diurnalPeakRate
			if rng.Float64()*diurnalPeakRate <= diurnalRate(t) {
				break
			}
		}
		arrivals[i] = t
		cf := coflow.Coflow{Name: fmt.Sprintf("diurnal-%d", i), Weight: 1}
		for j := 0; j < diurnalWidth; j++ {
			src, dst := distinctHosts(hosts, rng)
			size := float64(Poisson(rng, diurnalMeanSize) + 1)
			cf.Flows = append(cf.Flows, coflow.Flow{Source: src, Dest: dst, Size: size, Release: t})
		}
		inst.Coflows = append(inst.Coflows, cf)
	}
	if err := inst.Validate(false); err != nil {
		return nil, nil, fmt.Errorf("workload: generated invalid diurnal instance: %w", err)
	}
	return inst, arrivals, nil
}

// distinctHosts draws a uniform random (source, destination) pair of
// distinct hosts.
func distinctHosts(hosts []graph.NodeID, rng *rand.Rand) (graph.NodeID, graph.NodeID) {
	src := hosts[rng.Intn(len(hosts))]
	dst := hosts[rng.Intn(len(hosts))]
	for dst == src {
		dst = hosts[rng.Intn(len(hosts))]
	}
	return src, dst
}

// samplePeers draws n distinct hosts excluding the pivot, uniformly without
// replacement. n must be at most len(hosts)-1.
func samplePeers(hosts []graph.NodeID, pivot graph.NodeID, n int, rng *rand.Rand) []graph.NodeID {
	pool := make([]graph.NodeID, 0, len(hosts)-1)
	for _, h := range hosts {
		if h != pivot {
			pool = append(pool, h)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}
