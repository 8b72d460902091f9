// Command coflowonline streams a Poisson coflow arrival process through the
// online epoch scheduler (internal/online) and reports weighted completion
// time, slowdown percentiles and per-epoch solve latency per policy.
//
// Examples:
//
//	coflowonline -policy lp -arrival-rate 2.0
//	coflowonline -policy all -arrival-rate 4 -coflows 20 -epoch 1.5
//	coflowonline -policy sebf -csv            # machine-readable output
//
// With -csv the command emits one header row plus one row per policy; with
// -quiet it emits one compact summary line per policy. Both modes exist so
// CI and scripts can consume results without parsing text tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"coflowsched/internal/baselines"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/stats"
	"coflowsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coflowonline:", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and streams (smoke-testable without
// exec'ing a binary).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowonline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policyName  = fs.String("policy", "lp", "policy: lp, lp-sync, sebf, fifo, oracle, all")
		arrivalRate = fs.Float64("arrival-rate", 2.0, "mean coflow arrivals per time unit (Poisson process)")
		epochLen    = fs.Float64("epoch", 2.0, "epoch length (time between policy re-decisions)")
		fatK        = fs.Int("fatk", 4, "fat-tree arity")
		coflows     = fs.Int("coflows", 10, "number of coflows to stream")
		width       = fs.Int("width", 3, "flows per coflow")
		meanSize    = fs.Float64("size", 4, "mean flow size")
		meanWeight  = fs.Float64("weight", 1, "mean coflow weight")
		seed        = fs.Int64("seed", 1, "random seed")
		quiet       = fs.Bool("quiet", false, "one summary line per policy (no banner, no tables)")
		csv         = fs.Bool("csv", false, "CSV output (header + one row per policy)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := graph.FatTree(*fatK, 1)
	rng := rand.New(rand.NewSource(*seed))
	inst, arrivals, err := workload.GenerateArrivals(g, workload.ArrivalConfig{
		Config: workload.Config{
			NumCoflows: *coflows,
			Width:      *width,
			MeanSize:   *meanSize,
			MeanWeight: *meanWeight,
		},
		Rate: *arrivalRate,
	}, rng)
	if err != nil {
		return err
	}

	if !*quiet && !*csv {
		fmt.Fprintf(stdout, "instance: %s, %d coflows x %d flows, arrival rate %.2f (last arrival %.2f), epoch %.2f\n",
			g, len(inst.Coflows), *width, *arrivalRate, arrivals[len(arrivals)-1], *epochLen)
	}

	policies := map[string]online.Policy{
		"lp":      online.LPEpoch{},
		"lp-sync": online.LPEpoch{Sync: true},
		"sebf":    online.SEBFOnline{},
		"fifo":    online.FIFOOnline{},
		"oracle":  online.NewOracle(core.CircuitFreePaths{Opts: core.Options{CandidatePaths: 4}}),
	}

	var names []string
	if *policyName == "all" {
		names = []string{"oracle", "lp", "sebf", "fifo"}
	} else {
		if _, ok := policies[*policyName]; !ok {
			return fmt.Errorf("unknown policy %q (want lp, lp-sync, sebf, fifo, oracle, all)", *policyName)
		}
		names = []string{*policyName}
	}
	// The oracle's full-instance LP is slow; fall back to offline SEBF as
	// the hindsight reference for larger streams.
	if *coflows > 12 {
		policies["oracle"] = online.NewOracle(baselines.SEBF{})
	}

	if *csv {
		fmt.Fprintln(stdout, "policy,arrival_rate,epochs,weighted_cct,weighted_response,makespan,"+
			"slowdown_p50,slowdown_p95,slowdown_p99,solve_ms_p50,solve_ms_p95,solve_ms_p99")
	}
	for _, name := range names {
		res, err := online.Run(inst, policies[name], online.Config{EpochLength: *epochLen, Seed: *seed})
		if err != nil {
			return err
		}
		if err := res.Schedule.Validate(inst); err != nil {
			return err
		}
		report(stdout, res, *arrivalRate, *quiet, *csv)
	}
	return nil
}

func report(w io.Writer, res *online.Result, rate float64, quiet, csv bool) {
	solveMs := res.SolveLatencies()
	for i := range solveMs {
		solveMs[i] *= 1e3
	}
	// stats.Percentile is NaN on empty input; report 0 so CSV consumers see
	// a number.
	pct := func(xs []float64, p float64) float64 { return stats.PercentileOr(xs, p, 0) }
	sp50, sp95, sp99 := pct(res.Slowdown, 50), pct(res.Slowdown, 95), pct(res.Slowdown, 99)
	lp50, lp95, lp99 := pct(solveMs, 50), pct(solveMs, 95), pct(solveMs, 99)

	switch {
	case csv:
		fmt.Fprintf(w, "%s,%g,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			res.Policy, rate, len(res.Epochs), res.WeightedCCT, res.WeightedResponse, res.Makespan,
			sp50, sp95, sp99, lp50, lp95, lp99)
	case quiet:
		fmt.Fprintf(w, "%s rate=%g cct=%.2f response=%.2f makespan=%.2f slowdown_p95=%.2f solve_p95_ms=%.3f\n",
			res.Policy, rate, res.WeightedCCT, res.WeightedResponse, res.Makespan, sp95, lp95)
	default:
		fmt.Fprintf(w, "%-22s weighted CCT = %10.2f  weighted response = %10.2f  makespan = %8.2f\n",
			res.Policy, res.WeightedCCT, res.WeightedResponse, res.Makespan)
		fmt.Fprintf(w, "%-22s epochs = %d  slowdown p50/p95/p99 = %.2f/%.2f/%.2f\n",
			"", len(res.Epochs), sp50, sp95, sp99)
		if len(solveMs) > 0 {
			fmt.Fprintf(w, "%-22s epoch solve latency p50/p95/p99 = %.3f/%.3f/%.3f ms\n",
				"", lp50, lp95, lp99)
		}
		fmt.Fprintln(w, strings.Repeat("-", 86))
	}
}
