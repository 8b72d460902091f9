// Command coflowsim runs a single scheduler on a single coflow instance and
// prints the resulting total weighted completion time (and, for the LP-based
// schedulers, the certified lower bound).
//
// The instance is either generated randomly (-topology/-coflows/-width/...)
// or read from a JSON file produced by coflowgen (-instance file.json).
//
// Examples:
//
//	coflowsim -scheduler lp -topology fattree -fatk 4 -coflows 5 -width 4
//	coflowsim -scheduler all -instance workload.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/experiments"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coflowsim:", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and streams (smoke-testable without
// exec'ing a binary).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schedulerName = fs.String("scheduler", "lp", "scheduler: lp, lp-exact, lp-given, route-only, schedule-only, sebf, fair, baseline, all")
		instancePath  = fs.String("instance", "", "JSON instance file (from coflowgen); omit to generate randomly")
		topology      = fs.String("topology", "fattree", "topology for generated instances: fattree, star, ring, line, grid, triangle")
		fatK          = fs.Int("fatk", 4, "fat-tree arity")
		nodes         = fs.Int("nodes", 8, "node count for star/ring/line topologies")
		coflows       = fs.Int("coflows", 5, "number of coflows")
		width         = fs.Int("width", 4, "flows per coflow")
		meanSize      = fs.Float64("size", 4, "mean flow size")
		meanRelease   = fs.Float64("release", 2, "mean release time")
		meanWeight    = fs.Float64("weight", 1, "mean coflow weight")
		seed          = fs.Int64("seed", 1, "random seed")
		candidates    = fs.Int("paths", 4, "candidate paths per flow for the LP schedulers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	inst, err := loadOrGenerate(*instancePath, *topology, *fatK, *nodes, *coflows, *width, *meanSize, *meanRelease, *meanWeight, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "instance: %s, %d coflows, %d flows, total size %.0f\n",
		inst.Network, len(inst.Coflows), inst.NumFlows(), inst.TotalSize())

	schedulers := map[string]experiments.Scheduler{
		"lp":            core.CircuitFreePaths{Opts: core.Options{CandidatePaths: *candidates}},
		"lp-exact":      core.CircuitFreePathsExact{},
		"route-only":    baselines.RouteOnly{},
		"schedule-only": baselines.ScheduleOnly{},
		"sebf":          baselines.SEBF{},
		"fair":          baselines.FairSharing{},
		"baseline":      baselines.Baseline{},
	}

	runOne := func(name string, s experiments.Scheduler) error {
		rng := rand.New(rand.NewSource(*seed + 1))
		cs, err := s.Schedule(inst, rng)
		if err != nil {
			return err
		}
		if err := cs.Validate(inst); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-15s total weighted completion time = %.2f (makespan %.2f)\n",
			s.Name(), cs.Objective(inst), cs.Makespan())
		return nil
	}

	switch *schedulerName {
	case "all":
		order := []string{"lp", "route-only", "schedule-only", "sebf", "fair", "baseline"}
		for _, name := range order {
			if err := runOne(name, schedulers[name]); err != nil {
				return err
			}
		}
	case "lp-given":
		if err := inst.AssignShortestPaths(); err != nil {
			return err
		}
		res, err := (core.CircuitGivenPaths{}).ScheduleASAP(inst)
		if err != nil {
			return err
		}
		if err := res.Schedule.Validate(inst); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-15s total weighted completion time = %.2f (LP lower bound %.2f, ratio %.2f)\n",
			"LP (given paths)", res.Objective(inst), core.CombinedLowerBound(inst, res), res.ApproximationRatio(inst))
	case "lp":
		// Run via the rich API so the lower bound can be reported.
		res, err := (core.CircuitFreePaths{Opts: core.Options{CandidatePaths: *candidates}}).ScheduleASAP(inst, rand.New(rand.NewSource(*seed+1)))
		if err != nil {
			return err
		}
		if err := res.Schedule.Validate(inst); err != nil {
			return err
		}
		lb := core.CombinedLowerBound(inst, res)
		fmt.Fprintf(stdout, "%-15s total weighted completion time = %.2f (certified lower bound %.2f, ratio %.2f)\n",
			"LP-Based", res.Objective(inst), lb, res.Objective(inst)/lb)
	default:
		s, ok := schedulers[*schedulerName]
		if !ok {
			return fmt.Errorf("unknown scheduler %q", *schedulerName)
		}
		return runOne(*schedulerName, s)
	}
	return nil
}

func loadOrGenerate(path, topology string, fatK, nodes, coflows, width int, meanSize, meanRelease, meanWeight float64, seed int64) (*coflow.Instance, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return coflow.ReadJSON(f)
	}
	var g *graph.Graph
	switch topology {
	case "fattree":
		g = graph.FatTree(fatK, 1)
	case "star":
		g = graph.Star(nodes, 1)
	case "ring":
		g = graph.Ring(nodes, 1)
	case "line":
		g = graph.Line(nodes, 1)
	case "grid":
		g = graph.Grid(nodes, nodes, 1)
	case "triangle":
		g = graph.Triangle()
	default:
		return nil, fmt.Errorf("unknown topology %q", topology)
	}
	rng := rand.New(rand.NewSource(seed))
	return workload.Generate(g, workload.Config{
		NumCoflows: coflows, Width: width,
		MeanSize: meanSize, MeanRelease: meanRelease, MeanWeight: meanWeight,
	}, rng)
}
