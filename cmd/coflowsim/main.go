// Command coflowsim runs a single scheduler on a coflow instance read from a
// JSON file written by coflowgen, and prints the resulting total weighted
// completion time (and, for the LP-based schedulers, the certified lower
// bound).
//
// Examples:
//
//	coflowgen -coflows 5 -width 4 | coflowsim -scheduler lp -instance /dev/stdin
//	coflowsim -scheduler all -instance workload.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"coflowsched/internal/baselines"
	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/experiments"
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
		instancePath  = fs.String("instance", "", "JSON instance file written by coflowgen (/dev/stdin to read a pipe)")
		seed          = fs.Int64("seed", 1, "random seed of the randomized schedulers")
		candidates    = fs.Int("paths", 4, "candidate paths per flow for the LP schedulers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instancePath == "" {
		return errors.New("-instance is required; coflowgen writes one (coflowgen ... | coflowsim -instance /dev/stdin)")
	}
	f, err := os.Open(*instancePath)
	if err != nil {
		return err
	}
	defer f.Close()
	inst, err := coflow.ReadJSON(f)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "instance: %s, %d coflows, %d flows, total size %.0f\n",
		inst.Network, len(inst.Coflows), inst.NumFlows(), inst.TotalSize())

	schedulers := map[string]experiments.Scheduler{
		"lp-exact":      core.CircuitFreePathsExact{},
		"route-only":    baselines.RouteOnly{},
		"schedule-only": baselines.ScheduleOnly{},
		"sebf":          baselines.SEBF{},
		"fair":          baselines.FairSharing{},
		"baseline":      baselines.Baseline{},
	}

	runOne := func(s experiments.Scheduler) error {
		cs, err := s.Schedule(inst, rand.New(rand.NewSource(*seed)))
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

	// runLP runs the paper's free-path algorithm through the rich API so
	// that the certified lower bound is reported.
	runLP := func() error {
		res, err := (core.CircuitFreePaths{Opts: core.Options{CandidatePaths: *candidates}}).ScheduleASAP(inst, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		if err := res.Schedule.Validate(inst); err != nil {
			return err
		}
		lb := core.CombinedLowerBound(inst, res)
		fmt.Fprintf(stdout, "%-15s total weighted completion time = %.2f (certified lower bound %.2f, ratio %.2f)\n",
			"LP-Based", res.Objective(inst), lb, res.Objective(inst)/lb)
		return nil
	}

	switch *schedulerName {
	case "all":
		if err := runLP(); err != nil {
			return err
		}
		for _, name := range []string{"route-only", "schedule-only", "sebf", "fair", "baseline"} {
			if err := runOne(schedulers[name]); err != nil {
				return err
			}
		}
	case "lp":
		return runLP()
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
	default:
		s, ok := schedulers[*schedulerName]
		if !ok {
			return fmt.Errorf("unknown scheduler %q", *schedulerName)
		}
		return runOne(s)
	}
	return nil
}
