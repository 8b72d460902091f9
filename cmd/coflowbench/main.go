// Command coflowbench regenerates the paper's tables and figures.
//
// Usage:
//
//	coflowbench -experiment all            # Figure 1, Table 1, Figures 3-4, ablations, online, scenarios
//	coflowbench -experiment fig3 -trials 5 # just Figure 3, 5 trials per point
//	coflowbench -experiment fig3 -paper    # the paper's 128-server configuration (slow)
//	coflowbench -experiment fig3 -cpuprofile fig3.prof  # profile an experiment for regression diagnosis
//	coflowbench -scenario all              # every registered workload scenario x online policy
//	coflowbench -scenario heavy-tail -json # one scenario, machine-readable
//
// Output is plain text: one absolute-value table and one ratio-to-baseline
// table per figure (the two panels of the paper's Figures 3 and 4), plus the
// average-improvement summary the paper quotes in §4.3. With -json, each
// experiment instead emits one machine-readable JSON object (one per line
// under -experiment all) carrying the experiment name, its configuration and
// the full result (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"coflowsched/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coflowbench:", err)
		os.Exit(1)
	}
}

// profileFlusher collects the finalizers for active pprof outputs. They run
// on every exit path from run — a truncated CPU profile is useless in exactly
// the failure-diagnosis scenario the flags exist for.
type profileFlusher struct {
	fns  []func()
	once sync.Once
}

func (p *profileFlusher) finish() {
	p.once.Do(func() {
		for _, f := range p.fns {
			f()
		}
	})
}

// run is main with injectable arguments and streams (smoke-testable without
// exec'ing a binary).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "which experiment to run: fig1, table1, fig3, fig4, ablation, online, scenarios, all")
		scenario   = fs.String("scenario", "", "run the scenario sweep for one registered scenario (or \"all\"); overrides -experiment")
		paper      = fs.Bool("paper", false, "use the paper's full-scale configuration (128-server fat-tree, slow)")
		trials     = fs.Int("trials", 0, "trials per data point (override)")
		coflows    = fs.Int("coflows", 0, "number of coflows for the width sweep (override)")
		widths     = fs.String("widths", "", "comma-separated coflow widths for fig3 (override)")
		counts     = fs.String("counts", "", "comma-separated coflow counts for fig4 (override)")
		csv        = fs.Bool("csv", false, "emit CSV instead of text tables for fig3/fig4")
		jsonOut    = fs.Bool("json", false, "emit one JSON result object per experiment")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile (pprof) covering the selected experiments to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (pprof) taken after the selected experiments to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	profiles := &profileFlusher{}
	defer profiles.finish()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		profiles.fns = append(profiles.fns, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "coflowbench: cpuprofile:", err)
			}
		})
	}
	if *memprofile != "" {
		path := *memprofile
		profiles.fns = append(profiles.fns, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, "coflowbench: memprofile:", err)
				return
			}
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "coflowbench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "coflowbench: memprofile:", err)
			}
		})
	}

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *coflows > 0 {
		cfg.NumCoflows = *coflows
	}
	if *widths != "" {
		ws, err := parseInts(*widths)
		if err != nil {
			return fmt.Errorf("-widths: %w", err)
		}
		cfg.Widths = ws
	}
	if *counts != "" {
		cs, err := parseInts(*counts)
		if err != nil {
			return fmt.Errorf("-counts: %w", err)
		}
		cfg.CoflowCounts = cs
	}

	emitJSON := func(name string, config, result any) error {
		enc := json.NewEncoder(stdout)
		return enc.Encode(map[string]any{
			"experiment": name,
			"config":     config,
			"result":     result,
		})
	}

	runScenarios := func(names []string) error {
		scfg := experiments.ScenarioConfig{Scenarios: names}
		res, err := experiments.ScenarioSweep(scfg)
		if err != nil {
			return err
		}
		switch {
		case *jsonOut:
			return emitJSON("scenarios", scfg, res.Results)
		case *csv:
			fmt.Fprint(stdout, res.Absolute.CSV())
			fmt.Fprint(stdout, res.Ratio.CSV())
		default:
			fmt.Fprintln(stdout, res)
		}
		return nil
	}

	if *scenario != "" {
		if *scenario == "all" {
			return runScenarios(nil)
		}
		return runScenarios([]string{*scenario})
	}

	runOne := func(name string) error {
		switch name {
		case "fig1":
			res, err := experiments.Figure1()
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(name, nil, res)
			}
			fmt.Fprintln(stdout, res)
		case "table1":
			tcfg := experiments.DefaultTable1Config()
			res, err := experiments.Table1(tcfg)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(name, tcfg, res)
			}
			fmt.Fprintln(stdout, "Table 1: approximation guarantees and measured ratios (ALG / certified lower bound)")
			fmt.Fprintln(stdout, res)
		case "fig3":
			res, err := experiments.Figure3(cfg)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(name, cfg, res)
			}
			printFigure(stdout, res, *csv)
		case "fig4":
			res, err := experiments.Figure4(cfg)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(name, cfg, res)
			}
			printFigure(stdout, res, *csv)
		case "ablation":
			acfg := experiments.DefaultAblationConfig()
			res, err := experiments.Ablation(acfg)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitJSON(name, acfg, res)
			}
			fmt.Fprintln(stdout, res)
		case "online":
			ocfg := experiments.DefaultOnlineConfig()
			if *paper {
				ocfg = experiments.PaperOnlineConfig()
			}
			if *trials > 0 {
				ocfg.Trials = *trials
			}
			if *coflows > 0 {
				ocfg.NumCoflows = *coflows
			}
			res, err := experiments.OnlineSweep(ocfg)
			if err != nil {
				return err
			}
			switch {
			case *jsonOut:
				return emitJSON(name, ocfg, res)
			case *csv:
				fmt.Fprint(stdout, res.Absolute.CSV())
				fmt.Fprint(stdout, res.Ratio.CSV())
			default:
				fmt.Fprintln(stdout, res)
			}
		case "scenarios":
			return runScenarios(nil)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *experiment == "all" {
		for _, name := range []string{"fig1", "table1", "fig3", "fig4", "ablation", "online", "scenarios"} {
			if !*jsonOut {
				fmt.Fprintf(stdout, "=== %s ===\n", name)
			}
			if err := runOne(name); err != nil {
				return err
			}
			if !*jsonOut {
				fmt.Fprintln(stdout)
			}
		}
		return nil
	}
	return runOne(*experiment)
}

func printFigure(w io.Writer, res *experiments.FigureResult, csv bool) {
	if csv {
		fmt.Fprint(w, res.Absolute.CSV())
		fmt.Fprint(w, res.Ratio.CSV())
		return
	}
	fmt.Fprintln(w, res)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
