// Command coflowgen generates coflow workload instances and writes them as
// JSON for coflowsim to consume: either the paper's §4.1 random methodology
// (Poisson flow sizes, release times and coflow weights over a datacenter
// topology) or a named scenario from the catalog (trace replay, heavy-tail,
// incast, fan-in/out, diurnal — see EXPERIMENTS.md).
//
// Examples:
//
//	coflowgen -topology fattree -fatk 4 -coflows 10 -width 16 -seed 3 > workload.json
//	coflowgen -scenario heavy-tail > heavytail.json
//	coflowgen -list-scenarios
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// The §4.1 shape of the random workload: Poisson means of the flow size, the
// flow release time and the coflow weight.
const (
	meanSize    = 4
	meanRelease = 2
	meanWeight  = 1
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coflowgen:", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and streams, so the smoke tests can
// drive the whole command without exec'ing a binary.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coflowgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topology = fs.String("topology", "fattree", "topology: fattree, star, ring, line, grid, triangle (random mode)")
		fatK     = fs.Int("fatk", 4, "fat-tree arity (random mode)")
		nodes    = fs.Int("nodes", 8, "node count for star/ring/line/grid topologies (random mode)")
		coflows  = fs.Int("coflows", 10, "number of coflows (random mode)")
		width    = fs.Int("width", 16, "flows per coflow (random mode)")
		seed     = fs.Int64("seed", 1, "random seed (random mode)")
		out      = fs.String("o", "", "output file (default stdout)")
		scenario = fs.String("scenario", "", "emit a named scenario from the registry instead of the random workload (see -list-scenarios); scenarios fix their own topology, shape and seed")
		list     = fs.Bool("list-scenarios", false, "list registered scenarios and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A scenario bundles its own topology, shape and seed; silently ignoring
	// an explicit random-mode flag would hand the user a workload they did
	// not ask for (e.g. -scenario x -seed 42 emitting the seed-7 draw).
	if *scenario != "" {
		randomModeFlags := map[string]bool{
			"topology": true, "fatk": true, "nodes": true, "coflows": true,
			"width": true, "seed": true,
		}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if randomModeFlags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-scenario fixes the workload; random-mode flags %s have no effect (drop them or drop -scenario)", strings.Join(conflict, ", "))
		}
	}

	if *list {
		for _, s := range workload.Scenarios() {
			fmt.Fprintf(stdout, "%-12s %s\n", s.Name, s.Description)
		}
		return nil
	}

	var inst *coflow.Instance
	var err error
	if *scenario != "" {
		sc, ok := workload.LookupScenario(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %v)", *scenario, workload.ScenarioNames())
		}
		inst, _, err = sc.Build()
		if err != nil {
			return err
		}
	} else {
		var g *graph.Graph
		switch *topology {
		case "fattree":
			g = graph.FatTree(*fatK, 1)
		case "star":
			g = graph.Star(*nodes, 1)
		case "ring":
			g = graph.Ring(*nodes, 1)
		case "line":
			g = graph.Line(*nodes, 1)
		case "grid":
			g = graph.Grid(*nodes, *nodes, 1)
		case "triangle":
			g = graph.Triangle()
		default:
			return fmt.Errorf("unknown topology %q", *topology)
		}
		inst, err = workload.Generate(g, workload.Config{
			NumCoflows: *coflows, Width: *width,
			MeanSize: meanSize, MeanRelease: meanRelease, MeanWeight: meanWeight,
		}, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return inst.WriteJSON(w)
}
