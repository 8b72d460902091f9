package workload

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strings"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// A Scenario bundles everything needed to reproduce one evaluation workload:
// a topology, an arrival process and coflow mix (the Generate hook), and the
// seed that makes the draw deterministic. Scenarios are the unit the
// experiment sweep (internal/experiments), the CLIs (coflowgen -scenario,
// coflowbench -scenario, coflowload -scenario) and the golden-file
// regression harness (internal/regress) all operate on: the same name always
// denotes the same instance, so recorded scheduler outputs stay comparable
// across refactors.
type Scenario struct {
	// Name is the catalog key (lowercase, hyphenated).
	Name string
	// Description is a one-line summary for catalogs and -list output.
	Description string
	// Seed drives the scenario's rng; fixed per scenario so Build is
	// deterministic.
	Seed int64
	// Topology constructs the network the workload runs on.
	Topology func() *graph.Graph
	// Generate draws the workload on the topology. The returned arrivals are
	// index-aligned with the instance's coflows and non-decreasing.
	Generate func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error)
}

// Build materializes the scenario: fresh topology, seeded rng, one draw.
// Calling Build twice yields identical instances.
func (s Scenario) Build() (*coflow.Instance, []float64, error) {
	inst, arrivals, err := s.Generate(s.Topology(), rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, nil, fmt.Errorf("workload: scenario %q: %w", s.Name, err)
	}
	return inst, arrivals, nil
}

// LookupScenario finds a catalog scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Scenarios lists the catalog, sorted by name.
func Scenarios() []Scenario {
	return append([]Scenario(nil), catalog...)
}

// ScenarioNames lists the catalog's scenario names, sorted.
func ScenarioNames() []string {
	names := make([]string, len(catalog))
	for i, s := range catalog {
		names[i] = s.Name
	}
	return names
}

// fbSampleTrace is the committed sample of the Facebook/Varys-style trace
// format backing the fb-trace scenario (and doubling as parser
// documentation).
//
//go:embed fb_sample_trace.csv
var fbSampleTrace string

// fatTree4 and star12 are the catalog's two topologies.
func fatTree4() *graph.Graph { return graph.FatTree(4, 1) }
func star12() *graph.Graph   { return graph.Star(12, 1) }

// catalog is the scenario catalog, kept in name order. Sizes are deliberately
// modest: every scenario is replayed through both the batch simulator and the
// incremental engine by the golden regression suite on every test run.
// EXPERIMENTS.md documents each entry's shape and paper relevance.
var catalog = []Scenario{
	{
		Name:        "diurnal",
		Description: "sinusoidal arrival rate (0.25 to 4 per unit) on a k=4 fat-tree: valleys then storms",
		Seed:        6,
		Topology:    fatTree4,
		Generate:    generateDiurnal,
	},
	{
		Name:        "fan-in",
		Description: "5-to-1 shuffle aggregations on a k=4 fat-tree: the reducer's access link bottlenecks",
		Seed:        3,
		Topology:    fatTree4,
		Generate: func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
			return generateSkewed(g, false, rng)
		},
	},
	{
		Name:        "fan-out",
		Description: "1-to-5 broadcasts on a k=4 fat-tree: the sender's access link bottlenecks",
		Seed:        4,
		Topology:    fatTree4,
		Generate: func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
			return generateSkewed(g, true, rng)
		},
	},
	{
		Name:        "fb-trace",
		Description: "committed Facebook/Varys-style trace sample replayed on a 12-host star (big-switch model)",
		Seed:        7,
		Topology:    star12,
		Generate: func(g *graph.Graph, _ *rand.Rand) (*coflow.Instance, []float64, error) {
			tr, err := ParseTrace(strings.NewReader(fbSampleTrace))
			if err != nil {
				return nil, nil, err
			}
			return tr.Instance(g)
		},
	},
	{
		Name:        "heavy-tail",
		Description: "Pareto(alpha=1.3) coflow sizes on a k=4 fat-tree: a few elephants own most bytes",
		Seed:        2,
		Topology:    fatTree4,
		Generate:    generateHeavyTail,
	},
	{
		Name:        "incast",
		Description: "synchronized 6-to-1 aggregation waves on a 12-host star: one victim link per wave",
		Seed:        5,
		Topology:    star12,
		Generate:    generateIncast,
	},
	{
		Name:        "uniform",
		Description: "uniform Poisson arrivals and sizes on a k=4 fat-tree (the PR-1 baseline workload)",
		Seed:        1,
		Topology:    fatTree4,
		Generate: func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
			return GenerateArrivals(g, ArrivalConfig{
				Config: Config{NumCoflows: 10, Width: 3, MeanSize: 4, MeanWeight: 1},
				Rate:   2,
			}, rng)
		},
	},
}
