package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

func TestParetoBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x := paretoSize(rng)
		if x < heavyTailMin || x > heavyTailMax || math.IsNaN(x) {
			t.Fatalf("Pareto sample %v outside [%v, %v]", x, heavyTailMin, heavyTailMax)
		}
	}
}

func TestParetoIsHeavyTailed(t *testing.T) {
	// With alpha=1.3 on [1, 100] the top decile of draws carries about 45% of
	// the total mass (a uniform size would give it 10%) — the elephant/mice
	// split the heavy-tail scenario exists to model.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 5000)
	total := 0.0
	for i := range xs {
		xs[i] = paretoSize(rng)
		total += xs[i]
	}
	sort.Float64s(xs)
	top := 0.0
	for _, x := range xs[len(xs)*9/10:] {
		top += x
	}
	if frac := top / total; frac < 0.35 {
		t.Errorf("top decile of draws carries %.2f of total mass, want >= 0.35 (not heavy-tailed)", frac)
	}
}

func TestGenerateSkewedShape(t *testing.T) {
	g := graph.FatTree(4, 1)
	inst, _, err := generateSkewed(g, false, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("generateSkewed fan-in: %v", err)
	}
	for i, cf := range inst.Coflows {
		if len(cf.Flows) != skewDegree {
			t.Errorf("coflow %d has %d flows, want %d", i, len(cf.Flows), skewDegree)
		}
		dst := cf.Flows[0].Dest
		seen := map[graph.NodeID]bool{}
		for _, f := range cf.Flows {
			if f.Dest != dst {
				t.Errorf("coflow %d: fan-in flows have different destinations", i)
			}
			if seen[f.Source] {
				t.Errorf("coflow %d: duplicate source %v", i, f.Source)
			}
			seen[f.Source] = true
		}
	}

	inst, _, err = generateSkewed(g, true, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatalf("generateSkewed fan-out: %v", err)
	}
	for i, cf := range inst.Coflows {
		src := cf.Flows[0].Source
		seen := map[graph.NodeID]bool{}
		for _, f := range cf.Flows {
			if f.Source != src {
				t.Errorf("coflow %d: fan-out flows have different sources", i)
			}
			if seen[f.Dest] {
				t.Errorf("coflow %d: duplicate destination %v", i, f.Dest)
			}
			seen[f.Dest] = true
		}
	}
}

func TestGenerateIncastShape(t *testing.T) {
	inst, arrivals, err := generateIncast(graph.Star(8, 1), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("generateIncast: %v", err)
	}
	if len(inst.Coflows) != incastBursts*incastBurstSize {
		t.Fatalf("got %d coflows, want %d bursts x %d", len(inst.Coflows), incastBursts, incastBurstSize)
	}
	for b := 0; b < incastBursts; b++ {
		victim := inst.Coflows[b*incastBurstSize].Flows[0].Dest
		start := float64(b) * incastGap
		for i := b * incastBurstSize; i < (b+1)*incastBurstSize; i++ {
			if got := arrivals[i]; got < start || got > start+incastJitter {
				t.Errorf("coflow %d arrival %v outside wave %d window", i, got, b)
			}
			if len(inst.Coflows[i].Flows) != incastFanIn {
				t.Errorf("coflow %d has %d senders, want %d", i, len(inst.Coflows[i].Flows), incastFanIn)
			}
			for _, f := range inst.Coflows[i].Flows {
				if f.Dest != victim {
					t.Errorf("coflow %d flows do not converge on the wave victim", i)
				}
			}
		}
	}
}

// TestGenerateDiurnalRateVariation checks the thinning against the rate it
// thins to: pooled over many seeds, the mean number of arrivals in a window is
// the integral of diurnalRate over it. The rate rises from 2.125 at t=0 toward
// the peak at t=3, so [1, 2) must see more arrivals than [0, 1); a homogeneous
// process at any one rate would see as many in both.
func TestGenerateDiurnalRateVariation(t *testing.T) {
	const seeds = 2000
	g := graph.FatTree(4, 1)
	var counts [2]float64
	for seed := int64(0); seed < seeds; seed++ {
		_, arrivals, err := generateDiurnal(g, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, a := range arrivals {
			if a < 2 {
				counts[int(a)]++
			}
		}
	}
	for w, c := range counts {
		// Midpoint rule on a fine grid: the expected count in [w, w+1).
		want := 0.0
		for k := 0; k < 1000; k++ {
			want += diurnalRate(float64(w)+(float64(k)+0.5)/1000) / 1000
		}
		if got := c / seeds; math.Abs(got-want) > 0.15 {
			t.Errorf("mean arrivals in [%d, %d) = %.3f, want %.3f (the integral of the rate)", w, w+1, got, want)
		}
	}
	if counts[1] < counts[0]*1.2 {
		t.Errorf("arrivals in [1, 2) = %v, in [0, 1) = %v: no visible rate modulation", counts[1], counts[0])
	}
}

// generatorCase adapts every generator to one signature for the shared
// property test below.
type generatorCase struct {
	name     string
	topology *graph.Graph
	generate func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error)
}

func generatorCases() []generatorCase {
	fat := graph.FatTree(4, 1)
	star := graph.Star(10, 1)
	return []generatorCase{
		{"arrivals", fat, func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
			return GenerateArrivals(g, ArrivalConfig{Config: Config{NumCoflows: 6, Width: 3}, Rate: 2}, rng)
		}},
		{"heavy-tail", fat, generateHeavyTail},
		{"fan-in", fat, func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
			return generateSkewed(g, false, rng)
		}},
		{"fan-out", star, func(g *graph.Graph, rng *rand.Rand) (*coflow.Instance, []float64, error) {
			return generateSkewed(g, true, rng)
		}},
		{"incast", star, generateIncast},
		{"diurnal", fat, generateDiurnal},
	}
}

// TestGeneratorProperties asserts the contract every generator must satisfy
// for every seed: a valid instance (positive volumes, endpoints inside the
// network — inst.Validate), endpoints that are hosts specifically (switches
// cannot source traffic), arrivals aligned with coflows and non-decreasing,
// and flow releases never before their coflow's arrival.
func TestGeneratorProperties(t *testing.T) {
	for _, tc := range generatorCases() {
		t.Run(tc.name, func(t *testing.T) {
			hosts := map[graph.NodeID]bool{}
			for _, h := range tc.topology.Hosts() {
				hosts[h] = true
			}
			for seed := int64(0); seed < 50; seed++ {
				inst, arrivals, err := tc.generate(tc.topology, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := inst.Validate(false); err != nil {
					t.Fatalf("seed %d: invalid instance: %v", seed, err)
				}
				if len(arrivals) != len(inst.Coflows) {
					t.Fatalf("seed %d: %d arrivals for %d coflows", seed, len(arrivals), len(inst.Coflows))
				}
				for i := 1; i < len(arrivals); i++ {
					if arrivals[i] < arrivals[i-1] {
						t.Fatalf("seed %d: arrivals decrease at %d: %v < %v", seed, i, arrivals[i], arrivals[i-1])
					}
				}
				for i, cf := range inst.Coflows {
					for j, f := range cf.Flows {
						if !hosts[f.Source] || !hosts[f.Dest] {
							t.Fatalf("seed %d: coflow %d flow %d endpoints %v->%v not hosts", seed, i, j, f.Source, f.Dest)
						}
						if f.Release < arrivals[i] {
							t.Fatalf("seed %d: coflow %d flow %d released at %v before arrival %v", seed, i, j, f.Release, arrivals[i])
						}
					}
				}
			}
		})
	}
}
