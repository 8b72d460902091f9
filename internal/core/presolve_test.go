package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/lp"
	"coflowsched/internal/workload"
)

// presolveStats is what one comparison saw.
type presolveStats struct {
	rows, dropped int // capacity rows of the full LP, and how many the presolve leaves out
	m, mReduced   int // constraints of the full and of the presolved LP
	pivots        int // pivots of the presolved solve
}

var capRowName = regexp.MustCompile(`cap_e\d+_l\d+`)

// capRows returns the names of the capacity rows m's problem has.
func capRows(m *intervalLP) map[string]bool {
	rows := map[string]bool{}
	for _, name := range capRowName.FindAllString(m.prob.String(), -1) {
		rows[name] = true
	}
	return rows
}

// comparePresolve builds a candidate-path LP of inst twice — as build does,
// with the capacity rows that cannot bind left out, and with every row over
// the same candidates (withEveryRow) — and solves both, each to an optimum
// lp.Certify accepts. It wants the same pivot count, objective and every
// variable value under ==, however long the solve (slackRowMargin). The rows
// left out are then recomputed from a demand count of the test's own (maps,
// no shared code), must be as many as the two LPs differ by, and each must be
// slack by at least slackRowMargin·capacity at the full LP's optimum.
func comparePresolve(tb testing.TB, name string, inst *coflow.Instance, build func(*coflow.Instance) (*intervalLP, error)) presolveStats {
	tb.Helper()
	reduced, err := build(inst)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	full := withEveryRow(reduced)
	st := presolveStats{
		rows:     full.prob.NumConstraints() - 2*len(full.refs),
		m:        full.prob.NumConstraints(),
		mReduced: reduced.prob.NumConstraints(),
	}
	if full.prob.NumVariables() != reduced.prob.NumVariables() {
		tb.Fatalf("%s: %d variables with every row, %d without", name, full.prob.NumVariables(), reduced.prob.NumVariables())
	}
	if _, err := solved(full, nil); err != nil {
		tb.Fatalf("%s: full LP: %v", name, err)
	}
	if _, err := solved(reduced, nil); err != nil {
		tb.Fatalf("%s: presolved LP: %v", name, err)
	}
	for _, m := range []*intervalLP{full, reduced} {
		if err := lp.Certify(m.prob, m.sol); err != nil {
			tb.Errorf("%s: %d rows: %v", name, m.prob.NumConstraints(), err)
		}
	}
	st.pivots = reduced.sol.Iterations
	if reduced.sol.Iterations != full.sol.Iterations {
		tb.Errorf("%s: %d pivots without the slack rows, %d with them", name, reduced.sol.Iterations, full.sol.Iterations)
	}
	if reduced.sol.Objective != full.sol.Objective {
		tb.Errorf("%s: objective %v without the slack rows, %v with them", name, reduced.sol.Objective, full.sol.Objective)
	}
	got, want := reduced.sol.Values(), full.sol.Values()
	for v := range want {
		if got[v] != want[v] {
			tb.Errorf("%s: %s = %v without the slack rows, %v with them", name, full.prob.VariableName(lp.Var(v)), got[v], want[v])
			break
		}
	}

	// The test's own count, in one pass over the flows: per edge the demand
	// (each flow at the most crossings one of its candidates makes), per row
	// of the full LP what it carries at that LP's optimum.
	demand := map[graph.EdgeID]float64{}
	load := map[capRow]float64{}
	for i, ref := range full.refs {
		size := inst.Flow(ref).Size
		most := map[graph.EdgeID]int{}
		for p, path := range candidatesOf(full)[i] {
			crossings := map[graph.EdgeID]int{}
			for _, e := range path {
				crossings[e]++
				for l := full.rel[i]; l < full.grid.NumIntervals(); l++ {
					load[capRow{e, l}] += size / full.grid.Length(l) * full.value(full.deliver[i][l][p])
				}
			}
			for e, n := range crossings {
				most[e] = max(most[e], n)
			}
		}
		for e, n := range most {
			demand[e] += size * float64(n)
		}
	}
	if len(load) != st.rows {
		tb.Errorf("%s: the full LP has %d capacity rows, the flows' candidates and releases give %d", name, st.rows, len(load))
	}
	reducedRows := capRows(reduced)
	for r, carried := range load {
		capacity, length := inst.Network.Capacity(r.e), full.grid.Length(r.l)
		slackRow := demand[r.e]/length <= capacity*(1-slackRowMargin)
		if kept := reducedRows[r.name()]; kept == slackRow {
			tb.Errorf("%s: row (edge %d, interval %d) kept = %v, but demand %v over length %v against capacity %v",
				name, r.e, r.l, kept, demand[r.e], length, capacity)
		}
		if !slackRow {
			continue
		}
		st.dropped++
		if capacity-carried < slackRowMargin*capacity {
			tb.Errorf("%s: row (edge %d, interval %d) was left out but carries %v of capacity %v at the full LP's optimum",
				name, r.e, r.l, carried, capacity)
		}
	}
	if st.dropped != st.m-st.mReduced {
		tb.Errorf("%s: %d rows can never bind, the presolved LP has %d fewer", name, st.dropped, st.m-st.mReduced)
	}
	return st
}

// candidatesOf returns the candidate paths a candidate-path LP was built over,
// per flow.
func candidatesOf(m *intervalLP) [][]graph.Path { return m.routing.(*candidateRouting).cands }

// withEveryRow rebuilds a candidate-path LP over the same candidates and
// options with every capacity row.
func withEveryRow(m *intervalLP) *intervalLP {
	return buildIntervalLP(m.inst, m.refs, m.opts, &candidateRouting{cands: candidatesOf(m), everyRow: true})
}

// freePathBuild is CircuitFreePaths' builder over four candidate paths, as the
// benchmark and the pinned tests run it.
func freePathBuild(inst *coflow.Instance) (*intervalLP, error) {
	return CircuitFreePaths{Opts: Options{CandidatePaths: 4}}.buildLP(inst)
}

// TestRowPresolveMatchesFullLP is the differential check behind
// slackRowMargin's argument, on the LPs whose pivots are pinned: the 64 fig3
// LPs, none of which reaches a refactorization, and the 8x6 LP, which passes
// six. Each agrees with its full LP bit for bit.
func TestRowPresolveMatchesFullLP(t *testing.T) {
	g := graph.FatTree(4, 1)
	var sum presolveStats
	longest := 0
	for i := 0; i < 64; i++ {
		inst, _ := fig3Instance(t, g, i)
		st := comparePresolve(t, fmt.Sprintf("fig3 instance %d", i), inst, freePathBuild)
		sum.rows += st.rows
		sum.dropped += st.dropped
		sum.m += st.m
		sum.mReduced += st.mReduced
		sum.pivots += st.pivots
		longest = max(longest, st.pivots)
	}
	t.Logf("fig3: %d of %d capacity rows left out, mean m %d -> %d, %d pivots, longest solve %d",
		sum.dropped, sum.rows, sum.m/64, sum.mReduced/64, sum.pivots, longest)
	// What EXPERIMENTS.md's row-presolve section quotes, with the pivots of
	// the factored kernel (7 679 before it, see TestFig3PivotsPinned).
	if sum.rows != 61078 || sum.dropped != 40868 || sum.pivots != 7750 {
		t.Errorf("fig3: %d capacity rows, %d left out, %d pivots; want 61078, 40868, 7750", sum.rows, sum.dropped, sum.pivots)
	}

	if testing.Short() {
		t.Skip("the 8x6 LP with every row is 1 714 pivots, about 1.5 s")
	}
	inst := freePath8x6Instance(t, g)
	st := comparePresolve(t, "8x6", inst, freePathBuild)
	t.Logf("8x6: %d of %d capacity rows left out, m %d -> %d, %d pivots", st.dropped, st.rows, st.m, st.mReduced, st.pivots)
	// The simplex refactorizes every 256 pivots: the check is meant to reach
	// past several rebuilt inverses.
	if st.pivots < 2*256 {
		t.Errorf("8x6: %d pivots, fewer than two refactorizations", st.pivots)
	}
}

// TestRowPresolveCases checks the row predicate on hand-built instances, row
// by row, and runs the differential on each.
func TestRowPresolveCases(t *testing.T) {
	// oneLink is a single flow of the given size and release over a -> b.
	oneLink := func(capacity, size, release float64) (*coflow.Instance, graph.EdgeID) {
		g := graph.New()
		a, b := g.AddNode("a", graph.KindHost), g.AddNode("b", graph.KindHost)
		ab, _ := g.AddBidirectional(a, b, capacity)
		return &coflow.Instance{Network: g, Coflows: []coflow.Coflow{{Weight: 1, Flows: []coflow.Flow{
			{Source: a, Dest: b, Size: size, Release: release}}}}}, ab
	}
	cases := []struct {
		name          string
		opts          Options
		inst          func() (*coflow.Instance, []capRow, []capRow) // instance, rows kept, rows left out
		packet        bool
		wantObjective float64 // 0: not checked
	}{
		{name: "demand equal to capacity x length keeps the row", inst: func() (*coflow.Instance, []capRow, []capRow) {
			// ε = 1: lengths 1, 1, 2, 4. Size 2 fills interval 2 exactly.
			inst, ab := oneLink(1, 2, 0)
			return inst, []capRow{{ab, 0}, {ab, 1}, {ab, 2}}, []capRow{{ab, 3}, {ab, 4}}
		}},
		{name: "capacities other than 1", inst: func() (*coflow.Instance, []capRow, []capRow) {
			// a -> b at 0.5, b -> c at 3, one flow of size 2 over both: a -> b can
			// bind while the interval is shorter than 4 and ties at 4; b -> c never.
			g := graph.New()
			a, b, c := g.AddNode("a", graph.KindHost), g.AddNode("b", graph.KindHost), g.AddNode("c", graph.KindHost)
			ab, _ := g.AddBidirectional(a, b, 0.5)
			bc, _ := g.AddBidirectional(b, c, 3)
			inst := &coflow.Instance{Network: g, Coflows: []coflow.Coflow{{Weight: 1, Flows: []coflow.Flow{
				{Source: a, Dest: c, Size: 2}}}}}
			return inst, []capRow{{ab, 0}, {ab, 2}, {ab, 3}}, []capRow{{ab, 4}, {bc, 0}, {bc, 1}, {bc, 3}}
		}},
		{name: "late release", inst: func() (*coflow.Instance, []capRow, []capRow) {
			// Size 6 from time 0 and size 2 released at 5 (first interval 4, length
			// 8) share the link: the late flow counts in every row, so interval 4
			// ties at 8/8 and stays, interval 5 goes.
			inst, ab := oneLink(1, 6, 0)
			fl := inst.Coflows[0].Flows[0]
			fl.Size, fl.Release = 2, 5
			inst.Coflows = append(inst.Coflows, coflow.Coflow{Weight: 2, Flows: []coflow.Flow{fl}})
			return inst, []capRow{{ab, 0}, {ab, 3}, {ab, 4}}, []capRow{{ab, 5}, {ab, 6}}
		}},
		{name: "a path that crosses an edge twice counts twice", wantObjective: 2 * (2*2.0/3 + 4*1.0/3), inst: func() (*coflow.Instance, []capRow, []capRow) {
			// x -> y -> x -> y, size 1.5, weight 2, released at 2: row (x -> y, 2)
			// reads 2 · 1.5/2 · x <= 1 and binds at x = 2/3, where a count of one
			// crossing per flow (1.5/2 <= 1) would have left it out.
			g := graph.Triangle()
			x, _ := g.FindNode("x")
			y, _ := g.FindNode("y")
			var xy, yx graph.EdgeID
			for id, e := range g.Edges() {
				switch {
				case e.From == x && e.To == y:
					xy = graph.EdgeID(id)
				case e.From == y && e.To == x:
					yx = graph.EdgeID(id)
				}
			}
			inst := &coflow.Instance{Network: g, Coflows: []coflow.Coflow{{Weight: 2, Flows: []coflow.Flow{
				{Source: x, Dest: y, Size: 1.5, Release: 2, Path: graph.Path{xy, yx, xy}}}}}}
			return inst, []capRow{{xy, 2}}, []capRow{{yx, 2}, {xy, 3}, {yx, 3}, {xy, 4}}
		}},
		{name: "a given path among free flows", inst: func() (*coflow.Instance, []capRow, []capRow) {
			// Figure 1 with coflow C's x -> z flow pinned to its two-hop route.
			inst := figure1Instance(t, false)
			g := inst.Network
			x, _ := g.FindNode("x")
			z, _ := g.FindNode("z")
			for _, p := range g.KShortestPathsCached(x, z, 2) {
				if len(p) == 2 {
					inst.Coflows[2].Flows[0].Path = p
				}
			}
			if inst.Coflows[2].Flows[0].Path == nil {
				t.Fatal("no two-hop route from x to z")
			}
			return inst, nil, nil
		}},
		{name: "epsilon 0.5", opts: Options{Epsilon: 0.5}, inst: func() (*coflow.Instance, []capRow, []capRow) {
			// Lengths 1, 0.5, 0.75, 1.125: not monotone at the start. Size 1 ties
			// interval 0 and fits from interval 3 on.
			inst, ab := oneLink(1, 1, 0)
			return inst, []capRow{{ab, 0}, {ab, 1}, {ab, 2}}, []capRow{{ab, 3}, {ab, 4}}
		}},
		{name: "packets on a grid", packet: true, inst: func() (*coflow.Instance, []capRow, []capRow) {
			return packetGridInstance(t, 3, 3, 3), nil, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, kept, dropped := tc.inst()
			if err := inst.Validate(tc.packet); err != nil {
				t.Fatal(err)
			}
			var reduced *intervalLP
			st := comparePresolve(t, tc.name, inst, func(inst *coflow.Instance) (m *intervalLP, err error) {
				if tc.packet {
					m, err = PacketFreePaths{Opts: tc.opts}.buildLP(inst)
				} else {
					m, err = CircuitFreePaths{Opts: tc.opts}.buildLP(inst)
				}
				reduced = m
				return m, err
			})
			if st.dropped == 0 || st.dropped == st.rows {
				t.Errorf("%d of %d capacity rows left out: the case does not straddle the predicate", st.dropped, st.rows)
			}
			rows := capRows(reduced)
			for _, r := range kept {
				if !rows[r.name()] {
					t.Errorf("row (edge %d, interval %d) was left out", r.e, r.l)
				}
			}
			for _, r := range dropped {
				if rows[r.name()] {
					t.Errorf("row (edge %d, interval %d) was kept", r.e, r.l)
				}
			}
			if tc.wantObjective != 0 && math.Abs(reduced.sol.Objective-tc.wantObjective) > 1e-9 {
				t.Errorf("LP objective %v, want %v", reduced.sol.Objective, tc.wantObjective)
			}
		})
	}
}

// TestGivenPathPresolveMatchesFullLP is the differential check on the
// given-path LPs, which leave out the never-binding rows as the free-path LPs
// do: Table 1's packet and circuit given-path instances, 20 trials of each on
// the rows' own seeds (experiments.Table1 at its defaults: 3 coflows of width
// 3, row i's trial t seeded 7 + 100·i + t), and 40 residual instances of the
// kind online.LPEpoch re-solves every epoch (residualFuzzInstance). Each agrees
// with its full LP bit for bit, and each kind leaves rows out.
func TestGivenPathPresolveMatchesFullLP(t *testing.T) {
	table1Row := func(row int, g *graph.Graph, cfg workload.Config) func(n int) (*coflow.Instance, error) {
		return func(n int) (*coflow.Instance, error) {
			return workload.GenerateWithPaths(g, cfg, rand.New(rand.NewSource(int64(7+100*row+n))))
		}
	}
	kinds := []struct {
		name  string
		lps   int
		inst  func(n int) (*coflow.Instance, error)
		build func(*coflow.Instance) (*intervalLP, error)
	}{
		{"table1 packet given", 20, table1Row(0, graph.Ring(6, 1), workload.Config{
			NumCoflows: 3, Width: 3, PacketModel: true, MeanRelease: 1}), PacketGivenPaths{}.buildLP},
		{"table1 circuit given", 20, table1Row(2, graph.FatTree(4, 1), workload.Config{
			NumCoflows: 3, Width: 3, MeanSize: 3, MeanRelease: 1}), CircuitGivenPaths{}.buildLP},
		// Inputs whose cut leaves no unfinished flow are passed over.
		{"residual", 40, func(n int) (*coflow.Instance, error) {
			return residualFuzzInstance(int64(n), uint8(n), uint8(n/2), uint8(7*n))
		}, CircuitGivenPaths{}.buildLP},
	}
	for _, k := range kinds {
		var sum presolveStats
		lps := 0
		for n := 0; lps < k.lps && n < 2*k.lps; n++ {
			inst, err := k.inst(n)
			if err != nil {
				continue
			}
			st := comparePresolve(t, fmt.Sprintf("%s %d", k.name, n), inst, k.build)
			sum.rows += st.rows
			sum.dropped += st.dropped
			sum.pivots += st.pivots
			lps++
		}
		t.Logf("%s: %d of %d capacity rows left out over %d LPs, %d pivots", k.name, sum.dropped, sum.rows, lps, sum.pivots)
		if lps < k.lps || sum.dropped == 0 {
			t.Errorf("%s: %d LPs compared, want %d; %d capacity rows left out", k.name, lps, k.lps, sum.dropped)
		}
	}
}

// TestGivenPathLPPresolvesLikeFreePath pins the scope: over the same single
// shortest paths, the given-path LP is, text for text, the free-path LP with
// one candidate, so both leave out the same rows, and it has fewer rows than
// the LP with every row.
func TestGivenPathLPPresolvesLikeFreePath(t *testing.T) {
	inst := smallFatTreeInstance(t, 5, 3, 3)
	free, err := CircuitFreePaths{Opts: Options{CandidatePaths: 1}}.buildLP(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.AssignShortestPaths(); err != nil {
		t.Fatal(err)
	}
	given, err := CircuitGivenPaths{}.buildLP(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(candidatesOf(given), candidatesOf(free)) {
		t.Fatal("the assigned shortest paths are not the free-path LP's single candidates")
	}
	if got, want := given.prob.String(), free.prob.String(); got != want {
		t.Errorf("given-path LP (%d constraints) differs from the one-candidate free-path LP (%d)",
			given.prob.NumConstraints(), free.prob.NumConstraints())
	}
	if full := withEveryRow(given); given.prob.NumConstraints() >= full.prob.NumConstraints() {
		t.Errorf("given-path LP has %d constraints, the full LP %d: nothing was left out",
			given.prob.NumConstraints(), full.prob.NumConstraints())
	}
}

// presolveFuzzInstance decodes a fuzz input into a small free-path instance:
// topology and capacity from topo, 1-3 coflows of 1-3 flows, sizes, releases,
// ε and the candidate count from shape, every third flow pinned to its
// shortest path when shape's top bit is set.
func presolveFuzzInstance(seed int64, topo, coflows, width, shape uint8) (*coflow.Instance, Options, error) {
	capacity := []float64{1, 0.5, 2.5}[int(topo/4)%3]
	var g *graph.Graph
	switch topo % 4 {
	case 0:
		g = graph.Ring(5, capacity)
	case 1:
		g = graph.Grid(2, 3, capacity)
	case 2:
		g = graph.Star(4, capacity)
	default:
		g = graph.FatTree(4, capacity)
	}
	cfg := workload.Config{
		NumCoflows:  1 + int(coflows)%3,
		Width:       1 + int(width)%3,
		MeanSize:    []float64{1, 2, 6}[int(shape)%3],
		MeanRelease: []float64{0, 2, 5}[int(shape/3)%3],
		MeanWeight:  1,
	}
	opts := Options{
		Epsilon:        []float64{1, 0.5}[int(shape/9)%2],
		CandidatePaths: []int{1, 2, 4}[int(shape/18)%3],
	}
	inst, err := workload.Generate(g, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, opts, err
	}
	if shape&0x80 != 0 {
		for n, ref := range inst.FlowRefs() {
			if f := inst.Flow(ref); n%3 == 0 {
				f.Path = g.ShortestPath(f.Source, f.Dest)
			}
		}
	}
	return inst, opts, nil
}

// FuzzRowPresolve hunts for an instance on which the LP without the rows that
// "cannot bind" is not the LP with them: a different pivot count, objective or
// variable value, a left-out row less than the margin from binding, or a row
// the builder and the test's own demand count disagree on. It checks the
// free-path LP of the instance and the given-path LP with every flow pinned
// to its shortest path.
func FuzzRowPresolve(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(2), uint8(0))
	f.Add(int64(2), uint8(4), uint8(1), uint8(0), uint8(0x8c))
	f.Add(int64(3), uint8(9), uint8(2), uint8(1), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, topo, coflows, width, shape uint8) {
		inst, opts, err := presolveFuzzInstance(seed, topo, coflows, width, shape)
		if err != nil {
			t.Skip(err)
		}
		comparePresolve(t, "fuzz", inst, CircuitFreePaths{Opts: opts}.buildLP)
		if err := inst.AssignShortestPaths(); err != nil {
			t.Fatal(err)
		}
		comparePresolve(t, "fuzz, every flow pinned", inst, CircuitGivenPaths{Opts: opts}.buildLP)
	})
}
