package experiments

import (
	"fmt"

	"coflowsched/internal/coflow"
	"coflowsched/internal/core"
	"coflowsched/internal/graph"
	"coflowsched/internal/stats"
)

// FigureResult bundles the absolute-value table, the ratio-to-baseline table
// (the two panels of Figures 3 and 4) and the average improvement of
// LP-Based over each competitor.
type FigureResult struct {
	Absolute     *stats.Table
	Ratio        *stats.Table
	Improvements map[string]float64
}

// String renders both panels plus the improvement summary.
func (fr *FigureResult) String() string {
	s := fr.Absolute.String() + "\n" + fr.Ratio.String() + "\nAverage improvement of LP-Based:\n"
	for _, name := range []string{"Route-only", "Schedule-only", "Baseline"} {
		if v, ok := fr.Improvements[name]; ok {
			s += fmt.Sprintf("  over %-14s %6.1f%%\n", name, v)
		}
	}
	return s
}

// Figure3 reproduces the coflow-width sweep: the number of coflows is fixed
// and the width (flows per coflow) varies; both panels of the figure are
// returned.
func Figure3(cfg Config) (*FigureResult, error) {
	g := cfg.network()
	schedulers := cfg.Schedulers()
	labels := make([]string, len(cfg.Widths))
	for i, w := range cfg.Widths {
		labels[i] = fmt.Sprintf("%d flows", w)
	}
	title := fmt.Sprintf("Figure 3: %d-server fat-tree, %d coflows, varying coflow width",
		len(g.Hosts()), cfg.NumCoflows)
	return sweep(cfg, g, schedulers, title, "width", labels, func(i int) (int, int) {
		return cfg.NumCoflows, cfg.Widths[i]
	}, len(cfg.Widths))
}

// Figure4 reproduces the coflow-count sweep: the width is fixed and the
// number of coflows varies.
func Figure4(cfg Config) (*FigureResult, error) {
	g := cfg.network()
	schedulers := cfg.Schedulers()
	labels := make([]string, len(cfg.CoflowCounts))
	for i, n := range cfg.CoflowCounts {
		labels[i] = fmt.Sprintf("%d coflows", n)
	}
	title := fmt.Sprintf("Figure 4: %d-server fat-tree, coflow width %d, varying number of coflows",
		len(g.Hosts()), cfg.Width)
	return sweep(cfg, g, schedulers, title, "coflows", labels, func(i int) (int, int) {
		return cfg.CoflowCounts[i], cfg.Width
	}, len(cfg.CoflowCounts))
}

// sweep runs the shared sweep machinery of Figures 3 and 4.
func sweep(cfg Config, g *graph.Graph, schedulers []Scheduler, title, xlabel string, labels []string,
	point func(i int) (numCoflows, width int), n int) (*FigureResult, error) {

	// The whole Config is checked before the first point runs, the other
	// figure's axis too.
	if err := checkShape(append([]int{cfg.NumCoflows}, cfg.CoflowCounts...), append([]int{cfg.Width}, cfg.Widths...)); err != nil {
		return nil, err
	}
	values := make([][]float64, len(schedulers))
	for i := range values {
		values[i] = make([]float64, n)
	}
	for p := 0; p < n; p++ {
		nc, w := point(p)
		means, err := cfg.SweepPoint(g, nc, w, schedulers)
		if err != nil {
			return nil, err
		}
		for si := range schedulers {
			values[si][p] = means[si]
		}
	}
	names := make([]string, len(schedulers))
	for i, s := range schedulers {
		names[i] = s.Name()
	}

	abs := stats.NewTable(title, xlabel, labels)
	for si, s := range schedulers {
		if err := abs.AddSeries(s.Name(), values[si]); err != nil {
			return nil, err
		}
	}
	ratio, err := abs.NormalizeTo("Baseline")
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		Absolute:     abs,
		Ratio:        ratio,
		Improvements: ImprovementSummary(names, values),
	}, nil
}

// Figure1Result reports the paper's motivating triangle example: the total
// completion time of fair sharing (s1), strict coflow priority (s2), and the
// LP-based schedule, together with the certified lower bound.
type Figure1Result struct {
	FairSharing float64
	Priority    float64
	LPBased     float64
	LowerBound  float64
}

// String renders the comparison.
func (r Figure1Result) String() string {
	return fmt.Sprintf(
		"Figure 1 (triangle, coflows A{2,1}, B{1}, C{2}):\n"+
			"  (s1) fair sharing        : %5.2f\n"+
			"  (s2) coflow priority     : %5.2f\n"+
			"  (s3) LP-based            : %5.2f\n"+
			"  certified lower bound    : %5.2f\n",
		r.FairSharing, r.Priority, r.LPBased, r.LowerBound)
}

// Figure1Instance builds the triangle instance of the paper's Figure 1 with
// shortest (direct) paths assigned: coflow A has flows A1 (x->y, size 2) and
// A2 (y->z, size 1); coflows B (y->z, size 1) and C (x->z, size 2) have one
// flow each; unit edge capacities, unit weights.
func Figure1Instance() (*coflow.Instance, error) {
	g := graph.Triangle()
	x, _ := g.FindNode("x")
	y, _ := g.FindNode("y")
	z, _ := g.FindNode("z")
	inst := &coflow.Instance{
		Network: g,
		Coflows: []coflow.Coflow{
			{Name: "A", Weight: 1, Flows: []coflow.Flow{
				{Source: x, Dest: y, Size: 2},
				{Source: y, Dest: z, Size: 1},
			}},
			{Name: "B", Weight: 1, Flows: []coflow.Flow{{Source: y, Dest: z, Size: 1}}},
			{Name: "C", Weight: 1, Flows: []coflow.Flow{{Source: x, Dest: z, Size: 2}}},
		},
	}
	if err := inst.AssignShortestPaths(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Figure1 builds the triangle instance of the paper's Figure 1 and evaluates
// the three scheduling strategies it illustrates: (s1) every flow gets half
// the link bandwidth, (s2) strict coflow priority A > B > C, (s3) the
// LP-based schedule. The paper's totals are 10, 8 and 7; with the flow sizes
// spelled out in the figure's caption our LP-based schedule reaches the true
// optimum 5 (= the certified lower bound), preserving the figure's ordering
// s1 > s2 > s3.
func Figure1() (*Figure1Result, error) {
	inst, err := Figure1Instance()
	if err != nil {
		return nil, err
	}
	a1 := coflow.FlowRef{Coflow: 0, Index: 0}
	a2 := coflow.FlowRef{Coflow: 0, Index: 1}
	b := coflow.FlowRef{Coflow: 1, Index: 0}
	cc := coflow.FlowRef{Coflow: 2, Index: 0}
	path := func(r coflow.FlowRef) graph.Path { return inst.Flow(r).Path }

	// (s1) every flow at rate 1/2 from time 0.
	s1 := coflow.NewCircuitSchedule()
	s1.Set(a1, &coflow.FlowSchedule{Path: path(a1), Segments: []coflow.BandwidthSegment{{Start: 0, End: 4, Rate: 0.5}}})
	s1.Set(a2, &coflow.FlowSchedule{Path: path(a2), Segments: []coflow.BandwidthSegment{{Start: 0, End: 2, Rate: 0.5}}})
	s1.Set(b, &coflow.FlowSchedule{Path: path(b), Segments: []coflow.BandwidthSegment{{Start: 0, End: 2, Rate: 0.5}}})
	s1.Set(cc, &coflow.FlowSchedule{Path: path(cc), Segments: []coflow.BandwidthSegment{{Start: 0, End: 4, Rate: 0.5}}})
	if err := s1.Validate(inst); err != nil {
		return nil, fmt.Errorf("experiments: figure 1 s1 infeasible: %w", err)
	}

	// (s2) strict coflow priority A, then B, then C — C waits even though its
	// link is idle, exactly as drawn in the figure.
	s2 := coflow.NewCircuitSchedule()
	s2.Set(a1, &coflow.FlowSchedule{Path: path(a1), Segments: []coflow.BandwidthSegment{{Start: 0, End: 2, Rate: 1}}})
	s2.Set(a2, &coflow.FlowSchedule{Path: path(a2), Segments: []coflow.BandwidthSegment{{Start: 0, End: 1, Rate: 1}}})
	s2.Set(b, &coflow.FlowSchedule{Path: path(b), Segments: []coflow.BandwidthSegment{{Start: 1, End: 2, Rate: 1}}})
	s2.Set(cc, &coflow.FlowSchedule{Path: path(cc), Segments: []coflow.BandwidthSegment{{Start: 2, End: 4, Rate: 1}}})
	if err := s2.Validate(inst); err != nil {
		return nil, fmt.Errorf("experiments: figure 1 s2 infeasible: %w", err)
	}

	// (s3) the LP-based schedule.
	lpRes, err := (core.CircuitGivenPaths{}).ScheduleASAP(inst)
	if err != nil {
		return nil, err
	}
	if err := lpRes.Schedule.Validate(inst); err != nil {
		return nil, fmt.Errorf("experiments: figure 1 LP schedule infeasible: %w", err)
	}
	return &Figure1Result{
		FairSharing: s1.Objective(inst),
		Priority:    s2.Objective(inst),
		LPBased:     lpRes.Objective(inst),
		LowerBound:  core.CombinedLowerBound(inst, lpRes),
	}, nil
}
