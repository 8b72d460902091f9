package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"coflowsched/internal/stats"
)

// side is one results file reduced to what compare needs: for every workload
// the untraced runs' values per end-to-end metric, and the failure counts.
type side struct {
	values            map[string]map[string][]float64
	exact             map[string]map[string]bool
	seeds             map[string]int64
	attempted, failed map[string]int
}

func loadSide(path string) (*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &side{values: map[string]map[string][]float64{}, exact: map[string]map[string]bool{},
		seeds: map[string]int64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range f.Runs {
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
		if r.Trace {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
			s.exact[r.Workload] = map[string]bool{}
		}
		s.seeds[r.Workload] = r.Seed
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		for _, name := range r.Exact {
			s.exact[r.Workload][name] = true
		}
	}
	return s, nil
}

// spread is the range of a side's runs as a share of their median; one run
// has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return stats.Ratio(sorted[len(sorted)-1]-sorted[0], stats.Median(sorted))
}

// compareMain prints one row per workload and end-to-end metric: both
// medians, the second as a ratio of the first (its base), the bound, and a
// verdict. ok: not worse than the base by more than the bound. worse: it is.
// unresolved: the runs of one side differ among themselves by more than the
// bound, so neither can be said. A metric that must repeat exactly on the
// same seed and did not reads changed: the schedule is different, whatever
// the times say. The exit code is non-zero on worse and on a higher share of
// failed operations.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASE.json NEW.json")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2]*side
	for i := range sides {
		if sides[i], err = loadSide(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	base, cur := sides[0], sides[1]

	bad := false
	fmt.Printf("%-15s %-13s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, w := range spec.Workloads {
		if base.values[w.Name] == nil || cur.values[w.Name] == nil {
			continue
		}
		for _, d := range spec.EndToEnd {
			a, b := base.values[w.Name][d.Name], cur.values[w.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := stats.Median(a), stats.Median(b)
			worsening := stats.Ratio(mb-ma, ma)
			if d.Better == "higher" {
				worsening = -worsening
			}
			verdict := "ok"
			sameInput := base.seeds[w.Name] == cur.seeds[w.Name]
			switch {
			case sameInput && base.exact[w.Name][d.Name] && (ma != mb || spread(a) != 0 || spread(b) != 0):
				verdict = "changed"
				if worsening > d.Bound {
					verdict = "worse"
				}
			case spread(a) > d.Bound || spread(b) > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f, %.3f)", spread(a), spread(b))
			case worsening > d.Bound:
				verdict = "worse"
			case sameInput && base.exact[w.Name][d.Name]:
				verdict = "ok (exact)"
			}
			bad = bad || verdict == "worse"
			fmt.Printf("%-15s %-13s %14.6g %14.6g %9.4f %6.2f  %s\n", w.Name, d.Name, ma, mb, stats.Ratio(mb, ma), d.Bound, verdict)
		}
	}
	for _, w := range spec.Workloads {
		fa := stats.Ratio(float64(base.failed[w.Name]), float64(base.attempted[w.Name]))
		fb := stats.Ratio(float64(cur.failed[w.Name]), float64(cur.attempted[w.Name]))
		if base.attempted[w.Name] == 0 || cur.attempted[w.Name] == 0 {
			continue
		}
		verdict := "ok"
		if fb > fa {
			verdict, bad = "worse", true
		}
		fmt.Printf("%-15s %-13s %8d/%-7d %8d/%-7d %9s %6s  %s\n", w.Name, "failed/tried",
			base.failed[w.Name], base.attempted[w.Name], cur.failed[w.Name], cur.attempted[w.Name], "", "any", verdict)
	}
	if bad {
		return 1
	}
	return 0
}
