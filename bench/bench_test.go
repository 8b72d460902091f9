package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 1, seconds: 0.01, trace: trace, scale: "smoke", spec: specPath,
		walDir: filepath.Join(t.TempDir(), "wal"), traceDir: filepath.Join(t.TempDir(), "trace")}
}

// TestDeclaration holds BENCHMARK.json to the limits its format sets, so that
// an edit which would make a driver refuse the file fails here first.
func TestDeclaration(t *testing.T) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", spec.RunSeconds)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	used := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(spec.Workloads))
	}
	setup := false
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s and better lower")
	}
	for _, p := range spec.Paths {
		if info, err := os.Stat(filepath.Join("..", p)); err != nil || !info.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
}

// TestSmoke runs every workload untraced and traced at the smoke scale. The
// untraced run must emit exactly the declared end-to-end metrics, none of
// them zero; over all workloads the traced runs must use every declared
// per-layer metric (runWorkload itself refuses a name that is not declared).
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	layerUsed := map[string]bool{}
	for _, w := range spec.Workloads {
		res, err := runWorkload(w.Name, workloads[w.Name], smokeOptions(t, false), spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failures=%v", w.Name, res.Correct, res.Attempted, res.Failures)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, d := range spec.EndToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
		}

		res, err = runWorkload(w.Name, workloads[w.Name], smokeOptions(t, true), spec)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: failures=%v", w.Name, res.Failures)
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.Name, len(res.Metrics), len(spec.PerLayer))
		}
		for name, m := range res.Metrics {
			if m.N > 0 {
				layerUsed[name] = true
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !layerUsed[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}

// TestSpansAddUp checks the attribution on the serial workloads: the spans'
// self times plus the time outside every span are the window, so no layer's
// time is counted twice and none is lost between a span and its children.
func TestSpansAddUp(t *testing.T) {
	for _, name := range []string{"offline-fig3", "online-sebf-k4", "online-sebf-k8", "online-lp-k4"} {
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		it := newIteration(1, 0, scales["smoke"], newTracer(), dir)
		if err := workloads[name].run(it); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lt := it.tr.aggregate(it.winStart, it.winEnd)
		self := 0.0
		for n, d := range lt.self {
			if d < 0 {
				t.Errorf("%s: span %s has negative self time %v", name, n, d)
			}
			self += d.Seconds()
		}
		outside := (it.wall - lt.roots).Seconds()
		if got, want := self+outside, it.wall.Seconds(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: self times %v + outside %v = %v, window %v", name, self, outside, got, want)
		}
		if outside < 0 {
			t.Errorf("%s: spans cover more than the window by %v", name, -outside)
		}
		if u, ok := it.layer["online.unattributed_s"]; ok && math.Abs(u-outside) > 1e-9 {
			t.Errorf("%s: online.unattributed_s %v, window minus spans %v", name, u, outside)
		}
	}
}

// TestHostFactor pins what the host reference does to a time: nothing on a
// host at the nominal pace, the pace itself at exponent one, nothing at
// exponent zero.
func TestHostFactor(t *testing.T) {
	for _, tc := range []struct{ before, after, exponent, want float64 }{
		{refNominalMs, refNominalMs, 0.85, 1},
		{2, 2, 1, 2 / refNominalMs},
		{1, 4, 1, 2 / refNominalMs},
		{3, 5, 0, 1},
	} {
		if got := hostFactor(tc.before, tc.after, tc.exponent); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("hostFactor(%v, %v, %v) = %v, want %v", tc.before, tc.after, tc.exponent, got, tc.want)
		}
	}
	if pace := measureRef(); pace <= 0 {
		t.Errorf("measureRef() = %v", pace)
	}
}

// TestCompare pins the verdicts: within the bound, beyond it, too noisy to
// say, and an exact metric that moved.
func TestCompare(t *testing.T) {
	write := func(name string, runs ...result) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeResults(path, resultsFile{Runs: runs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(wall, wcct float64, failed int) result {
		return result{Workload: "online-sebf-k4", Seed: 1, Attempted: 100, Failed: failed,
			Exact: []string{"weighted_cct"},
			Metrics: map[string]metric{
				"wall_s":       {Value: wall, Unit: "s"},
				"weighted_cct": {Value: wcct, Unit: "simtime"},
			}}
	}
	base := write("base.json", run(1.00, 500, 0), run(1.02, 500, 0), run(0.99, 500, 0))
	for _, tc := range []struct {
		name string
		runs []result
		exit int
	}{
		{"same", []result{run(1.01, 500, 0), run(1.00, 500, 0), run(1.03, 500, 0)}, 0},
		{"slower", []result{run(1.51, 500, 0), run(1.50, 500, 0), run(1.53, 500, 0)}, 1},
		{"noisy", []result{run(1.0, 500, 0), run(2.0, 500, 0), run(3.0, 500, 0)}, 0},
		{"schedule changed within the bound", []result{run(1.0, 501, 0), run(1.0, 501, 0), run(1.0, 501, 0)}, 0},
		{"more failures", []result{run(1.0, 500, 1), run(1.0, 500, 0), run(1.0, 500, 0)}, 1},
	} {
		if got := compareMain([]string{"-spec", specPath, base, write("new.json", tc.runs...)}); got != tc.exit {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.exit)
		}
	}
}
