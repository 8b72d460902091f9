package regress

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coflowsched/internal/online"
	"coflowsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files from current scheduler output")

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

// marshal renders a golden record in the canonical committed form: indented
// JSON with sorted map keys (encoding/json sorts map keys by construction).
func marshal(t *testing.T, g *ScenarioGolden) []byte {
	t.Helper()
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	return append(b, '\n')
}

// TestGolden replays every catalog scenario through online.Run and
// compares the rounded outputs against the committed fixtures; RunScenario
// fails a run that settled a fallback epoch. A mismatch means scheduler
// behavior changed: either
// fix the regression, or — if the change is intended — regenerate with
// `go test ./internal/regress -run TestGolden -update` and commit the diff.
func TestGolden(t *testing.T) {
	scenarios := workload.Scenarios()
	if len(scenarios) == 0 {
		t.Fatalf("the scenario catalog is empty")
	}
	// Every golden file must correspond to a scenario: a renamed scenario
	// must not leave a stale fixture behind that silently pins nothing.
	known := map[string]bool{}
	for _, sc := range scenarios {
		known[sc.Name+".golden.json"] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil && !*update {
		t.Fatalf("reading testdata (run with -update to create it): %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".golden.json") && !known[e.Name()] {
			t.Errorf("stale golden file testdata/%s has no matching scenario", e.Name())
		}
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got, err := RunScenario(sc)
			if err != nil {
				t.Fatalf("RunScenario: %v", err)
			}
			gotBytes := marshal(t, got)
			path := goldenPath(sc.Name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatalf("mkdir testdata: %v", err)
				}
				if err := os.WriteFile(path, gotBytes, 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run `go test ./internal/regress -run TestGolden -update` and commit it): %v", path, err)
			}
			if diff := diffLines(string(want), string(gotBytes)); diff != "" {
				t.Errorf("scheduler output drifted from %s:\n%s\nIf this change is intended, regenerate with -update and commit the new golden.", path, diff)
			}
		})
	}
}

// TestGoldenDetectsDrift proves the harness actually fails on behavioral
// change: perturbing one completion time must produce a reported diff.
func TestGoldenDetectsDrift(t *testing.T) {
	sc, ok := workload.LookupScenario("uniform")
	if !ok {
		t.Fatalf("uniform scenario not in the catalog")
	}
	g, err := RunScenario(sc)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	before := marshal(t, g)
	name := online.FIFOOnline{}.Name()
	pg := g.Policies[name]
	if len(pg.Completions) == 0 {
		// Policy names are part of the pinned surface; fail loudly if the
		// lookup key rotted.
		t.Fatalf("%s missing from golden policies: %v", name, keys(g.Policies))
	}
	pg.Completions[0] += 0.125
	g.Policies[name] = pg
	after := marshal(t, g)
	if diff := diffLines(string(before), string(after)); diff == "" {
		t.Fatalf("perturbed golden compares equal — the harness cannot detect drift")
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// diffLines returns a compact line diff ("" when equal): the first run of
// differing lines with a little context, enough to see which policy and
// which value moved without pulling in a diff dependency.
func diffLines(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	reported := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		if reported == 0 && i > 0 {
			fmt.Fprintf(&b, "  %4d   %s\n", i, wl[max(0, i-1)])
		}
		fmt.Fprintf(&b, "- %4d   %s\n+ %4d   %s\n", i+1, w, i+1, g)
		reported++
		if reported >= 10 {
			fmt.Fprintf(&b, "  ... (more differences elided)\n")
			break
		}
	}
	return b.String()
}
