package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

// writeGenerated writes the instance `coflowgen -topology star -nodes 4
// -coflows 2 -width 2 -seed 3` prints, through the same generator and JSON
// writer (coflowgen is a main package, so its run cannot be imported), and
// returns the file's path.
func writeGenerated(t *testing.T) string {
	t.Helper()
	inst, err := workload.Generate(graph.Star(4, 1), workload.Config{
		NumCoflows: 2, Width: 2, MeanSize: 4, MeanRelease: 2, MeanWeight: 1,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := inst.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSEBFOnGeneratedInstance(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scheduler", "sebf", "-instance", writeGenerated(t)}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "total weighted completion time") {
		t.Errorf("missing objective line in output:\n%s", out)
	}
	if !strings.Contains(out, "2 coflows") {
		t.Errorf("missing instance summary in output:\n%s", out)
	}
}

// TestRunAllMatchesLP: -scheduler all prints the LP-Based line of
// -scheduler lp, objective and certified lower bound alike.
func TestRunAllMatchesLP(t *testing.T) {
	path := writeGenerated(t)
	lpLine := func(scheduler string) string {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-scheduler", scheduler, "-instance", path}, &stdout, &stderr); err != nil {
			t.Fatalf("run -scheduler %s: %v", scheduler, err)
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "LP-Based") {
				return line
			}
		}
		t.Fatalf("-scheduler %s printed no LP-Based line:\n%s", scheduler, stdout.String())
		return ""
	}
	all, lp := lpLine("all"), lpLine("lp")
	if all != lp {
		t.Errorf("-scheduler all printed\n%s\n-scheduler lp printed\n%s", all, lp)
	}
	if !strings.Contains(lp, "certified lower bound") {
		t.Errorf("LP-Based line lacks the lower bound: %s", lp)
	}
}

func TestRunInstanceFile(t *testing.T) {
	// End-to-end with coflowgen's JSON format: write a tiny instance by hand
	// and schedule it.
	path := filepath.Join(t.TempDir(), "inst.json")
	instJSON := `{
	  "nodes": [{"name":"a","kind":0},{"name":"b","kind":0},{"name":"sw","kind":3}],
	  "edges": [
	    {"from":0,"to":2,"capacity":1},{"from":2,"to":0,"capacity":1},
	    {"from":1,"to":2,"capacity":1},{"from":2,"to":1,"capacity":1}
	  ],
	  "coflows": [{"name":"c0","weight":1,"flows":[{"source":0,"dest":1,"size":2,"release":0}]}]
	}`
	if err := os.WriteFile(path, []byte(instJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scheduler", "fair", "-instance", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "total weighted completion time") {
		t.Errorf("missing objective line:\n%s", stdout.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := writeGenerated(t)
	if err := run([]string{"-scheduler", "quantum-annealer", "-instance", path}, &stdout, &stderr); err == nil {
		t.Errorf("unknown scheduler accepted")
	}
	if err := run([]string{"-topology", "klein-bottle"}, &stdout, &stderr); err == nil {
		t.Errorf("-topology accepted; coflowsim no longer generates instances")
	}
	if err := run([]string{"-instance", "/does/not/exist.json"}, &stdout, &stderr); err == nil {
		t.Errorf("missing instance file accepted")
	}
	err := run([]string{"-scheduler", "sebf"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "coflowgen") {
		t.Errorf("no -instance: err = %v, want an error naming coflowgen", err)
	}
}
