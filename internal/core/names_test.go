package core

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/workload"
)

var updateNames = flag.Bool("update-names", false, "rewrite testdata/names/*.lp from the LPs' current String()")

// namedLP is one LP whose text form is committed under testdata/names.
type namedLP struct {
	name string
	m    *intervalLP
}

// namedLPs builds one LP per builder: a free-path LP of 2 coflows x 2 flows
// over four candidate paths (releases in intervals 1 and 2; its 116 capacity
// rows are those of intervals 1 to 4, the later ones left out as slack), the
// three-flow given-path LP of solveCases — the shape online.LPEpoch re-solves;
// 42 capacity rows, the 112 that can never bind left out — and the exact
// arc-flow LP of Figure 1's triangle.
func namedLPs(t *testing.T) []namedLP {
	t.Helper()
	generate := func(coflows, width int) *coflow.Instance {
		inst, err := workload.Generate(graph.FatTree(4, 1), workload.Config{
			NumCoflows: coflows, Width: width, MeanSize: 4, MeanRelease: 2}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	built := func(m *intervalLP, err error) *intervalLP {
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	given := generate(3, 1)
	if err := given.AssignShortestPaths(); err != nil {
		t.Fatal(err)
	}
	return []namedLP{
		{"freepath-2x2", built(freePathBuild(generate(2, 2)))},
		{"givenpath-residual", built(CircuitGivenPaths{}.buildLP(given))},
		{"arcs-figure1", built(CircuitFreePathsExact{}.buildLP(figure1Instance(t, false)))},
	}
}

// TestProblemStringGolden holds the names the builders derive on demand to the
// text the LPs printed when every variable and row still carried a formatted
// name (testdata/names, written at d92c29a; givenpath-residual.lp rewritten
// without the rows that can never bind, the 42 rows it kept unchanged): byte
// for byte, so a layout the namer misreads shows as the first line that
// differs.
func TestProblemStringGolden(t *testing.T) {
	for _, tc := range namedLPs(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "names", tc.name+".lp")
			got := tc.m.prob.String()
			if *updateNames {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i, wantLine := range wantLines {
				if i >= len(gotLines) {
					break
				}
				if gotLines[i] != wantLine {
					t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gotLines[i], wantLine)
				}
			}
			t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
		})
	}
}
