package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// pinnedRuns are the coflowbench invocations whose stdout is held to
// testdata/experiments.sha256: every offline experiment and the scenario
// sweep in text and -json, and every table with a CSV form in -csv. The
// online sweep's text and -json are left out because they carry wall-clock
// solve latencies.
var pinnedRuns = func() [][]string {
	var runs [][]string
	for _, format := range []string{"", "-json"} {
		for _, e := range []string{"fig1", "table1", "fig3", "fig4", "ablation", "scenarios"} {
			runs = append(runs, pinnedArgs(e, format))
		}
	}
	for _, e := range []string{"fig3", "fig4", "online", "scenarios"} {
		runs = append(runs, pinnedArgs(e, "-csv"))
	}
	return runs
}()

func pinnedArgs(experiment, format string) []string {
	args := []string{"-experiment", experiment}
	if format != "" {
		args = append(args, format)
	}
	return args
}

// TestExperimentsPinned holds the printed evaluation to committed
// fingerprints: the SHA-256 of run's stdout for each of pinnedRuns, one
// "<hex>  <args>" line each in testdata/experiments.sha256. A change to a
// seed, to the order an experiment draws from its rng, to a scheduler's
// result or to the printer's layout moves a hash.
func TestExperimentsPinned(t *testing.T) {
	want := readFingerprints(t, "testdata/experiments.sha256")
	var got []string
	for _, args := range pinnedRuns {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
		}
		sum := sha256.Sum256(stdout.Bytes())
		got = append(got, hex.EncodeToString(sum[:])+"  "+strings.Join(args, " "))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("printed experiments drifted from the committed fingerprints\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func readFingerprints(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
