package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"coflowsched/internal/experiments"
)

func TestRunFig1JSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "fig1", "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	var obj map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout.String())
	}
	if obj["experiment"] != "fig1" {
		t.Errorf("experiment = %v, want fig1", obj["experiment"])
	}
	if obj["result"] == nil {
		t.Errorf("missing result in %v", obj)
	}
}

func TestRunScenarioSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", "fb-trace"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -scenario fb-trace: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "ScenarioSweep") || !strings.Contains(out, "fb-trace") {
		t.Errorf("scenario sweep output missing expected tables:\n%s", out)
	}

	stdout.Reset()
	if err := run([]string{"-scenario", "fb-trace", "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -scenario -json: %v", err)
	}
	var obj struct {
		Experiment string `json:"experiment"`
		Result     []struct {
			Scenario    string  `json:"scenario"`
			Policy      string  `json:"policy"`
			WeightedCCT float64 `json:"weighted_cct"`
		} `json:"result"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil {
		t.Fatalf("-scenario -json output is not JSON: %v\n%s", err, stdout.String())
	}
	if obj.Experiment != "scenarios" || len(obj.Result) == 0 {
		t.Errorf("unexpected JSON payload: %+v", obj)
	}
	for _, r := range obj.Result {
		if r.Scenario != "fb-trace" || r.WeightedCCT <= 0 {
			t.Errorf("degenerate result cell: %+v", r)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "fig99"}, &stdout, &stderr); err == nil {
		t.Errorf("unknown experiment accepted")
	}
	if err := run([]string{"-scenario", "no-such"}, &stdout, &stderr); err == nil {
		t.Errorf("unknown scenario accepted")
	}
	if err := run([]string{"-widths", "4,nope"}, &stdout, &stderr); err == nil {
		t.Errorf("malformed -widths accepted")
	}
	// Widths and counts below 1 would run under the workload's defaults while
	// the table labels the row with the value given.
	for _, args := range [][]string{{"-widths", "0"}, {"-widths", "-2"}, {"-counts", "0"}} {
		err := run(append([]string{"-experiment", "fig3", "-trials", "1"}, args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "positive") {
			t.Errorf("%v: err = %v, want a rejection asking for a positive integer", args, err)
		}
	}
}

// onlinePolicyNames lists the online sweep's policies in column order.
func onlinePolicyNames() []string {
	var names []string
	for _, p := range experiments.DefaultOnlineConfig().OnlinePolicies() {
		names = append(names, p.Name())
	}
	return names
}

// TestRunOnlineCSV: -experiment online -csv prints two rectangular CSV
// blocks, the absolute and the ratio panel, each a header with one column per
// policy and one row per arrival rate.
func TestRunOnlineCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "online", "-trials", "1", "-csv"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	rows, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatalf("output is not rectangular CSV: %v", err)
	}
	rates := len(experiments.DefaultOnlineConfig().ArrivalRates)
	if len(rows) != 2*(1+rates) {
		t.Fatalf("%d rows, want two blocks of a header and %d rates:\n%v", len(rows), rates, rows)
	}
	header := strings.Join(append([]string{"arrival rate"}, onlinePolicyNames()...), ",")
	for _, i := range []int{0, 1 + rates} {
		if got := strings.Join(rows[i], ","); got != header {
			t.Errorf("row %d = %q, want the header %q", i, got, header)
		}
	}
}

// TestRunOnlineJSON: -experiment online -json carries every policy's
// weighted CCT series and its fallback count.
func TestRunOnlineJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "online", "-trials", "1", "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var obj struct {
		Experiment string `json:"experiment"`
		Result     struct {
			Absolute struct {
				SeriesSet []struct {
					Name   string
					Values []float64
				}
			}
			Fallbacks map[string]int `json:"fallbacks"`
		} `json:"result"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout.String())
	}
	if obj.Experiment != "online" {
		t.Errorf("experiment = %q, want online", obj.Experiment)
	}
	cct := map[string][]float64{}
	for _, s := range obj.Result.Absolute.SeriesSet {
		cct[s.Name] = s.Values
	}
	for _, name := range onlinePolicyNames() {
		if len(cct[name]) == 0 || cct[name][0] <= 0 {
			t.Errorf("%s: weighted CCT %v, want one positive value per rate", name, cct[name])
		}
		if n, ok := obj.Result.Fallbacks[name]; !ok || n != 0 {
			t.Errorf("%s: fallbacks %d (present %v), want 0 on the default sweep", name, n, ok)
		}
	}
}

// TestRunTrialsOverride: -trials reaches Table 1 and the ablations, whose
// defaults (3 and 2 trials) it overrides like every other experiment's.
func TestRunTrialsOverride(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-trials", "2", "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var table1 struct {
		Result experiments.Table1Result `json:"result"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &table1); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(table1.Result.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(table1.Result.Rows))
	}
	for _, row := range table1.Result.Rows {
		if row.TrialsMeasured != 2 {
			t.Errorf("%s/%s: %d trials measured, want 2", row.Model, row.Paths, row.TrialsMeasured)
		}
	}

	stdout.Reset()
	if err := run([]string{"-experiment", "ablation", "-trials", "1", "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var ablation struct {
		Config experiments.AblationConfig `json:"config"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &ablation); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout.String())
	}
	if ablation.Config.Trials != 1 {
		t.Errorf("ablation ran %d trials, want 1", ablation.Config.Trials)
	}
}
