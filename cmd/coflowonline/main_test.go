package main

import (
	"bytes"
	"encoding/csv"
	"testing"
)

// TestRunAllPoliciesCSV: -policy all -csv prints the header and one row per
// policy, every row as wide as the header (csv.Reader enforces the field
// count of the first record on the rest).
func TestRunAllPoliciesCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-policy", "all", "-coflows", "6", "-csv"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	rows, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatalf("output is not rectangular CSV: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want a header and four policies:\n%v", len(rows), rows)
	}
	if rows[0][0] != "policy" || len(rows[0]) != 12 {
		t.Errorf("header %v, want 12 columns starting with policy", rows[0])
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-policy", "nope"}, &stdout, &stderr); err == nil {
		t.Fatalf("unknown policy accepted; stdout:\n%s", stdout.String())
	}
}
