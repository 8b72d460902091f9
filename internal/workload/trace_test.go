package workload

import (
	"strings"
	"testing"

	"coflowsched/internal/graph"
)

const tinyTrace = `# comment
coflow,arrival_ms,mappers,reducers,weight
late,1000,0;1,2:100;3:50,2
early,0,4,0:10
`

func TestParseTrace(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(tinyTrace))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(tr.Records))
	}
	// Sorted by arrival: "early" first despite file order.
	if tr.Records[0].ID != "early" || tr.Records[1].ID != "late" {
		t.Errorf("records not sorted by arrival: %q, %q", tr.Records[0].ID, tr.Records[1].ID)
	}
	early := tr.Records[0]
	if early.ArrivalMS != 0 || len(early.Mappers) != 1 || early.Mappers[0] != 4 {
		t.Errorf("early record parsed wrong: %+v", early)
	}
	if early.Weight != 1 {
		t.Errorf("missing weight column should default to 1, got %v", early.Weight)
	}
	late := tr.Records[1]
	if late.Weight != 2 {
		t.Errorf("late weight = %v, want 2", late.Weight)
	}
	if len(late.Reducers) != 2 || late.Reducers[0] != 2 || late.ReducerMB[0] != 100 {
		t.Errorf("late reducers parsed wrong: %v %v", late.Reducers, late.ReducerMB)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"too few fields":   "c1,0,1\n",
		"bad arrival":      "c1,xyz,0,1:5\n",
		"negative arrival": "c1,-3,0,1:5\n",
		"bad mapper":       "c1,0,a;b,1:5\n",
		"empty mappers":    "c1,0,;,1:5\n",
		"bad reducer pair": "c1,0,0,1\n",
		"zero megabytes":   "c1,0,0,1:0\n",
		"bad weight":       "c1,0,0,1:5,nope\n",
		"huge slot":        "c1,0,9999999999,1:5\n",
	}
	for name, in := range cases {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

func TestParseTraceErrorLineNumbers(t *testing.T) {
	// Comments and blank lines are skipped by the CSV reader, so naive
	// record counting would report "line 2" here; the error must point at
	// the real file line of the malformed record.
	in := "# comment\n\nc1,0,0,1:5\nc2,bad,0,1:5\n"
	_, err := ParseTrace(strings.NewReader(in))
	if err == nil {
		t.Fatalf("want error for malformed arrival")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q should reference file line 4", err)
	}
}

func TestTraceInstance(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(tinyTrace))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	g := graph.Star(6, 1)
	inst, arrivals, err := tr.Instance(g)
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if err := inst.Validate(false); err != nil {
		t.Fatalf("instance invalid: %v", err)
	}
	if len(arrivals) != len(inst.Coflows) {
		t.Fatalf("%d arrivals for %d coflows", len(arrivals), len(inst.Coflows))
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Errorf("arrivals decrease at %d: %v < %v", i, arrivals[i], arrivals[i-1])
		}
	}
	// "late" (arrival 1000ms, traceTimeUnit 0.001) must release at 1.0.
	lateIdx := -1
	for i, cf := range inst.Coflows {
		if cf.Name == "late" {
			lateIdx = i
		}
	}
	if lateIdx < 0 {
		t.Fatalf("coflow 'late' missing from instance")
	}
	if got := arrivals[lateIdx]; got != 1.0 {
		t.Errorf("late arrival = %v, want 1.0", got)
	}
	// 2 mappers x 2 reducers = 4 flows (star hosts are all distinct slots
	// here, so nothing is rack-local); each flow carries MB/2 * traceSizeUnit.
	late := inst.Coflows[lateIdx]
	if len(late.Flows) != 4 {
		t.Fatalf("late has %d flows, want 4", len(late.Flows))
	}
	wantSizes := map[float64]int{100.0 / 2 * 0.01: 2, 50.0 / 2 * 0.01: 2}
	gotSizes := map[float64]int{}
	for _, f := range late.Flows {
		gotSizes[f.Size]++
	}
	for size, n := range wantSizes {
		if gotSizes[size] != n {
			t.Errorf("flow sizes %v, want %d flows of size %v", gotSizes, n, size)
		}
	}
}

func TestTraceInstanceLocalTransfers(t *testing.T) {
	// Two hosts: slots 0 and 2 collide (2 mod 2 = 0), so the mapper-reducer
	// pair is rack-local and the coflow must be dropped; a trace that is all
	// local maps to no transfers and errors.
	tr, err := ParseTrace(strings.NewReader("c1,0,0,2:10\n"))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if _, _, err := tr.Instance(graph.Line(2, 1)); err == nil {
		t.Fatalf("all-local trace should fail to build an instance")
	}
	// On 3 hosts the same trace is a real transfer (2 mod 3 = 2 != 0).
	inst, _, err := tr.Instance(graph.Line(3, 1))
	if err != nil {
		t.Fatalf("Instance on 3 hosts: %v", err)
	}
	if n := inst.NumFlows(); n != 1 {
		t.Errorf("got %d flows, want 1", n)
	}
}
