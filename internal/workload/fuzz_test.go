package workload

import (
	"bytes"
	"testing"

	"coflowsched/internal/graph"
)

// FuzzParseTrace hammers the trace parser with arbitrary bytes: it must
// either return an error or a structurally sound trace — never panic — and
// any trace it accepts must map onto a topology without panicking either.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(tinyTrace))
	f.Add([]byte(fbSampleTrace))
	f.Add([]byte("c1,0,0;1,2:5.5;3:1,2\n"))
	f.Add([]byte("coflow,arrival_ms,mappers,reducers\nx,12.5,7,0:1\n"))
	f.Add([]byte("# only a comment\n"))
	f.Add([]byte("c1,1e308,0,1:1e308\n"))
	f.Add([]byte(",,,\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		if len(tr.Records) == 0 {
			t.Fatalf("accepted trace with zero records")
		}
		for i, r := range tr.Records {
			if len(r.Mappers) == 0 || len(r.Reducers) == 0 {
				t.Fatalf("record %d accepted with empty placement", i)
			}
			if len(r.Reducers) != len(r.ReducerMB) {
				t.Fatalf("record %d has %d reducers but %d volumes", i, len(r.Reducers), len(r.ReducerMB))
			}
			if r.ArrivalMS < 0 || r.Weight <= 0 {
				t.Fatalf("record %d accepted with arrival %v weight %v", i, r.ArrivalMS, r.Weight)
			}
			if i > 0 && r.ArrivalMS < tr.Records[i-1].ArrivalMS {
				t.Fatalf("records not sorted by arrival at %d", i)
			}
		}
		// Accepted traces must realize onto a topology cleanly: an error is
		// fine (e.g. all transfers rack-local), invalid instances are not.
		inst, arrivals, err := tr.Instance(graph.Star(4, 1))
		if err != nil {
			return
		}
		if err := inst.Validate(false); err != nil {
			t.Fatalf("trace produced invalid instance: %v", err)
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i] < arrivals[i-1] {
				t.Fatalf("instance arrivals decrease at %d", i)
			}
		}
	})
}
