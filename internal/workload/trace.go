package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
)

// This file implements a parser for Facebook/Varys-style coflow traces, the
// workload format popularized by Chowdhury et al.'s Varys release (a Hive/
// MapReduce trace from a 3000-machine Facebook cluster): each record is one
// shuffle-stage coflow described by its arrival time, the racks its mappers
// and reducers are placed on, and the shuffle volume each reducer receives.
// We use a CSV rendering of that schema:
//
//	# comment lines and a "coflow,..." header are skipped
//	coflow,arrival_ms,mappers,reducers[,weight]
//	c1,0,0;1,2:100;3:50
//	c2,250,4,0:10,2.5
//
// where "mappers" is a ';'-separated list of mapper slot indices and
// "reducers" a ';'-separated list of "slot:megabytes" pairs. Slots are
// abstract placement indices (racks in the original trace); TraceConfig maps
// them onto the hosts of a concrete topology. Following Varys, the shuffle is
// a full bipartite mapper x reducer exchange with each reducer's volume split
// evenly across the mappers.

// TraceRecord is one parsed coflow: placement slots plus per-reducer shuffle
// volume in megabytes.
type TraceRecord struct {
	// ID is the trace's name for the coflow (informational).
	ID string
	// ArrivalMS is the coflow's arrival time in trace milliseconds.
	ArrivalMS float64
	// Mappers lists mapper slot indices; Reducers lists reducer slot indices,
	// index-aligned with ReducerMB (that reducer's total shuffle megabytes).
	Mappers   []int
	Reducers  []int
	ReducerMB []float64
	// Weight is the coflow's scheduling weight (1 when the column is absent).
	Weight float64
}

// Trace is a parsed coflow trace, sorted by arrival time.
type Trace struct {
	Records []TraceRecord
}

// maxTraceSlots bounds placement slot indices so a corrupt line cannot make
// Instance allocate per-slot state for an absurd index.
const maxTraceSlots = 1 << 20

// maxTraceFlows bounds the total flow expansion of a trace replay: each
// record contributes |mappers| x |reducers| flows, so a few kilobytes of
// hostile slot lists can otherwise expand quadratically into millions of
// flows (found by FuzzParseTrace). Real traces are nowhere near this.
const maxTraceFlows = 1 << 20

// ParseTrace reads a Varys-style CSV coflow trace. Comment lines (leading
// '#') and a header line whose first field is "coflow" are skipped. Records
// are returned sorted by arrival time (stable, so same-arrival records keep
// file order). Malformed lines are errors, never panics — this is a fuzz
// target.
func ParseTrace(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // weight column is optional
	cr.Comment = '#'
	cr.TrimLeadingSpace = true
	tr := &Trace{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// csv.ParseError already carries the real file position.
			return nil, fmt.Errorf("workload: trace: %w", err)
		}
		// The record ordinal is not the file line (comments and blanks are
		// skipped inside Read); FieldPos reports the true position.
		line, _ := cr.FieldPos(0)
		if len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(rec[0]), "coflow") {
			continue // header
		}
		if len(rec) < 4 || len(rec) > 5 {
			return nil, fmt.Errorf("workload: trace line %d: want 4 or 5 fields (coflow,arrival_ms,mappers,reducers[,weight]), got %d", line, len(rec))
		}
		t := TraceRecord{ID: strings.TrimSpace(rec[0]), Weight: 1}
		if t.ArrivalMS, err = parseTraceFloat(rec[1], "arrival_ms", false); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if t.Mappers, err = parseSlots(rec[2]); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: mappers: %w", line, err)
		}
		if t.Reducers, t.ReducerMB, err = parseReducers(rec[3]); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: reducers: %w", line, err)
		}
		if len(rec) == 5 {
			if t.Weight, err = parseTraceFloat(rec[4], "weight", true); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
			}
		}
		tr.Records = append(tr.Records, t)
	}
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("workload: trace has no records")
	}
	sort.SliceStable(tr.Records, func(i, j int) bool {
		return tr.Records[i].ArrivalMS < tr.Records[j].ArrivalMS
	})
	return tr, nil
}

// ParseTraceFile opens and parses a trace file.
func ParseTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTrace(f)
}

// parseTraceFloat parses a nonnegative finite float field; positive requires
// it to be strictly positive.
func parseTraceFloat(s, field string, positive bool) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: %v", field, s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (positive && v == 0) {
		return 0, fmt.Errorf("%s %v out of range", field, v)
	}
	return v, nil
}

// parseSlots parses a ';'-separated list of slot indices.
func parseSlots(s string) ([]int, error) {
	parts := strings.Split(s, ";")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("slot %q: %v", p, err)
		}
		if v < 0 || v >= maxTraceSlots {
			return nil, fmt.Errorf("slot %d out of range [0, %d)", v, maxTraceSlots)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty slot list %q", s)
	}
	return out, nil
}

// parseReducers parses a ';'-separated list of "slot:megabytes" pairs.
func parseReducers(s string) ([]int, []float64, error) {
	parts := strings.Split(s, ";")
	slots := make([]int, 0, len(parts))
	mb := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		slot, vol, ok := strings.Cut(p, ":")
		if !ok {
			return nil, nil, fmt.Errorf("reducer %q: want slot:megabytes", p)
		}
		sv, err := strconv.Atoi(strings.TrimSpace(slot))
		if err != nil {
			return nil, nil, fmt.Errorf("reducer slot %q: %v", slot, err)
		}
		if sv < 0 || sv >= maxTraceSlots {
			return nil, nil, fmt.Errorf("reducer slot %d out of range [0, %d)", sv, maxTraceSlots)
		}
		v, err := parseTraceFloat(vol, "megabytes", true)
		if err != nil {
			return nil, nil, err
		}
		slots = append(slots, sv)
		mb = append(mb, v)
	}
	if len(slots) == 0 {
		return nil, nil, fmt.Errorf("empty reducer list %q", s)
	}
	return slots, mb, nil
}

// TraceConfig controls how abstract trace slots and units map onto a concrete
// simulation topology.
type TraceConfig struct {
	// TimeUnit is the number of simulated time units per trace millisecond
	// (default 0.001: one simulated unit per trace second).
	TimeUnit float64
	// SizeUnit is the simulated volume per trace megabyte (default 0.01: a
	// 100 MB shuffle is one second of exclusive unit-capacity link use,
	// keeping replayed instances on the same scale as the synthetic ones).
	SizeUnit float64
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.TimeUnit <= 0 {
		c.TimeUnit = 0.001
	}
	if c.SizeUnit <= 0 {
		c.SizeUnit = 0.01
	}
	return c
}

// Instance realizes the trace on a topology: slot i maps onto host
// hosts[i mod len(hosts)], each coflow becomes the full bipartite mapper x
// reducer shuffle with reducer volume split evenly across mappers, and
// arrival times become flow release times. Mapper-reducer pairs that land on
// the same host (a rack-local transfer) are skipped; coflows whose transfers
// are all local are dropped. The returned arrivals are index-aligned with the
// instance's coflows and non-decreasing.
func (t *Trace) Instance(g *graph.Graph, cfg TraceConfig) (*coflow.Instance, []float64, error) {
	cfg = cfg.withDefaults()
	hosts := g.Hosts()
	if len(hosts) < 2 {
		return nil, nil, fmt.Errorf("workload: trace replay needs at least 2 hosts, topology has %d", len(hosts))
	}
	inst := &coflow.Instance{Network: g}
	var arrivals []float64
	totalFlows := 0
	for _, rec := range t.Records {
		totalFlows += len(rec.Mappers) * len(rec.Reducers)
		if totalFlows > maxTraceFlows {
			return nil, nil, fmt.Errorf("workload: trace expands to more than %d flows", maxTraceFlows)
		}
		arrival := rec.ArrivalMS * cfg.TimeUnit
		cf := coflow.Coflow{Name: rec.ID, Weight: rec.Weight}
		if cf.Name == "" {
			cf.Name = fmt.Sprintf("trace-%d", len(inst.Coflows))
		}
		if len(rec.Reducers) != len(rec.ReducerMB) {
			return nil, nil, fmt.Errorf("workload: trace coflow %s: %d reducers but %d volumes", rec.ID, len(rec.Reducers), len(rec.ReducerMB))
		}
		for ri, rslot := range rec.Reducers {
			size := rec.ReducerMB[ri] * cfg.SizeUnit / float64(len(rec.Mappers))
			dst := hosts[rslot%len(hosts)]
			for _, mslot := range rec.Mappers {
				src := hosts[mslot%len(hosts)]
				if src == dst {
					continue // rack-local transfer: no network volume
				}
				cf.Flows = append(cf.Flows, coflow.Flow{
					Source:  src,
					Dest:    dst,
					Size:    size,
					Release: arrival,
				})
			}
		}
		if len(cf.Flows) == 0 {
			continue // entirely rack-local coflow
		}
		inst.Coflows = append(inst.Coflows, cf)
		arrivals = append(arrivals, arrival)
	}
	if len(inst.Coflows) == 0 {
		return nil, nil, fmt.Errorf("workload: trace maps to no network transfers on %d hosts", len(hosts))
	}
	if err := inst.Validate(false); err != nil {
		return nil, nil, fmt.Errorf("workload: trace instance invalid: %w", err)
	}
	return inst, arrivals, nil
}
