package main

import (
	"math"
	"sort"
	"time"
)

// The host reference. The benchmark's host is a small virtual machine on a
// shared server, and how fast it runs memory-bound code follows what the
// server's other tenants do to the shared cache: over half an hour the same
// pass of the same binary took between 1.0 and 1.8 times its quiet time, in
// regimes that last minutes, so that no statistic over the passes of one run
// gets away from them. A fixed kernel of the benchmark's own, run between the
// passes, follows the same regimes. A change to the program under test cannot
// move the kernel; only the host can. Every time a run reports is therefore
// the measured time divided by what the host's pace around that pass predicts,
// and reads as the time on a host where the kernel takes refNominalMs.
//
// The prediction is pace^exponent, with one exponent per workload: how
// strongly that workload's window follows the kernel, fitted once on 2000
// passes logged round-robin over forty minutes (README.md, "Host reference";
// --passlog writes such a log). The four serial workloads came out at 0.80 to
// 0.90, the shard's HTTP path at 1.20, the gateway's timer-bound path at 0.08.

// refNominalMs is the kernel's unit on a quiet host of the baseline's kind.
const refNominalMs = 1.0

var (
	refSink float64
	refKeep [][]float64
)

// refUnit builds and reads back 2 MB of small slices: allocation, the
// collector, and a working set the size of a private cache, which is the mix
// the workloads' times followed most closely (a register loop moved a tenth
// as much as they did, a pointer chase through 8 MB twice as much).
func refUnit() {
	refKeep = refKeep[:0]
	for i := 0; i < 4000; i++ {
		s := make([]float64, 64)
		for j := range s {
			s[j] = float64(i + j)
		}
		refKeep = append(refKeep, s)
	}
	for _, s := range refKeep {
		for _, v := range s {
			refSink += v
		}
	}
}

// measureRef is the host's pace now: the lower quartile, in milliseconds, of
// a burst of kernel units. The burst leaves nothing on the heap.
func measureRef() float64 {
	const units = 15
	ms := make([]float64, units)
	for i := range ms {
		t0 := time.Now()
		refUnit()
		ms[i] = time.Since(t0).Seconds() * 1e3
	}
	refKeep = nil
	sort.Float64s(ms)
	return ms[units/4]
}

// hostFactor is what a pass's times are divided by: the pace around the pass
// (the geometric mean of the bursts before and after it) over the nominal
// pace, to the workload's exponent.
func hostFactor(before, after, exponent float64) float64 {
	return math.Pow(math.Sqrt(before*after)/refNominalMs, exponent)
}
