package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/graph"
)

// Crash-injection differential harness. A deterministic script of daemon
// operations (admissions through the HTTP API and epoch ticks, each at a
// scripted simulated time) runs once on a stepped Server that never crashes,
// and once per kill point on a stepped Server with a WAL: the run is cut at the
// kill point by Kill, which abandons the log the way a crash would leave it, a
// new Server recovers from the same directory, and the script's remainder
// resumes on it. After draining both, every coflow must exist on both sides
// with the same name, arrival and completion time — the engine is
// deterministic, so recovery that is anything short of exact shows up as a
// completion-time drift here. The records under test are the ones the daemon's
// own admit and tick paths write.

// crashOp is one scripted operation: an admission (cf != nil) at simulated
// time at, or an epoch tick at time to.
type crashOp struct {
	cf *coflow.Coflow
	at float64
	to float64
}

// crashScript builds the deterministic op sequence: 8 epochs of 1.5 time
// units, two randomized admissions before each tick.
func crashScript() []crashOp {
	hosts := graph.FatTree(4, 1).Hosts()
	rng := rand.New(rand.NewSource(11))
	var ops []crashOp
	now, next := 0.0, 0
	for e := 0; e < 8; e++ {
		for a := 0; a < 2; a++ {
			cf := coflow.Coflow{Name: fmt.Sprintf("crash-%d", next), Weight: 0.5 + rng.Float64()}
			width := 2 + rng.Intn(3)
			for f := 0; f < width; f++ {
				si, di := rng.Intn(len(hosts)), rng.Intn(len(hosts))
				if si == di {
					di = (di + 1) % len(hosts)
				}
				cf.Flows = append(cf.Flows, coflow.Flow{
					Source:  hosts[si],
					Dest:    hosts[di],
					Size:    1 + 4*rng.Float64(),
					Release: rng.Float64(),
				})
			}
			ops = append(ops, crashOp{cf: &cf, at: now + rng.Float64()})
			next++
		}
		now += 1.5
		ops = append(ops, crashOp{to: now})
	}
	return ops
}

// run applies ops to the stepped server in order.
func (s *stepped) run(t *testing.T, ops []crashOp) {
	t.Helper()
	for _, op := range ops {
		if op.cf != nil {
			s.admitAt(t, op.at, *op.cf)
		} else {
			s.tickAt(t, op.to)
		}
	}
}

// crashServer boots a stepped server with a log under dir, recovering
// whatever an earlier incarnation left there.
func crashServer(t *testing.T, dir string) *stepped {
	t.Helper()
	return mustStartStepped(t, steppedConfig(t, dir))
}

// crashOutcome is one coflow's observable fate.
type crashOutcome struct {
	name       string
	arrival    float64
	completion float64
}

// drainOutcomes drains the server and collects every coflow's outcome by id.
func drainOutcomes(t *testing.T, s *stepped) map[int]crashOutcome {
	t.Helper()
	if _, err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := make(map[int]crashOutcome)
	if err := s.do(context.Background(), func() {
		for id := 0; id < s.eng.NumCoflows(); id++ {
			st, _ := s.eng.CoflowStatus(id)
			if !st.Done {
				t.Errorf("coflow %d not done after drain: %+v", id, st)
			}
			out[id] = crashOutcome{name: st.Name, arrival: st.Arrival, completion: st.Completion}
		}
	}); err != nil {
		t.Fatalf("collect outcomes: %v", err)
	}
	return out
}

// referenceOutcomes runs the whole script on a never-crashed server.
func referenceOutcomes(t *testing.T, ops []crashOp) map[int]crashOutcome {
	t.Helper()
	s := mustStartStepped(t, steppedConfig(t, ""))
	s.run(t, ops)
	return drainOutcomes(t, s)
}

// assertOutcomesMatch compares a recovered run against the reference within
// the harness tolerance.
func assertOutcomesMatch(t *testing.T, ref, got map[int]crashOutcome) {
	t.Helper()
	const tol = 1e-9
	if len(got) != len(ref) {
		t.Fatalf("recovered run finished %d coflows, reference %d", len(got), len(ref))
	}
	for id, want := range ref {
		have, ok := got[id]
		if !ok {
			t.Errorf("coflow %d missing from recovered run", id)
			continue
		}
		if have.name != want.name {
			t.Errorf("coflow %d name = %q, reference %q", id, have.name, want.name)
		}
		if math.Abs(have.arrival-want.arrival) > tol {
			t.Errorf("coflow %d arrival = %v, reference %v", id, have.arrival, want.arrival)
		}
		if math.Abs(have.completion-want.completion) > tol {
			t.Errorf("coflow %d completion = %v, reference %v (drift %g)",
				id, have.completion, want.completion, math.Abs(have.completion-want.completion))
		}
	}
}

// killPoints picks the op indices the differential test crashes after: both
// boundaries plus a randomized sample in between.
func killPoints(n int) []int {
	rng := rand.New(rand.NewSource(42))
	set := map[int]bool{1: true, n: true}
	for len(set) < 8 {
		set[1+rng.Intn(n)] = true
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestCrashRecoveryDifferential is the core crash-injection harness: for each
// kill point k, run ops[:k] on a durable server, kill it, recover a new one
// from the same directory, resume ops[k:], and demand the drained outcome is
// indistinguishable from the never-crashed reference.
func TestCrashRecoveryDifferential(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	for _, k := range killPoints(len(ops)) {
		t.Run(fmt.Sprintf("kill-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s := crashServer(t, dir)
			s.run(t, ops[:k])
			s.Kill() // crash: no final fsync

			resumed := crashServer(t, dir)
			resumed.run(t, ops[k:])
			assertOutcomesMatch(t, ref, drainOutcomes(t, resumed))
		})
	}
}

// TestCrashRecoveryWithSnapshots fires the server's snapshot tick (the
// production snapshot protocol: write, truncate, prune) every five ops before
// the crash, so recovery exercises RestoreEngine plus a log suffix rather than
// a full replay.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	dir := t.TempDir()
	s := crashServer(t, dir)
	kill := len(ops) - 3
	for i := range ops[:kill] {
		s.run(t, ops[i:i+1])
		if (i+1)%5 == 0 {
			s.snapshot(t)
		}
	}
	s.Kill()

	resumed := crashServer(t, dir)
	resumed.run(t, ops[kill:])
	assertOutcomesMatch(t, ref, drainOutcomes(t, resumed))
}

// TestRecoveryToleratesTornTail appends a half-written frame to the final
// segment — the footprint of a crash mid-append — and checks recovery shrugs
// it off: the torn bytes are truncated away and the log stays appendable.
func TestRecoveryToleratesTornTail(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	dir := t.TempDir()
	s := crashServer(t, dir)
	s.run(t, ops)
	s.Kill()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	frame := durable.AppendFrame(nil, []byte(`{"seq":999,"type":"advance","advance":{"now":1}}`))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	resumed := crashServer(t, dir)
	// The repaired log must accept new appends where the torn record was: a
	// tick at the recovered clock logs its advance and order there.
	last := resumed.wal.LastSeq()
	resumed.tickAt(t, resumed.clk.now())
	if resumed.wal.LastSeq() == last {
		t.Fatal("tick after repair appended nothing")
	}
	if err := resumed.wal.Sync(); err != nil {
		t.Fatalf("commit after repair: %v", err)
	}
	assertOutcomesMatch(t, ref, drainOutcomes(t, resumed))
}

// TestRecoveryRefusesBitFlip flips one payload byte mid-log and checks boot
// fails with ErrCorrupt: a daemon must not serve from state it cannot vouch
// for.
func TestRecoveryRefusesBitFlip(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	s := crashServer(t, dir)
	s.run(t, ops)
	s.Kill()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[12] ^= 0x40 // inside the first record's payload: CRC must catch it
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatalf("write corrupted segment: %v", err)
	}

	if _, err := startStepped(t, steppedConfig(t, dir)); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("recover from bit-flipped log: err = %v, want ErrCorrupt", err)
	}
}

// TestRecoveryFallsBackToOlderSnapshot corrupts the newest snapshot and
// checks boot restores the older one and replays the longer log suffix,
// still landing on the reference outcome. Both snapshots are the server's
// own (maybeSnapshot, fired by the snapshot tick): a snapshot truncates only
// the log prefix every retained snapshot covers, so the suffix after the
// older one stays on disk.
func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snapshots")
	s := crashServer(t, dir)
	half := len(ops) / 2
	s.run(t, ops[:half])
	s.snapshot(t)
	s.run(t, ops[half:])
	s.snapshot(t)
	s.Kill()

	snaps, err := filepath.Glob(filepath.Join(snapDir, "snap-*.json"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots on disk = %v (%v), want 2", snaps, err)
	}
	sort.Strings(snaps)
	if err := os.WriteFile(snaps[len(snaps)-1], []byte("{torn"), 0o644); err != nil {
		t.Fatalf("corrupt newest snapshot: %v", err)
	}

	assertOutcomesMatch(t, ref, drainOutcomes(t, crashServer(t, dir)))
}
