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
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// Crash-injection differential harness. A deterministic script of engine
// operations (admissions and decide+advance epochs) runs once on a reference
// engine that never crashes, and once per kill point with a WAL: the run is
// cut at the kill point, the log abandoned the way a crash would leave it,
// the engine rebuilt through recoverState, and the script's remainder
// resumed on the recovered engine. After draining both, every coflow must
// exist on both sides with the same name, arrival and completion time — the
// engine is deterministic, so recovery that is anything short of exact shows
// up as a completion-time drift here.

// crashOp is one scripted engine operation: an admission (cf != nil) at
// simulated time at, or a decide+advance epoch to time to.
type crashOp struct {
	cf *coflow.Coflow
	at float64
	to float64
}

// crashNet is the topology every harness engine runs on. Built fresh per
// engine — construction is deterministic, so routing decisions agree.
func crashNet() *graph.Graph { return graph.FatTree(4, 1) }

// crashScript builds the deterministic op sequence: 8 epochs of 1.5 time
// units, two randomized admissions before each advance.
func crashScript() []crashOp {
	hosts := crashNet().Hosts()
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

// crashEngine builds an engine with the harness configuration (the same one
// crashConfig hands recoverState).
func crashEngine(t *testing.T) *online.Engine {
	t.Helper()
	eng, err := online.NewEngine(crashNet(), online.SEBFOnline{}, online.Config{EpochLength: 2})
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	return eng
}

// crashConfig is the server config the harness recovers with.
func crashConfig(t *testing.T, dir string) Config {
	t.Helper()
	cfg, err := Config{
		Network:     crashNet(),
		Policy:      online.SEBFOnline{},
		EpochLength: 2,
		WALDir:      dir,
		Logger:      telemetry.LogfLogger(t.Logf),
	}.withDefaults()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	return cfg
}

// crashRunner drives a script against one engine, mirroring every operation
// into the WAL exactly the way the live daemon logs it (admissions
// group-committed, epochs logged as decide-advances). wal == nil is the
// reference configuration.
type crashRunner struct {
	t   *testing.T
	eng *online.Engine
	wal *durable.Log
}

func (r *crashRunner) run(op crashOp) {
	r.t.Helper()
	if op.cf != nil {
		now := op.at
		if n := r.eng.Now(); now < n {
			now = n
		}
		id, err := r.eng.Admit(*op.cf, now)
		if err != nil {
			r.t.Fatalf("admit %s: %v", op.cf.Name, err)
		}
		if r.wal != nil {
			seq, err := r.wal.Append(&durable.Record{Type: durable.RecAdmit, Admit: &durable.AdmitRecord{
				ID: id, Now: now, Spec: *op.cf,
			}})
			if err != nil {
				r.t.Fatalf("wal append admit: %v", err)
			}
			if err := r.wal.Commit(seq); err != nil {
				r.t.Fatalf("wal commit admit: %v", err)
			}
		}
		return
	}
	// One epoch: a synchronous decide then the advance, which is exactly what
	// a Decide-flagged advance record replays.
	if err := r.eng.DecideSync(); err != nil {
		r.t.Fatalf("decide: %v", err)
	}
	if op.to > r.eng.Now() {
		if err := r.eng.AdvanceTo(op.to); err != nil {
			r.t.Fatalf("advance to %v: %v", op.to, err)
		}
	}
	if r.wal != nil {
		// Not committed: like the live tick path, epoch records ride the next
		// admission's group commit (or stay in the page cache — a process
		// crash does not lose them).
		if _, err := r.wal.Append(&durable.Record{Type: durable.RecAdvance, Advance: &durable.AdvanceRecord{
			Now: r.eng.Now(), Decide: true,
		}}); err != nil {
			r.t.Fatalf("wal append advance: %v", err)
		}
	}
}

// crashOutcome is one coflow's observable fate.
type crashOutcome struct {
	name       string
	arrival    float64
	completion float64
}

// drainOutcomes runs the engine to completion and collects every coflow's
// outcome by id.
func drainOutcomes(t *testing.T, eng *online.Engine) map[int]crashOutcome {
	t.Helper()
	if err := eng.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := make(map[int]crashOutcome, eng.NumCoflows())
	for id := 0; id < eng.NumCoflows(); id++ {
		st, ok := eng.CoflowStatus(id)
		if !ok {
			t.Fatalf("coflow %d vanished", id)
		}
		if !st.Done {
			t.Fatalf("coflow %d not done after drain: %+v", id, st)
		}
		out[id] = crashOutcome{name: st.Name, arrival: st.Arrival, completion: st.Completion}
	}
	return out
}

// referenceOutcomes runs the whole script on a never-crashed engine.
func referenceOutcomes(t *testing.T, ops []crashOp) map[int]crashOutcome {
	t.Helper()
	r := &crashRunner{t: t, eng: crashEngine(t)}
	for _, op := range ops {
		r.run(op)
	}
	return drainOutcomes(t, r.eng)
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
// kill point k, run ops[:k] with a WAL, abandon the log mid-flight, recover,
// resume ops[k:], and demand the drained outcome is indistinguishable from
// the never-crashed reference.
func TestCrashRecoveryDifferential(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	for _, k := range killPoints(len(ops)) {
		t.Run(fmt.Sprintf("kill-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			wal, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatalf("open wal: %v", err)
			}
			r := &crashRunner{t: t, eng: crashEngine(t), wal: wal}
			for _, op := range ops[:k] {
				r.run(op)
			}
			wal.Abandon() // crash: no final fsync

			rec, err := recoverState(crashConfig(t, dir))
			if err != nil {
				t.Fatalf("recover after op %d: %v", k, err)
			}
			resumed := &crashRunner{t: t, eng: rec.eng, wal: rec.wal}
			for _, op := range ops[k:] {
				resumed.run(op)
			}
			if err := rec.wal.Close(); err != nil {
				t.Fatalf("close recovered wal: %v", err)
			}
			assertOutcomesMatch(t, ref, drainOutcomes(t, rec.eng))
		})
	}
}

// TestCrashRecoveryWithSnapshots interposes periodic snapshot+truncate cycles
// (the production snapshot protocol, run inline) before the crash, so
// recovery exercises RestoreEngine plus a log suffix rather than a full
// replay.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	dir := t.TempDir()
	store, err := durable.NewDirStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatalf("dir store: %v", err)
	}
	wal, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	r := &crashRunner{t: t, eng: crashEngine(t), wal: wal}
	kill := len(ops) - 3
	for i, op := range ops[:kill] {
		r.run(op)
		if (i+1)%5 == 0 {
			seq := wal.LastSeq()
			if _, err := durable.WriteSnapshot(context.Background(), store, seq,
				serverPersist{Engine: r.eng.ExportState()}); err != nil {
				t.Fatalf("snapshot at op %d: %v", i+1, err)
			}
			if err := wal.TruncateBefore(seq + 1); err != nil {
				t.Fatalf("truncate at op %d: %v", i+1, err)
			}
		}
	}
	wal.Abandon()

	rec, err := recoverState(crashConfig(t, dir))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	resumed := &crashRunner{t: t, eng: rec.eng, wal: rec.wal}
	for _, op := range ops[kill:] {
		resumed.run(op)
	}
	if err := rec.wal.Close(); err != nil {
		t.Fatalf("close recovered wal: %v", err)
	}
	assertOutcomesMatch(t, ref, drainOutcomes(t, rec.eng))
}

// TestRecoveryToleratesTornTail appends a half-written frame to the final
// segment — the footprint of a crash mid-append — and checks recovery shrugs
// it off: the torn bytes are truncated away and the log stays appendable.
func TestRecoveryToleratesTornTail(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	dir := t.TempDir()
	wal, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	r := &crashRunner{t: t, eng: crashEngine(t), wal: wal}
	for _, op := range ops {
		r.run(op)
	}
	wal.Abandon()

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

	rec, err := recoverState(crashConfig(t, dir))
	if err != nil {
		t.Fatalf("recover with torn tail: %v", err)
	}
	// The repaired log must accept new appends where the torn record was.
	seq, err := rec.wal.Append(&durable.Record{Type: durable.RecAdvance,
		Advance: &durable.AdvanceRecord{Now: rec.eng.Now()}})
	if err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := rec.wal.Commit(seq); err != nil {
		t.Fatalf("commit after repair: %v", err)
	}
	if err := rec.wal.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertOutcomesMatch(t, ref, drainOutcomes(t, rec.eng))
}

// TestRecoveryRefusesBitFlip flips one payload byte mid-log and checks boot
// fails with ErrCorrupt: a daemon must not serve from state it cannot vouch
// for.
func TestRecoveryRefusesBitFlip(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	wal, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	r := &crashRunner{t: t, eng: crashEngine(t), wal: wal}
	for _, op := range ops {
		r.run(op)
	}
	wal.Abandon()

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

	if _, err := recoverState(crashConfig(t, dir)); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("recover from bit-flipped log: err = %v, want ErrCorrupt", err)
	}
}

// TestRecoveryFallsBackToOlderSnapshot corrupts the newest snapshot and
// checks boot restores the older one and replays the longer log suffix,
// still landing on the reference outcome.
func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	ops := crashScript()
	ref := referenceOutcomes(t, ops)

	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snapshots")
	store, err := durable.NewDirStore(snapDir)
	if err != nil {
		t.Fatalf("dir store: %v", err)
	}
	wal, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	r := &crashRunner{t: t, eng: crashEngine(t), wal: wal}
	snapshot := func() {
		// Deliberately no truncation: the fallback needs the full suffix after
		// the OLDER snapshot to still be on disk.
		if _, err := durable.WriteSnapshot(context.Background(), store, wal.LastSeq(),
			serverPersist{Engine: r.eng.ExportState()}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	half := len(ops) / 2
	for _, op := range ops[:half] {
		r.run(op)
	}
	snapshot()
	for _, op := range ops[half:] {
		r.run(op)
	}
	snapshot()
	wal.Abandon()

	snaps, err := filepath.Glob(filepath.Join(snapDir, "snap-*.json"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots on disk = %v (%v), want 2", snaps, err)
	}
	sort.Strings(snaps)
	if err := os.WriteFile(snaps[len(snaps)-1], []byte("{torn"), 0o644); err != nil {
		t.Fatalf("corrupt newest snapshot: %v", err)
	}

	rec, err := recoverState(crashConfig(t, dir))
	if err != nil {
		t.Fatalf("recover with corrupt newest snapshot: %v", err)
	}
	if err := rec.wal.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertOutcomesMatch(t, ref, drainOutcomes(t, rec.eng))
}
