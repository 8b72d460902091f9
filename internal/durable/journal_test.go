package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tally is the smallest state a journal can vouch for: the sum of the
// advance records applied, and how many. Every record carries a distinct
// power of two, so the sum names exactly which records were applied.
type tally struct {
	Sum   float64 `json:"sum"`
	Count int     `json:"count"`
}

// recoverTally runs Recover the way a daemon does: the snapshot body lands in
// a scratch value, restore adopts it, apply folds the log suffix in.
func recoverTally(t *testing.T, dir string, logger *slog.Logger) (*Journal, *tally, bool, error) {
	t.Helper()
	var persist, state tally
	restored := false
	j, err := Recover(dir, logger, &persist,
		func(ok bool) error {
			if ok {
				state, restored = persist, true
			}
			return nil
		},
		func(r *Record) error {
			state.Sum += r.Advance.Now
			state.Count++
			return nil
		})
	return j, &state, restored, err
}

// appendPowers appends n records valued 2^from .. 2^(from+n-1) and commits.
func appendPowers(t *testing.T, j *Journal, from, n int) {
	t.Helper()
	var seq uint64
	for i := from; i < from+n; i++ {
		var err error
		if seq, err = j.Append(advanceRec(float64(uint64(1) << i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Commit(seq); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// snapshotNow writes a snapshot of state and waits for the write to land.
func snapshotNow(t *testing.T, j *Journal, state tally) {
	t.Helper()
	written := make(chan struct{})
	j.Snapshot(func() any { return state }, func() { close(written) })
	select {
	case <-written:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot never landed")
	}
	for j.snapshotting.Load() {
		time.Sleep(time.Millisecond)
	}
}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// TestJournalRecoverProtocol walks the whole cycle both daemons rely on:
// empty boot, appends, a snapshot, more appends, a crash-shaped shutdown, and
// a recovery that restores the snapshot and replays only the suffix.
func TestJournalRecoverProtocol(t *testing.T) {
	dir := t.TempDir()
	j, state, restored, err := recoverTally(t, dir, discard())
	if err != nil || restored || state.Count != 0 {
		t.Fatalf("fresh recover: err=%v restored=%v state=%+v", err, restored, state)
	}
	// An empty log has nothing to snapshot.
	j.Snapshot(func() any { t.Error("export called on an empty log"); return nil }, func() {})
	appendPowers(t, j, 0, 3)
	snapshotNow(t, j, tally{Sum: 7, Count: 3})
	appendPowers(t, j, 3, 2)
	j.Shutdown(true)
	j.Shutdown(false) // idempotent after an abandon

	j, state, restored, err = recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	// Sum 31 with Count 5 = snapshot (7, 3) + exactly records 4 and 5.
	if !restored || state.Sum != 31 || state.Count != 5 {
		t.Fatalf("recovered restored=%v state=%+v, want snapshot + 2 replayed (sum 31, count 5)", restored, state)
	}
	if j.LastSeq() != 5 {
		t.Fatalf("log reopened at seq %d, want 5", j.LastSeq())
	}
}

// TestJournalTornTailTolerated: a crash mid-write leaves a partial final
// frame; recovery delivers the prefix and appends continue after it.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 3)
	j.Shutdown(false)

	f, err := os.OpenFile(segmentPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 500)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	f.Close()

	j, state, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	defer j.Shutdown(false)
	if state.Sum != 7 || state.Count != 3 {
		t.Fatalf("recovered %+v over torn tail, want the 3-record prefix", state)
	}
	if seq, err := j.Append(advanceRec(8)); err != nil || seq != 4 {
		t.Fatalf("append after repair: seq=%d err=%v, want 4", seq, err)
	}
}

// TestJournalBitFlipRefused: damage inside the log fails the recovery.
func TestJournalBitFlipRefused(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 3)
	j.Shutdown(false)

	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write flipped segment: %v", err)
	}
	if _, _, _, err := recoverTally(t, dir, discard()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover of bit-flipped log: %v, want ErrCorrupt", err)
	}
}

// TestJournalFallsBackToOlderSnapshot: a damaged newest snapshot degrades to
// the next older one plus more replay, and says so once in the log.
func TestJournalFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 2)
	snapshotNow(t, j, tally{Sum: 3, Count: 2})
	appendPowers(t, j, 2, 2)
	snapshotNow(t, j, tally{Sum: 15, Count: 4})
	appendPowers(t, j, 4, 1)
	j.Shutdown(false)

	if err := os.WriteFile(filepath.Join(dir, "snapshots", snapshotName(4)), []byte("{not json"), 0o644); err != nil {
		t.Fatalf("damage newest snapshot: %v", err)
	}
	var logged bytes.Buffer
	j, state, restored, err := recoverTally(t, dir, slog.New(slog.NewTextHandler(&logged, nil)))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	// Snapshot through seq 2 (3, 2) + records 3, 4, 5.
	if !restored || state.Sum != 31 || state.Count != 5 {
		t.Fatalf("recovered restored=%v state=%+v, want older snapshot + 3 replayed (sum 31, count 5)", restored, state)
	}
	if n := strings.Count(logged.String(), "skipped unreadable snapshots"); n != 1 {
		t.Fatalf("skipped-snapshot warning logged %d times, want 1:\n%s", n, logged.String())
	}
}

// TestJournalFallsBackAcrossRotation is TestJournalFallsBackToOlderSnapshot
// over a log that rotates every few records: a snapshot must not drop the
// segments an older retained snapshot still replays forward from, or the
// fallback it is kept for finds its records gone.
func TestJournalFallsBackAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		t.Fatalf("snapshot directory: %v", err)
	}
	log, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j := &Journal{Log: log, snapDir: snapDir, logger: discard()}
	appendPowers(t, j, 0, 4)
	if n := j.SegmentCount(); n < 2 {
		t.Fatalf("%d segments after 4 records, want the log rotated", n)
	}
	snapshotNow(t, j, tally{Sum: 15, Count: 4})
	appendPowers(t, j, 4, 4)
	snapshotNow(t, j, tally{Sum: 255, Count: 8})
	appendPowers(t, j, 8, 1)
	j.Shutdown(false)

	if err := os.WriteFile(filepath.Join(snapDir, snapshotName(8)), []byte("{not json"), 0o644); err != nil {
		t.Fatalf("damage newest snapshot: %v", err)
	}
	j, state, restored, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	// Snapshot through seq 4 (15, 4) + records 5 to 9.
	if !restored || state.Sum != 511 || state.Count != 9 {
		t.Fatalf("recovered restored=%v state=%+v, want older snapshot + 5 replayed (sum 511, count 9)", restored, state)
	}
}

// TestJournalRefusesSnapshotAheadOfLog: a log that ends below the snapshot
// recovery restores would hand the sequences the snapshot covers out again,
// and the next recovery would skip the records written under them.
func TestJournalRefusesSnapshotAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 3)
	j.Shutdown(false)

	snapDir := filepath.Join(dir, "snapshots")
	if _, err := writeSnapshot(snapDir, 3, tally{Sum: 7, Count: 3}); err != nil {
		t.Fatalf("snapshot level with the log: %v", err)
	}
	j, state, restored, err := recoverTally(t, dir, discard())
	if err != nil || !restored || state.Count != 3 || j.LastSeq() != 3 {
		t.Fatalf("recover level with the log: err=%v restored=%v state=%+v", err, restored, state)
	}
	j.Shutdown(false)

	if _, err := writeSnapshot(snapDir, 5, tally{Sum: 31, Count: 5}); err != nil {
		t.Fatalf("snapshot ahead of the log: %v", err)
	}
	if _, _, _, err := recoverTally(t, dir, discard()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover with the snapshot ahead of the log: %v, want ErrCorrupt", err)
	}
}

// TestJournalSnapshotCoversOnlyFsyncedRecords: records 1-2 are committed,
// 3-4 only appended when the snapshot is taken, and a power loss then keeps
// no more of the segment than was fsynced. The snapshot covers 1-4, so it must
// fsync them first: else the reopened log hands out seq 3 again and the next
// recovery skips the record committed there.
func TestJournalSnapshotCoversOnlyFsyncedRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 2)
	for i := 2; i < 4; i++ {
		if _, err := j.Append(advanceRec(float64(uint64(1) << i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	_, before := j.Stats()
	snapshotNow(t, j, tally{Sum: 15, Count: 4})
	if _, after := j.Stats(); after == before {
		t.Errorf("log fsyncs during snapshot: 0")
	}
	// Every write to a segment is followed by its fsync (commit, rotation),
	// so what the file holds now is what a power loss keeps. The abandon
	// hands the buffered rest to the page cache, which the loss then drops.
	seg := segmentPath(dir, 1)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat segment: %v", err)
	}
	j.Shutdown(true)
	if err := os.Truncate(seg, fi.Size()); err != nil {
		t.Fatalf("power loss: %v", err)
	}

	j, state, _, err := recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover after power loss: %v", err)
	}
	if state.Sum != 15 || state.Count != 4 {
		t.Fatalf("recovered %+v after power loss, want the snapshot (sum 15, count 4)", state)
	}
	if seq, err := j.Append(advanceRec(16)); err != nil || seq != 5 {
		t.Errorf("append after power loss: seq=%d err=%v, want 5", seq, err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	j.Shutdown(false)

	j, state, _, err = recoverTally(t, dir, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	if state.Sum != 31 || state.Count != 5 {
		t.Fatalf("recovered %+v, want every committed record (sum 31, count 5)", state)
	}
}

// TestJournalOneSnapshotInFlight: while a snapshot write is outstanding, a
// second Snapshot neither exports nor writes.
func TestJournalOneSnapshotInFlight(t *testing.T) {
	release := make(chan struct{})
	testSnapshotWrite = func() { <-release }
	defer func() { testSnapshotWrite = nil }()
	j, _, _, err := recoverTally(t, t.TempDir(), discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	appendPowers(t, j, 0, 2)

	written := make(chan struct{})
	j.Snapshot(func() any { return tally{Sum: 3, Count: 2} }, func() { close(written) })
	j.Snapshot(func() any { t.Error("second snapshot exported while the first is in flight"); return nil },
		func() { t.Error("second snapshot written") })
	close(release)
	<-written
}

// TestJournalAppendFailureLoggedOnce: a fail-stopped log errors every append
// but says so once.
func TestJournalAppendFailureLoggedOnce(t *testing.T) {
	var logged bytes.Buffer
	j, _, _, err := recoverTally(t, t.TempDir(), slog.New(slog.NewTextHandler(&logged, nil)))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	j.Abandon()
	for i := 0; i < 3; i++ {
		if _, err := j.Append(advanceRec(1)); err == nil {
			t.Fatal("append on an abandoned log succeeded")
		}
	}
	if n := strings.Count(logged.String(), "wal append failed"); n != 1 {
		t.Fatalf("append failure logged %d times, want 1:\n%s", n, logged.String())
	}
}
