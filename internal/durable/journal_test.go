package durable

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"os"
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
func recoverTally(t *testing.T, dir string, store BlobStore, logger *slog.Logger) (*Journal, *tally, bool, error) {
	t.Helper()
	var persist, state tally
	restored := false
	j, err := Recover(dir, store, logger, &persist,
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
	j, state, restored, err := recoverTally(t, dir, nil, discard())
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

	j, state, restored, err = recoverTally(t, dir, nil, discard())
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
	j, _, _, err := recoverTally(t, dir, nil, discard())
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

	j, state, _, err := recoverTally(t, dir, nil, discard())
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
	j, _, _, err := recoverTally(t, dir, nil, discard())
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
	if _, _, _, err := recoverTally(t, dir, nil, discard()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover of bit-flipped log: %v, want ErrCorrupt", err)
	}
}

// TestJournalFallsBackToOlderSnapshot: a damaged newest snapshot degrades to
// the next older one plus more replay, and says so once in the log.
func TestJournalFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(t.TempDir()) // an explicit store, as internal/server's tests hand newServer one
	if err != nil {
		t.Fatalf("dir store: %v", err)
	}
	j, _, _, err := recoverTally(t, dir, store, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 2)
	snapshotNow(t, j, tally{Sum: 3, Count: 2})
	appendPowers(t, j, 2, 2)
	snapshotNow(t, j, tally{Sum: 15, Count: 4})
	appendPowers(t, j, 4, 1)
	j.Shutdown(false)

	if err := store.Put(context.Background(), snapshotKey(4), strings.NewReader("{not json")); err != nil {
		t.Fatalf("damage newest snapshot: %v", err)
	}
	var logged bytes.Buffer
	j, state, restored, err := recoverTally(t, dir, store, slog.New(slog.NewTextHandler(&logged, nil)))
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
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("dir store: %v", err)
	}
	log, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j := &Journal{Log: log, store: store, logger: discard()}
	appendPowers(t, j, 0, 4)
	if n := j.SegmentCount(); n < 2 {
		t.Fatalf("%d segments after 4 records, want the log rotated", n)
	}
	snapshotNow(t, j, tally{Sum: 15, Count: 4})
	appendPowers(t, j, 4, 4)
	snapshotNow(t, j, tally{Sum: 255, Count: 8})
	appendPowers(t, j, 8, 1)
	j.Shutdown(false)

	if err := store.Put(context.Background(), snapshotKey(8), strings.NewReader("{not json")); err != nil {
		t.Fatalf("damage newest snapshot: %v", err)
	}
	j, state, restored, err := recoverTally(t, dir, store, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	// Snapshot through seq 4 (15, 4) + records 5 to 9.
	if !restored || state.Sum != 511 || state.Count != 9 {
		t.Fatalf("recovered restored=%v state=%+v, want older snapshot + 5 replayed (sum 511, count 9)", restored, state)
	}
}

// TestJournalRefusesLogBehindReplay: a log that reopens short of what replay
// delivered would reuse sequences the state already holds.
func TestJournalRefusesLogBehindReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := recoverTally(t, dir, nil, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	appendPowers(t, j, 0, 3)
	j.Shutdown(false)

	if _, err := openAfterReplay(dir, 5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open behind replay: %v, want ErrCorrupt", err)
	}
	log, err := openAfterReplay(dir, 3)
	if err != nil {
		t.Fatalf("open level with replay: %v", err)
	}
	log.Close()
}

// blockingStore holds every Put until release is closed.
type blockingStore struct {
	BlobStore
	release chan struct{}
}

func (b *blockingStore) Put(ctx context.Context, key string, body io.Reader) error {
	<-b.release
	return b.BlobStore.Put(ctx, key, body)
}

// TestJournalOneSnapshotInFlight: while a snapshot write is outstanding, a
// second Snapshot neither exports nor writes.
func TestJournalOneSnapshotInFlight(t *testing.T) {
	inner, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("dir store: %v", err)
	}
	store := &blockingStore{BlobStore: inner, release: make(chan struct{})}
	j, _, _, err := recoverTally(t, t.TempDir(), store, discard())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer j.Shutdown(false)
	appendPowers(t, j, 0, 2)

	written := make(chan struct{})
	j.Snapshot(func() any { return tally{Sum: 3, Count: 2} }, func() { close(written) })
	j.Snapshot(func() any { t.Error("second snapshot exported while the first is in flight"); return nil },
		func() { t.Error("second snapshot written") })
	close(store.release)
	<-written
}

// TestJournalAppendFailureLoggedOnce: a fail-stopped log errors every append
// but says so once.
func TestJournalAppendFailureLoggedOnce(t *testing.T) {
	var logged bytes.Buffer
	j, _, _, err := recoverTally(t, t.TempDir(), nil, slog.New(slog.NewTextHandler(&logged, nil)))
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
