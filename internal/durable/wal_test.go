package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// advanceRec builds a minimal valid record (seq is assigned by Append).
func advanceRec(now float64) *Record {
	return &Record{Type: RecAdvance, Advance: &AdvanceRecord{Now: now}}
}

// collectReplay replays dir from `from` and returns the records seen.
func collectReplay(t *testing.T, dir string, from uint64) []*Record {
	t.Helper()
	var recs []*Record
	last, err := Replay(dir, from, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay from %d: %v", from, err)
	}
	if len(recs) > 0 && recs[len(recs)-1].Seq != last {
		t.Fatalf("replay reported last seq %d, delivered through %d", last, recs[len(recs)-1].Seq)
	}
	return recs
}

func TestLogAppendCommitReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		seq, err := l.Append(advanceRec(float64(i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d, want %d", i, seq, i+1)
		}
	}
	if err := l.Commit(n); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := l.LastSeq(); got != n {
		t.Fatalf("last seq %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recs := collectReplay(t, dir, 1)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Type != RecAdvance || r.Advance == nil {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		if r.Advance.Now != float64(i) {
			t.Fatalf("record %d carries now %v, want %d", i, r.Advance.Now, i)
		}
	}

	// Replay honors the floor: from seq 10 the first delivered record is 10.
	tail := collectReplay(t, dir, 10)
	if len(tail) != n-9 || tail[0].Seq != 10 {
		t.Fatalf("replay from 10 delivered %d records starting at %d", len(tail), tail[0].Seq)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := l.Append(advanceRec(1))
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append/commit: %v", err)
	}
	if got := l.LastSeq(); got != writers*perWriter {
		t.Fatalf("last seq %d, want %d", got, writers*perWriter)
	}
	appends, syncs := l.Stats()
	if appends != writers*perWriter {
		t.Fatalf("append counter %d, want %d", appends, writers*perWriter)
	}
	// Group commit: the whole point is fewer fsyncs than commits. With 8
	// concurrent committers at least some must share a sync; equality would
	// mean batching never happened.
	if syncs >= appends {
		t.Fatalf("%d fsyncs for %d appends: group commit is not batching", syncs, appends)
	}
}

// TestLogCommitDuringRotation forces the interleaving where a Commit's fsync
// is in flight when a concurrent Append rotates (fsyncs + closes) the same
// file. The doomed Sync on the closed file must not become the sticky
// failure: the rotation's own fsync already made the Commit's target durable,
// so a healthy log must keep accepting work.
func TestLogCommitDuringRotation(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 makes every append after a segment's first rotate.
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()

	seq1, err := l.Append(advanceRec(1))
	if err != nil {
		t.Fatalf("append: %v", err)
	}

	// Hold the committer between releasing the lock and issuing its fsync
	// while an Append rotates the segment out from under it.
	entered := make(chan struct{})
	release := make(chan struct{})
	testCommitSyncDelay = func() {
		close(entered)
		<-release
	}
	defer func() { testCommitSyncDelay = nil }()

	commitErr := make(chan error, 1)
	go func() { commitErr <- l.Commit(seq1) }()
	<-entered
	testCommitSyncDelay = nil // only the in-flight Commit should stall
	if _, err := l.Append(advanceRec(2)); err != nil {
		t.Fatalf("rotating append: %v", err)
	}
	close(release)

	if err := <-commitErr; err != nil {
		t.Fatalf("commit racing rotation: %v", err)
	}
	// The log must still be healthy: the rotation made seq1 durable, so the
	// closed-file Sync was not a durability failure.
	if err := l.Err(); err != nil {
		t.Fatalf("sticky error after benign rotation race: %v", err)
	}
	if _, err := l.Append(advanceRec(3)); err != nil {
		t.Fatalf("append after rotation race: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after rotation race: %v", err)
	}
}

func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append(advanceRec(float64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("%d segments after %d appends at 256-byte rotation, want several", l.SegmentCount(), n)
	}

	// Replay across segment boundaries sees every record exactly once.
	if recs := collectReplay(t, dir, 1); len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}

	// A snapshot covering sequences <= 20 lets the prefix go.
	before := l.SegmentCount()
	if err := l.TruncateBefore(21); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if l.SegmentCount() >= before {
		t.Fatalf("truncate kept all %d segments", l.SegmentCount())
	}
	recs := collectReplay(t, dir, 21)
	if len(recs) == 0 || recs[0].Seq > 21 || recs[len(recs)-1].Seq != n {
		t.Fatalf("replay after truncation delivered %d records", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// But replaying from before the truncation point must fail loudly: those
	// records are gone, not silently absent.
	if _, err := Replay(dir, 1, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay across truncated prefix: %v, want ErrCorrupt", err)
	}
}

func TestLogReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(advanceRec(float64(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	seq, err := l2.Append(advanceRec(99))
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if seq != 6 {
		t.Fatalf("append after reopen assigned seq %d, want 6", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if recs := collectReplay(t, dir, 1); len(recs) != 6 {
		t.Fatalf("replayed %d records after reopen, want 6", len(recs))
	}
}

func TestLogRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(advanceRec(float64(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Simulate a crash mid-write: a frame header claiming more payload than
	// follows.
	seg := segmentPath(dir, 1)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 500)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	f.Close()

	// Replay tolerates the tear (final segment) and still sees the prefix.
	if recs := collectReplay(t, dir, 1); len(recs) != 3 {
		t.Fatalf("replayed %d records over torn tail, want 3", len(recs))
	}

	// Reopen repairs by truncation; the next append lands on seq 4 and the
	// log is clean again.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	seq, err := l2.Append(advanceRec(3))
	if err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if seq != 4 {
		t.Fatalf("append after repair assigned seq %d, want 4", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if recs := collectReplay(t, dir, 1); len(recs) != 4 {
		t.Fatalf("replayed %d records after repair, want 4", len(recs))
	}
}

func TestLogDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(advanceRec(float64(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write flipped segment: %v", err)
	}

	if _, err := Replay(dir, 1, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of bit-flipped log: %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of bit-flipped log: %v, want ErrCorrupt", err)
	}
}

func TestLogRejectsTornMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(advanceRec(float64(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if l.SegmentCount() < 2 {
		t.Fatalf("need at least 2 segments, have %d", l.SegmentCount())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Chop bytes off a NON-final segment: that is corruption, not a tear.
	first := segmentPath(dir, 1)
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	if _, err := Replay(dir, 1, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay with torn middle segment: %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with torn middle segment: %v, want ErrCorrupt", err)
	}
}

func TestLogCommitOfUnappendedSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(advanceRec(0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Commit(2); err == nil {
		t.Fatal("commit of unappended sequence succeeded")
	}
}

func TestLogClosedAndAbandon(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	seq, err := l.Append(advanceRec(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatalf("commit: %v", err)
	}
	unsynced, err := l.Append(advanceRec(1))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Abandon()
	if _, err := l.Append(advanceRec(2)); !errors.Is(err, errLogClosed) {
		t.Fatalf("append after abandon: %v, want errLogClosed", err)
	}
	// A sequence that was already durable commits fine even after abandon;
	// one that never reached disk reports the closed log.
	if err := l.Commit(seq); err != nil {
		t.Fatalf("commit of durable seq after abandon: %v", err)
	}
	if err := l.Commit(unsynced); !errors.Is(err, errLogClosed) {
		t.Fatalf("commit of unsynced seq after abandon: %v, want errLogClosed", err)
	}
	// Both records are readable after an abandon: the unsynced one made it to
	// the page cache, which survives a process crash (only a machine crash
	// loses it — that is exactly the at-most-the-tail loss the torn-tail
	// repair covers).
	if recs := collectReplay(t, dir, 1); len(recs) != 2 {
		t.Fatalf("replayed %d records after abandon, want 2", len(recs))
	}
}

func TestLogRecordValidation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	// Mistyped: type says admit, payload is advance.
	if _, err := l.Append(&Record{Type: RecAdmit, Advance: &AdvanceRecord{}}); err == nil {
		t.Fatal("append of mistyped record succeeded")
	}
	// Two payloads.
	if _, err := l.Append(&Record{Type: RecAdvance, Advance: &AdvanceRecord{}, Complete: &CompleteRecord{}}); err == nil {
		t.Fatal("append of double-payload record succeeded")
	}
	// A rejected append must not consume a sequence number.
	seq, err := l.Append(advanceRec(0))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if seq != 1 {
		t.Fatalf("first valid append got seq %d, want 1", seq)
	}
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	type state struct {
		N int `json:"n"`
	}
	for i := 1; i <= 5; i++ {
		if _, err := writeSnapshot(dir, uint64(i*10), state{N: i}); err != nil {
			t.Fatalf("write snapshot %d: %v", i, err)
		}
	}
	var got state
	seq, ok, skipped, err := latestSnapshot(dir, &got)
	if err != nil || !ok || skipped != 0 {
		t.Fatalf("latest: seq=%d ok=%v skipped=%d err=%v", seq, ok, skipped, err)
	}
	if seq != 50 || got.N != 5 {
		t.Fatalf("latest snapshot seq=%d state=%+v, want 50/{5}", seq, got)
	}

	// Corrupt the newest: recovery degrades to the next older one.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(50)), []byte("{not json"), 0o644); err != nil {
		t.Fatalf("corrupt newest: %v", err)
	}
	seq, ok, skipped, err = latestSnapshot(dir, &got)
	if err != nil || !ok {
		t.Fatalf("latest after corruption: ok=%v err=%v", ok, err)
	}
	if seq != 40 || got.N != 4 || skipped != 1 {
		t.Fatalf("latest after corruption seq=%d state=%+v skipped=%d, want 40/{4}/1", seq, got, skipped)
	}

	oldest, err := pruneSnapshots(dir, 2)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	seqs, err := listSnapshots(dir)
	if err != nil {
		t.Fatalf("list after prune: %v", err)
	}
	if !slices.Equal(seqs, []uint64{40, 50}) || oldest != 40 {
		t.Fatalf("snapshots %v after prune, oldest %d; want [40 50], oldest 40", seqs, oldest)
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	// A directory that never existed replays as empty, not as an error: a
	// daemon's first boot has no log yet.
	last, err := Replay(filepath.Join(t.TempDir(), "nope"), 1, func(*Record) error {
		return fmt.Errorf("unexpected record")
	})
	if err != nil || last != 0 {
		t.Fatalf("replay of missing dir: last=%d err=%v", last, err)
	}
}
