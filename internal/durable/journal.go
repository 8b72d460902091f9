package durable

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// snapshotKeep bounds retained snapshots: the newest is the restore point,
// the older ones are insurance against a torn or corrupt newest.
const snapshotKeep = 3

// testSnapshotWrite, when non-nil, runs on the snapshot goroutine before the
// snapshot is written. Tests use it to hold a snapshot in flight.
var testSnapshotWrite func()

// Journal is coflowd's durability glue: a Log, the directory its snapshots
// live in (<wal-dir>/snapshots), and the protocol between the two — recover
// (newest usable snapshot, then the log suffix it does not cover, read in the
// same pass that opens the log for appending) and snapshot (fsync the log
// through the snapshot's sequence, write, prune, drop the log prefix every
// retained snapshot covers). The daemon keeps only what is its own: what a
// record means, what a snapshot holds, and when it commits and snapshots.
type Journal struct {
	*Log
	snapDir string
	logger  *slog.Logger

	snapshotting atomic.Bool // at most one snapshot in flight
	appendFailed atomic.Bool // the append failure is logged once
}

// Recover rebuilds the caller's state from dir and returns the journal open
// for appending. The newest snapshot in dir/snapshots that decodes is
// unmarshalled into state; restore then builds the in-memory state from it,
// or from nothing when ok is false; apply replays every log record the
// snapshot does not cover. A log or snapshot that cannot be trusted fails the
// recovery — a daemon must not serve from state it cannot vouch for — and so
// does a log that ends below the snapshot, whose next append would reuse a
// sequence the snapshot covers.
func Recover(dir string, logger *slog.Logger, state any,
	restore func(ok bool) error, apply func(*Record) error) (*Journal, error) {
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, fmt.Errorf("opening snapshot directory: %w", err)
	}
	seq, ok, skipped, err := latestSnapshot(snapDir, state)
	if err != nil {
		return nil, fmt.Errorf("reading snapshots: %w", err)
	}
	if skipped > 0 {
		logger.Warn("skipped unreadable snapshots", "count", skipped)
	}
	if err := restore(ok); err != nil {
		return nil, fmt.Errorf("restoring state (snapshot through seq %d): %w", seq, err)
	}
	log, err := openLog(dir, Options{}, seq+1, apply)
	if err != nil {
		return nil, fmt.Errorf("recovering wal: %w", err)
	}
	return &Journal{Log: log, snapDir: snapDir, logger: logger}, nil
}

// Append appends one record. Failure is fail-stop for durability — the log's
// sticky error fails every later append and commit, so no new admission is
// acknowledged — and is logged once.
func (j *Journal) Append(r *Record) (uint64, error) {
	seq, err := j.Log.Append(r)
	if err != nil && j.appendFailed.CompareAndSwap(false, true) {
		j.logger.Error("wal append failed; no later admission will be acknowledged", "err", err)
	}
	return seq, err
}

// Snapshot persists what export returns as the snapshot covering every record
// appended so far, then prunes old snapshots and drops the log prefix the
// oldest retained one covers. The caller holds whatever serializes its
// Appends (coflowd's scheduler goroutine) across the call, so the sequence
// and the export describe the same instant; the write runs on its own
// goroutine, so a large state never stalls the caller, and written is called
// once it succeeded. The snapshot is written only after the log is fsynced
// through its sequence: a snapshot that covers records a crash can take back
// (from the append buffer or, on a power loss, the page cache) would let the
// reopened log hand their sequences out again. At most one snapshot is in
// flight: a call that finds one, or an empty log, does nothing.
func (j *Journal) Snapshot(export func() any, written func()) {
	seq := j.LastSeq()
	if seq == 0 || !j.snapshotting.CompareAndSwap(false, true) {
		return
	}
	state := export()
	go func() {
		defer j.snapshotting.Store(false)
		if testSnapshotWrite != nil {
			testSnapshotWrite()
		}
		t0 := time.Now()
		err := j.Commit(seq)
		var name string
		if err == nil {
			name, err = writeSnapshot(j.snapDir, seq, state)
		}
		var oldest uint64
		if err == nil {
			oldest, err = pruneSnapshots(j.snapDir, snapshotKeep)
		}
		if err == nil && oldest > 0 {
			// Drop only what every retained snapshot covers, so a recovery
			// that skips a damaged newest can still replay forward from an
			// older one.
			err = j.TruncateBefore(oldest + 1)
		}
		if err != nil {
			j.logger.Error("snapshot failed", "seq", seq, "err", err)
			return
		}
		written()
		j.logger.Info("snapshot written", "file", name, "seq", seq,
			"segments", j.SegmentCount(), "took", time.Since(t0))
	}()
}

// Shutdown closes the log, with a final fsync or — abandon, the crash-shaped
// variant the recovery harnesses use — without one. Safe to call more than
// once: Log.Close and Log.Abandon are idempotent.
func (j *Journal) Shutdown(abandon bool) {
	if abandon {
		j.Abandon()
	} else if err := j.Close(); err != nil {
		j.logger.Error("wal close failed", "err", err)
	}
}
