package durable

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync/atomic"
	"time"
)

// snapshotKeep bounds retained snapshots: the newest is the restore point,
// the older ones are insurance against a torn or corrupt newest.
const snapshotKeep = 3

// Journal is coflowd's durability glue: a Log, the BlobStore its snapshots
// live in, and the protocol between the two — recover (newest usable
// snapshot, then the log suffix it does not cover, then reopen for appending)
// and snapshot (write, prune, drop the log prefix every retained snapshot
// covers). The daemon keeps only what is its own: what a record means, what a
// snapshot holds, and when it commits and snapshots.
type Journal struct {
	*Log
	store  BlobStore
	logger *slog.Logger

	snapshotting atomic.Bool // at most one snapshot in flight
	appendFailed atomic.Bool // the append failure is logged once
}

// Recover rebuilds the caller's state from dir and returns the journal open
// for appending. The newest snapshot that decodes is unmarshalled into state
// (a nil store means a DirStore under dir/snapshots); restore then builds the
// in-memory state from it, or from nothing when ok is false; apply replays
// every log record the snapshot does not cover. A log or snapshot that cannot
// be trusted fails the recovery — a daemon must not serve from state it cannot
// vouch for.
func Recover(dir string, store BlobStore, logger *slog.Logger, state any,
	restore func(ok bool) error, apply func(*Record) error) (*Journal, error) {
	if store == nil {
		ds, err := NewDirStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			return nil, fmt.Errorf("opening snapshot store: %w", err)
		}
		store = ds
	}
	seq, ok, skipped, err := LatestSnapshot(context.Background(), store, state)
	if err != nil {
		return nil, fmt.Errorf("reading snapshots: %w", err)
	}
	if skipped > 0 {
		logger.Warn("skipped unreadable snapshots", "count", skipped)
	}
	if err := restore(ok); err != nil {
		return nil, fmt.Errorf("restoring state (snapshot through seq %d): %w", seq, err)
	}
	last, err := Replay(dir, seq+1, apply)
	if err != nil {
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	log, err := openAfterReplay(dir, last)
	if err != nil {
		return nil, err
	}
	return &Journal{Log: log, store: store, logger: logger}, nil
}

// openAfterReplay opens the log for appending and refuses one that reopens
// behind what replay just delivered: the state would hold records the log no
// longer has, and the next append would reuse their sequences.
func openAfterReplay(dir string, last uint64) (*Log, error) {
	log, err := Open(dir, Options{})
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	if got := log.LastSeq(); got < last {
		log.Abandon()
		return nil, fmt.Errorf("%w: log reopened at seq %d after replaying through %d", ErrCorrupt, got, last)
	}
	return log, nil
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
// once it succeeded. At most one snapshot is in flight: a call that finds one,
// or an empty log, does nothing.
func (j *Journal) Snapshot(export func() any, written func()) {
	seq := j.LastSeq()
	if seq == 0 || !j.snapshotting.CompareAndSwap(false, true) {
		return
	}
	state := export()
	go func() {
		defer j.snapshotting.Store(false)
		t0 := time.Now()
		ctx := context.Background()
		key, err := WriteSnapshot(ctx, j.store, seq, state)
		var oldest uint64
		if err == nil {
			oldest, err = PruneSnapshots(ctx, j.store, snapshotKeep)
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
		j.logger.Info("snapshot written", "key", key, "seq", seq,
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
