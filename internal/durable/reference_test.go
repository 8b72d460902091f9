package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The two-pass recovery the one-pass scan replaced, kept as the oracle of
// FuzzRecoverLog: referenceReplay streams the records from `from` on, then
// referenceOpen validates every segment again, repairs a torn tail and opens
// the log for appending. It checks that the log did not reopen behind the
// replay, but not that it reaches the snapshot: a log that ends below it
// reopens and hands the covered sequences out again.
func referenceRecover(dir string, from uint64, fn func(*Record) error) (*Log, error) {
	last, err := referenceReplay(dir, from, fn)
	if err != nil {
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	log, err := referenceOpen(dir, Options{})
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	if got := log.LastSeq(); got < last {
		log.Abandon()
		return nil, fmt.Errorf("%w: log reopened at seq %d after replaying through %d", ErrCorrupt, got, last)
	}
	return log, nil
}

// referenceReplay is the read-only scan: it skips the segments wholly below
// from without reading them.
func referenceReplay(dir string, from uint64, fn func(*Record) error) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) > 0 && from > 0 && segs[0].start > from {
		return 0, fmt.Errorf("%w: records %d..%d are missing (first segment starts at %d)",
			ErrCorrupt, from, segs[0].start-1, segs[0].start)
	}
	var last uint64
	for i, seg := range segs {
		if i > 0 && seg.start != last+1 && last != 0 {
			return last, fmt.Errorf("%w: segment %s starts at %d, want %d", ErrCorrupt, filepath.Base(seg.path), seg.start, last+1)
		}
		if i+1 < len(segs) && segs[i+1].start <= from {
			last = segs[i+1].start - 1
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return last, err
		}
		recs, off, derr := DecodeSegment(data, seg.start)
		if derr != nil {
			return last, fmt.Errorf("replaying %s: %w", filepath.Base(seg.path), derr)
		}
		if off < len(data) && i != len(segs)-1 {
			return last, fmt.Errorf("%w: torn record inside non-final segment %s", ErrCorrupt, filepath.Base(seg.path))
		}
		for _, rec := range recs {
			last = rec.Seq
			if rec.Seq < from {
				continue
			}
			if err := fn(rec); err != nil {
				return last, err
			}
		}
		if len(recs) == 0 && i != len(segs)-1 {
			return last, fmt.Errorf("%w: empty non-final segment %s", ErrCorrupt, filepath.Base(seg.path))
		}
	}
	return last, nil
}

// referenceOpen is the validate-and-repair pass over every segment.
func referenceOpen(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, segs: segs}
	l.cond = sync.NewCond(&l.mu)
	if len(segs) == 0 {
		return l, l.startSegment(1)
	}
	last := segs[0].start - 1
	for i, seg := range segs {
		if seg.start != last+1 {
			return nil, fmt.Errorf("%w: segment %s starts at %d, want %d", ErrCorrupt, filepath.Base(seg.path), seg.start, last+1)
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		recs, off, derr := DecodeSegment(data, seg.start)
		final := i == len(segs)-1
		if derr != nil {
			return nil, fmt.Errorf("opening %s: %w", filepath.Base(seg.path), derr)
		}
		if off < len(data) {
			if !final {
				return nil, fmt.Errorf("%w: torn record inside non-final segment %s", ErrCorrupt, filepath.Base(seg.path))
			}
			if err := os.Truncate(seg.path, int64(off)); err != nil {
				return nil, fmt.Errorf("repairing torn tail of %s: %w", filepath.Base(seg.path), err)
			}
		}
		if len(recs) > 0 {
			last = recs[len(recs)-1].Seq
		} else if !final {
			return nil, fmt.Errorf("%w: empty non-final segment %s", ErrCorrupt, filepath.Base(seg.path))
		}
		if final {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			l.f = f
			l.size = int64(off)
		}
	}
	l.nextSeq = last + 1
	l.appended = last
	l.synced = last
	return l, nil
}
