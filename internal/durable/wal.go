// Package durable is coflowd's persistence layer (the only one: the cluster
// gateway keeps no state and rebuilds from the shards after a restart): a
// length-prefixed, CRC-checksummed write-ahead log with group-commit fsync
// batching and segment rotation, periodic snapshots kept as plain files in
// <wal-dir>/snapshots, and one segment scan that opens the log and replays it
// in a single pass, distinguishing a torn final record (the tolerated artifact
// of a crash mid-write) from mid-log corruption (fail loudly, never
// mis-replay).
//
// Frame format, little-endian:
//
//	uint32 payload length | uint32 CRC-32C (Castagnoli) of payload | payload
//
// The payload is one JSON-encoded Record carrying a sequence number; sequence
// numbers are contiguous across the whole log. Segment files are named
// wal-<first seq>.seg and rotate at SegmentBytes. A snapshot is the file
// snapshots/snap-<seq>.json: the state after every record through seq, all of
// them fsynced before the file is written. TruncateBefore deletes whole
// segments the oldest retained snapshot has superseded.
//
// Durability contract: Append buffers the frame in memory (it reaches the OS
// page cache, in one batched write, at the next commit/rotation/close);
// Commit(seq) blocks until everything through seq is fsynced. Concurrent
// Commit callers share one fsync (group commit) — the only batching on
// coflowd's admit path, and what keeps its p99 within budget with durability
// on. A failed fsync is sticky and fails every later Append/Commit: a log that
// cannot persist must fail loudly, not acknowledge writes it may be losing.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrCorrupt reports a WAL that cannot be trusted: a CRC mismatch, an invalid
// record, a sequence discontinuity, or a tear anywhere but the final record
// of the final segment. Recovery must stop — replaying past corruption would
// silently rebuild the wrong state.
var ErrCorrupt = errors.New("durable: corrupt wal")

// errLogClosed fails operations on a closed (or abandoned) log.
var errLogClosed = errors.New("durable: log closed")

const (
	// frameHeader is the fixed per-record framing overhead.
	frameHeader = 8
	// MaxRecordBytes bounds a single record payload. Larger than any
	// legitimate record (admission bodies are capped well below this), small
	// enough that a corrupted length field cannot drive a giant allocation.
	MaxRecordBytes = 16 << 20
	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 8 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one reaches
	// this size (default DefaultSegmentBytes).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// segment is one on-disk log file: records [start, next segment's start).
type segment struct {
	start uint64
	path  string
}

func segmentPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, start, segSuffix))
}

// listSegments returns the directory's segments sorted by starting sequence.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil // no directory yet: a daemon's first boot
	}
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		start, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil || start == 0 {
			return nil, fmt.Errorf("%w: segment file %q has an unparseable sequence", ErrCorrupt, name)
		}
		segs = append(segs, segment{start: start, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	for i := 1; i < len(segs); i++ {
		if segs[i].start == segs[i-1].start {
			return nil, fmt.Errorf("%w: duplicate segment start %d", ErrCorrupt, segs[i].start)
		}
	}
	return segs, nil
}

// AppendFrame encodes one payload as a frame onto buf and returns the
// extended slice. Exported for tests and corpus generation.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeSegment scans one segment's bytes and returns the valid record
// prefix, the byte offset where scanning stopped, and an error when the
// remainder is not a simple torn tail.
//
// Classification — the invariant FuzzWALDecode pins:
//   - clean end (off == len(data)): every byte decoded.
//   - torn tail (err == nil, off < len(data)): the remaining bytes are too
//     short to hold the frame the length header claims — the artifact of a
//     crash mid-write. Tolerated only in the final segment.
//   - corrupt (err wraps ErrCorrupt): oversized length, CRC mismatch, JSON
//     that does not decode, a structurally invalid record, or a sequence that
//     is not the predecessor's +1. Never tolerated.
//
// firstSeq > 0 additionally pins the first record's sequence (segment files
// name the sequence they must start at).
func DecodeSegment(data []byte, firstSeq uint64) ([]*Record, int, error) {
	var recs []*Record
	off := 0
	expect := firstSeq
	for {
		if len(data)-off < frameHeader {
			if off == len(data) {
				return recs, off, nil // clean end
			}
			return recs, off, nil // torn header
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		if length == 0 || length > MaxRecordBytes {
			return recs, off, fmt.Errorf("%w: frame at offset %d claims %d payload bytes", ErrCorrupt, off, length)
		}
		if len(data)-off-frameHeader < int(length) {
			return recs, off, nil // torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+int(length)]
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return recs, off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		rec := new(Record)
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rec); err != nil {
			return recs, off, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		if err := rec.validate(); err != nil {
			return recs, off, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if expect != 0 && rec.Seq != expect {
			return recs, off, fmt.Errorf("%w: record at offset %d has seq %d, want %d", ErrCorrupt, off, rec.Seq, expect)
		}
		expect = rec.Seq + 1
		recs = append(recs, rec)
		off += frameHeader + int(length)
	}
}

// scan reads the log in dir once, segment by segment in sequence order. Every
// segment is decoded and checked — contiguous starts (an empty segment before
// the final one shows as the gap after it), every frame's CRC and record, a
// tear only at the end — and every record with sequence >= from goes to fn.
// With from > 0 the records from `from` on must all be on disk, so a first
// segment that starts past from is corruption. repair truncates a torn final
// record away. scan returns the segments, the last sequence on disk (the
// first start - 1 when no segment holds a record) and the valid length of the
// final segment.
func scan(dir string, from uint64, repair bool, fn func(*Record) error) (segs []segment, last uint64, size int64, err error) {
	if segs, err = listSegments(dir); err != nil || len(segs) == 0 {
		return nil, 0, 0, err
	}
	if from > 0 && segs[0].start > from {
		return nil, 0, 0, fmt.Errorf("%w: records %d..%d are missing (first segment starts at %d)",
			ErrCorrupt, from, segs[0].start-1, segs[0].start)
	}
	last = segs[0].start - 1
	for i, seg := range segs {
		name := filepath.Base(seg.path)
		if seg.start != last+1 {
			return nil, last, 0, fmt.Errorf("%w: segment %s starts at %d, want %d", ErrCorrupt, name, seg.start, last+1)
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, last, 0, err
		}
		recs, off, err := DecodeSegment(data, seg.start)
		if err != nil {
			return nil, last, 0, fmt.Errorf("reading %s: %w", name, err)
		}
		if off < len(data) && i < len(segs)-1 {
			return nil, last, 0, fmt.Errorf("%w: torn record inside non-final segment %s", ErrCorrupt, name)
		}
		for _, rec := range recs {
			last = rec.Seq
			if rec.Seq < from {
				continue
			}
			if err := fn(rec); err != nil {
				return nil, last, 0, err
			}
		}
		if repair && off < len(data) {
			if err := os.Truncate(seg.path, int64(off)); err != nil {
				return nil, last, 0, fmt.Errorf("repairing torn tail of %s: %w", name, err)
			}
		}
		size = int64(off)
	}
	return segs, last, size, nil
}

// Replay is the read-only form of the scan Open makes: it streams every
// record with sequence >= from to fn, in order, and returns the last sequence
// in the log (0 when it never held a record). A torn final record is left in place (the scan
// stops there); anything else inconsistent returns ErrCorrupt. A directory
// that does not exist replays as empty. The log must not be open for
// appending concurrently.
func Replay(dir string, from uint64, fn func(*Record) error) (uint64, error) {
	_, last, _, err := scan(dir, from, false, fn)
	return last, err
}

// Log is an append-only write-ahead log over one directory.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcast when synced/syncErr/closed change

	segs    []segment
	f       *os.File
	size    int64  // bytes in the current segment, buffered writes included
	nextSeq uint64 // sequence the next Append assigns

	// buf holds frames appended since the last flush. Append only encodes
	// into this buffer; flushLocked writes it to the segment in ONE syscall,
	// at every point durability or visibility is promised (commit, rotation,
	// close, abandon). Under a group-committed burst of N admissions this
	// turns N write syscalls into one, and the fsync that follows covers the
	// whole buffer.
	buf []byte

	appended uint64 // highest sequence written to the page cache
	synced   uint64 // highest sequence known durable
	syncing  bool   // one group-commit fsync in flight
	syncErr  error  // sticky fatal
	closed   bool

	syncs   uint64 // fsync calls issued (observability)
	appends uint64 // records appended this process
}

// Open opens (or creates) the log in dir, repairing a torn final record by
// truncating it away. Mid-log corruption returns ErrCorrupt — the caller must
// not serve from a log it cannot trust.
func Open(dir string, opts Options) (*Log, error) {
	return openLog(dir, opts, 0, func(*Record) error { return nil })
}

// openLog is Open that replays in the same pass: every record with sequence
// >= from goes to fn before the log opens for appending. from > 0 is the
// first sequence a snapshot does not cover, and a log that ends below the
// snapshot is ErrCorrupt: appending would hand the covered sequences out
// again, and the next recovery would skip the records written under them.
func openLog(dir string, opts Options, from uint64, fn func(*Record) error) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, last, size, err := scan(dir, from, true, fn)
	if err != nil {
		return nil, err
	}
	if from > 0 && last+1 < from {
		return nil, fmt.Errorf("%w: log ends at seq %d, below the snapshot through %d", ErrCorrupt, last, from-1)
	}
	l := &Log{dir: dir, opts: opts, segs: segs}
	l.cond = sync.NewCond(&l.mu)
	if len(segs) == 0 {
		// Fresh log: first record is sequence 1 (0 means "no records", the
		// natural floor for Replay and snapshot bookkeeping).
		return l, l.startSegment(1)
	}
	if l.f, err = os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	l.size = size
	l.nextSeq = last + 1
	l.appended = last
	l.synced = last // everything on disk at open time is as durable as it gets
	return l, nil
}

// startSegment creates and switches to a fresh segment starting at seq.
// Caller holds mu (or is the constructor).
func (l *Log) startSegment(seq uint64) error {
	path := segmentPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	// The directory entry must be durable too: fsyncing record data into a
	// file whose name a power loss can erase durably persists nothing.
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, segment{start: seq, path: path})
	l.f = f
	l.size = 0
	l.nextSeq = seq
	return nil
}

// syncDir fsyncs a directory so entries for files created, renamed or removed
// in it survive a power loss, not just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append assigns rec the next sequence number and buffers its frame in
// memory, rotating segments as needed; the frame reaches the page cache at
// the next commit, rotation or close, so a process killed before then loses
// it. It does NOT wait for durability — pair with Commit(seq) where the
// caller acknowledges anything.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLogClosed
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	rec.Seq = l.nextSeq
	if err := rec.validate(); err != nil {
		return 0, err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds the %d-byte cap", len(payload), MaxRecordBytes)
	}
	frameLen := int64(frameHeader + len(payload))
	if l.size > 0 && l.size+frameLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	// Encode into the write buffer only: the bytes reach the file in one
	// batched write at the next flush point (commit, rotation, close).
	l.buf = AppendFrame(l.buf, payload)
	l.size += frameLen
	l.appended = rec.Seq
	l.appends++
	l.nextSeq++
	return rec.Seq, nil
}

// flushLocked writes every buffered frame to the current segment in one
// syscall. A write failure is sticky, exactly like an append failure was when
// appends wrote through directly. Caller holds mu.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.syncErr = fmt.Errorf("durable: append failed: %w", err)
		l.cond.Broadcast()
		return l.syncErr
	}
	l.buf = l.buf[:0]
	return nil
}

// rotateLocked fsyncs and closes the current segment and opens the next one.
// Everything in the closed segment is durable afterwards.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.syncErr = fmt.Errorf("durable: rotating fsync failed: %w", err)
		l.cond.Broadcast()
		return l.syncErr
	}
	l.syncs++
	if err := l.f.Close(); err != nil {
		return err
	}
	if l.appended > l.synced {
		l.synced = l.appended
		l.cond.Broadcast()
	}
	return l.startSegment(l.nextSeq)
}

// testCommitSyncDelay, when non-nil, runs between Commit releasing the lock
// and issuing its fsync. Tests use it to force the otherwise nanosecond-wide
// interleaving where a rotation closes the file under an in-flight Commit.
var testCommitSyncDelay func()

// Commit blocks until every record through seq is durable, sharing in-flight
// fsyncs with concurrent callers: whichever caller finds no fsync running
// issues one covering everything appended so far, and every waiter whose
// sequence that run covers returns without a syscall of its own.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.appended {
		return fmt.Errorf("durable: commit of unappended sequence %d (appended through %d)", seq, l.appended)
	}
	for l.synced < seq {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.closed {
			return errLogClosed
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		// Everything buffered reaches the file before the fsync target is
		// captured, so the sync below covers every append made so far —
		// including records buffered while the previous fsync was in flight.
		if err := l.flushLocked(); err != nil {
			return err
		}
		l.syncing = true
		f, target := l.f, l.appended
		l.mu.Unlock()
		if testCommitSyncDelay != nil {
			testCommitSyncDelay()
		}
		err := fdatasync(f)
		l.mu.Lock()
		l.syncing = false
		l.syncs++
		if err != nil && target <= l.synced {
			// While our fsync was in flight a rotation (or Close) fsynced and
			// closed f underneath us, making everything through target durable
			// before our Sync returned — typically as os.ErrClosed. Not a
			// durability failure, so it must not fail-stop the log.
			err = nil
		}
		if err != nil {
			if l.syncErr == nil {
				l.syncErr = fmt.Errorf("durable: fsync failed: %w", err)
			}
		} else if target > l.synced {
			l.synced = target
		}
		l.cond.Broadcast()
	}
	return nil
}

// Sync makes everything appended so far durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.appended
	l.mu.Unlock()
	return l.Commit(target)
}

// LastSeq returns the highest sequence appended (durable or not); 0 on an
// empty log.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Stats reports append/fsync counters for observability.
func (l *Log) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// TruncateBefore deletes whole segments every one of whose records has
// sequence < keep — called after a snapshot covering sequences < keep is
// durable. The active segment is never deleted.
func (l *Log) TruncateBefore(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	cut := 0
	for cut+1 < len(l.segs) && l.segs[cut+1].start <= keep {
		cut++
	}
	for _, seg := range l.segs[:cut] {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if cut > 0 {
		// Make the removals durable: a crash must not resurrect segments the
		// snapshot bookkeeping considers gone.
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	l.segs = append([]segment(nil), l.segs[cut:]...)
	return nil
}

// Err returns the sticky fatal error (nil while the log is healthy). Callers
// gate state changes on it so a fail-stopped log rejects work before any
// in-memory mutation, not after.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// Close fsyncs and closes the log. Later operations fail. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.syncErr == nil {
		if err = l.flushLocked(); err == nil {
			if err = l.f.Sync(); err == nil {
				l.syncs++
				l.synced = l.appended
			}
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.cond.Broadcast()
	return err
}

// Abandon closes the log WITHOUT the final fsync — the crash-shaped shutdown
// the recovery harness uses. Unsynced appends survive only as far as the OS
// page cache did.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	// Flush (no fsync): abandoned appends keep today's page-cache fate —
	// they survive a process crash, not a power loss.
	_ = l.flushLocked()
	_ = l.f.Close()
	l.cond.Broadcast()
}
