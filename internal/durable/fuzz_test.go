package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"coflowsched/internal/coflow"
)

// FuzzWALDecode pins the decoder's safety contract on arbitrary bytes: it
// must never panic, never allocate from an attacker-controlled length, and
// classify every input as exactly one of clean / torn tail / corrupt. The
// committed seed corpus (testdata/fuzz/FuzzWALDecode, regenerated by
// testdata/gen_corpus.go) covers every record type plus torn and bit-flipped
// variants, so CI's short fuzz run exercises each classification branch even
// before the mutator finds anything.
func FuzzWALDecode(f *testing.F) {
	// Inline seeds for the structural edges; the richer per-record-type seeds
	// live in the file corpus.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})               // torn header
	f.Add(AppendFrame(nil, []byte("x"))) // CRC-valid, not a record
	valid := mustFrame(1, &Record{Type: RecAdvance, Advance: &AdvanceRecord{Now: 1}})
	f.Add(valid)
	f.Add(valid[:len(valid)-2]) // torn payload

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, err := DecodeSegment(data, 0)
		if off < 0 || off > len(data) {
			t.Fatalf("offset %d outside [0,%d]", off, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
		} else if off < len(data) {
			// Tolerated remainder must be a genuine torn tail: too short for
			// a header, or a length that claims more bytes than remain.
			rest := len(data) - off
			if rest >= frameHeader {
				length := binary.LittleEndian.Uint32(data[off : off+4])
				if int(length) <= rest-frameHeader {
					t.Fatalf("decoder stopped at %d with a whole frame remaining", off)
				}
			}
		}
		// Whatever decoded must be internally consistent and must re-encode
		// to bytes that decode identically — a record that survives the CRC
		// must never mutate across a write/replay cycle (mis-replay).
		var buf []byte
		for i, rec := range recs {
			if verr := rec.validate(); verr != nil {
				t.Fatalf("decoder returned invalid record %d: %v", i, verr)
			}
			if i > 0 && rec.Seq != recs[i-1].Seq+1 {
				t.Fatalf("decoder returned seq %d after %d", rec.Seq, recs[i-1].Seq)
			}
			payload, merr := json.Marshal(rec)
			if merr != nil {
				t.Fatalf("re-encoding record %d: %v", i, merr)
			}
			buf = AppendFrame(buf, payload)
		}
		if len(recs) > 0 {
			again, off2, err2 := DecodeSegment(buf, recs[0].Seq)
			if err2 != nil || off2 != len(buf) || len(again) != len(recs) {
				t.Fatalf("re-decode of re-encoded records: %d recs, off %d/%d, err %v",
					len(again), off2, len(buf), err2)
			}
			for i := range again {
				if again[i].Seq != recs[i].Seq || again[i].Type != recs[i].Type {
					t.Fatalf("record %d changed across a round trip: %+v vs %+v", i, again[i], recs[i])
				}
			}
		}
	})
}

// mustFrame encodes one record (with the given seq) as a frame.
func mustFrame(seq uint64, rec *Record) []byte {
	rec.Seq = seq
	payload, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return AppendFrame(nil, payload)
}

// TestDecodeSegmentSeqPin covers the firstSeq pin the fuzz target cannot (it
// always passes 0): a segment whose first record disagrees with the sequence
// its filename claims is corrupt.
func TestDecodeSegmentSeqPin(t *testing.T) {
	frame := mustFrame(7, &Record{Type: RecComplete, Complete: &CompleteRecord{ID: 1, Time: 2}})
	if _, _, err := DecodeSegment(frame, 7); err != nil {
		t.Fatalf("matching first seq: %v", err)
	}
	if _, _, err := DecodeSegment(frame, 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched first seq: %v, want ErrCorrupt", err)
	}
}

// TestDecodeSegmentRejectsMistyped ensures a CRC-valid frame carrying a
// structurally invalid record is corruption, not data: the envelope's type
// must match its payload.
func TestDecodeSegmentRejectsMistyped(t *testing.T) {
	bad := []*Record{
		{Seq: 1, Type: RecAdmit, Advance: &AdvanceRecord{Now: 1}},                                  // mistyped
		{Seq: 1, Type: RecOrder, Order: &OrderRecord{}, Complete: &CompleteRecord{}},               // double payload
		{Seq: 1, Type: RecordType("mystery"), Admit: &AdmitRecord{Spec: coflow.Coflow{Name: "x"}}}, // unknown type
		{Seq: 1, Type: RecAdvance}, // no payload
	}
	for i, rec := range bad {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		if _, _, err := DecodeSegment(AppendFrame(nil, payload), 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d decoded a structurally invalid record: %v", i, err)
		}
	}
}

// TestDecodeSegmentRejectsAdvanceDecide pins that an advance record carries
// only its clock: a CRC-valid advance frame with a "decide" flag is not a
// record any daemon writes, so it is corruption.
func TestDecodeSegmentRejectsAdvanceDecide(t *testing.T) {
	frame := AppendFrame(nil, []byte(`{"seq":1,"type":"advance","advance":{"now":3,"decide":true}}`))
	if _, _, err := DecodeSegment(frame, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("advance frame with a decide flag: err = %v, want ErrCorrupt", err)
	}
}

// FuzzRecoverLog holds the one-pass open-and-replay (openLog, what Recover
// runs) to the two-pass oracle in reference_test.go. Each input builds a log
// of records 1..n, per records to a segment, damages it — a torn tail, a
// flipped byte, a missing, empty or duplicate segment — and recovers it from
// a floor below, inside or past the first segment, once per copy of the
// directory. Both must deliver the same records, fail with the same error
// class, reopen at the same LastSeq and leave the same files; the one
// exception is a log that ends below the snapshot the floor stands for, which
// the oracle reopens (reusing covered sequences) and the one pass refuses.
// Replay, the read-only form, must change no file and agree whenever the one
// pass opens. The seed corpus is testdata/fuzz/FuzzRecoverLog.
func FuzzRecoverLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, records, perSeg, damage uint8, at uint16, from uint8) {
		n, per := int(records%24), 1+int(perSeg%5)
		oracleDir, dir := t.TempDir(), t.TempDir()
		writeFuzzLog(t, oracleDir, n, per, damage, int(at))
		for name, data := range dirImage(t, oracleDir) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		floor := uint64(from) % uint64(n+4)

		var want, got, replayed []float64
		collect := func(into *[]float64) func(*Record) error {
			return func(r *Record) error {
				*into = append(*into, float64(r.Seq), r.Advance.Now)
				return nil
			}
		}
		before := dirImage(t, dir)
		rlast, rerr := Replay(dir, floor, collect(&replayed))
		if !maps.EqualFunc(before, dirImage(t, dir), slices.Equal) {
			t.Fatal("Replay changed the directory")
		}
		oracle, oerr := referenceRecover(oracleDir, floor, collect(&want))
		log, err := openLog(dir, Options{}, floor, collect(&got))
		if oerr == nil {
			defer oracle.Abandon()
		}
		if err == nil {
			defer log.Abandon()
		}
		if oerr == nil && oracle.LastSeq()+1 < floor {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("log ends at %d below the snapshot through %d: one pass err %v, want ErrCorrupt",
					oracle.LastSeq(), floor-1, err)
			}
			return
		}
		if (oerr == nil) != (err == nil) || errors.Is(oerr, ErrCorrupt) != errors.Is(err, ErrCorrupt) {
			t.Fatalf("oracle err %v, one pass err %v", oerr, err)
		}
		if err != nil {
			return
		}
		if oracle.LastSeq() != log.LastSeq() {
			t.Fatalf("reopened at %d, oracle at %d", log.LastSeq(), oracle.LastSeq())
		}
		if !slices.Equal(want, got) {
			t.Fatalf("delivered (seq, value) %v, oracle %v", got, want)
		}
		if !maps.EqualFunc(dirImage(t, oracleDir), dirImage(t, dir), slices.Equal) {
			t.Fatal("the one pass left other files than the oracle")
		}
		if rerr != nil || rlast != log.LastSeq() || !slices.Equal(replayed, got) {
			t.Fatalf("Replay: last %d err %v records %v; open: last %d records %v", rlast, rerr, replayed, log.LastSeq(), got)
		}
	})
}

// writeFuzzLog writes records 1..n (record s carries now = s), per records to
// a segment (one empty segment when n is 0), and applies damage%6 to segment
// at%segments: 0 none, 1 cut 1-16 bytes off its end, 2 flip one bit, 3 remove
// it, 4 empty it, 5 copy it under a second name — its own start unpadded (a
// duplicate start) or the sequence after the last record.
func writeFuzzLog(t *testing.T, dir string, n, per int, damage uint8, at int) {
	t.Helper()
	var paths []string
	for start := 1; start <= max(n, 1); start += per {
		var data []byte
		for seq := start; seq < start+per && seq <= n; seq++ {
			data = append(data, mustFrame(uint64(seq), advanceRec(float64(seq)))...)
		}
		path := segmentPath(dir, uint64(start))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	i, arg := at%len(paths), at/len(paths)
	data, err := os.ReadFile(paths[i])
	if err != nil {
		t.Fatal(err)
	}
	switch damage % 6 {
	case 1:
		data = data[:max(0, len(data)-1-arg%16)]
	case 2:
		if len(data) > 0 {
			data[arg%len(data)] ^= 1 << (damage / 6 % 8)
		}
	case 3:
		if err := os.Remove(paths[i]); err != nil {
			t.Fatal(err)
		}
		return
	case 4:
		data = nil
	case 5:
		start := 1 + i*per
		name := fmt.Sprintf("%s%d%s", segPrefix, start, segSuffix)
		if arg%2 == 1 {
			name = filepath.Base(segmentPath(dir, uint64(n+1)))
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(paths[i], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirImage reads every file in dir.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	image := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if image[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return image
}
