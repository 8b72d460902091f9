package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
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
