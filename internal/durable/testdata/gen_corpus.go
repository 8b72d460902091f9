//go:build ignore

// gen_corpus regenerates the committed seed corpus for FuzzWALDecode:
//
//	go run internal/durable/testdata/gen_corpus.go
//
// Each seed is a segment image exercising one classification branch of
// DecodeSegment — a valid frame of every record type, torn tails of both
// kinds, a bit flip, a bad length, a sequence gap, and CRC-valid frames whose
// payload is not a valid record. Keeping them committed means CI's short fuzz
// run covers every branch deterministically before the mutator contributes.
package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/graph"
)

func frame(seq uint64, rec *durable.Record) []byte {
	rec.Seq = seq
	payload, err := json.Marshal(rec)
	if err != nil {
		log.Fatal(err)
	}
	return durable.AppendFrame(nil, payload)
}

func main() {
	spec := coflow.Coflow{
		Name:   "seed",
		Weight: 2,
		Flows: []coflow.Flow{
			{Source: 0, Dest: 3, Size: 4, Release: 0.5, Path: graph.Path{0, 7}},
			{Source: 1, Dest: 2, Size: 1},
		},
	}
	var allTypes []byte
	recs := []*durable.Record{
		{Type: durable.RecAdmit, Admit: &durable.AdmitRecord{ID: 0, Now: 1.5, Key: "k-1", Trace: "t-1", Spec: spec}},
		{Type: durable.RecOrder, Order: &durable.OrderRecord{Now: 2, LatencySecs: 0.001, Refs: []coflow.FlowRef{{Coflow: 0, Index: 1}, {Coflow: 0, Index: 0}}}},
		{Type: durable.RecAdvance, Advance: &durable.AdvanceRecord{Now: 3}},
		{Type: durable.RecComplete, Complete: &durable.CompleteRecord{ID: 0, Time: 3.25}},
	}
	for i, rec := range recs {
		allTypes = append(allTypes, frame(uint64(i+1), rec)...)
	}

	tornHeader := append(append([]byte(nil), allTypes...), 0xAA, 0xBB, 0xCC)

	tornPayload := append([]byte(nil), allTypes...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 4096)
	tornPayload = append(tornPayload, hdr[:]...)
	tornPayload = append(tornPayload, []byte("only a few bytes")...)

	flipped := append([]byte(nil), allTypes...)
	flipped[len(flipped)/3] ^= 0x10

	zeroLen := append([]byte(nil), frame(1, &durable.Record{Type: durable.RecAdvance, Advance: &durable.AdvanceRecord{Now: 1}})...)
	zeroLen = append(zeroLen, make([]byte, 8)...)

	hugeLen := make([]byte, 8)
	binary.LittleEndian.PutUint32(hugeLen[0:4], durable.MaxRecordBytes+1)

	seqGap := frame(1, &durable.Record{Type: durable.RecAdvance, Advance: &durable.AdvanceRecord{Now: 1}})
	seqGap = append(seqGap, frame(5, &durable.Record{Type: durable.RecAdvance, Advance: &durable.AdvanceRecord{Now: 2}})...)

	// CRC-valid frames whose payloads are not valid records: the decoder must
	// treat these as corruption, never as data.
	mistyped, err := json.Marshal(&durable.Record{Seq: 1, Type: durable.RecAdmit, Advance: &durable.AdvanceRecord{Now: 1}})
	if err != nil {
		log.Fatal(err)
	}
	notJSON := durable.AppendFrame(nil, []byte("definitely not json"))
	unknownField := durable.AppendFrame(nil, []byte(`{"seq":1,"type":"advance","advance":{"now":1},"extra":7}`))

	seeds := map[string][]byte{
		"seed-all-record-types": allTypes,
		"seed-torn-header":      tornHeader,
		"seed-torn-payload":     tornPayload,
		"seed-bit-flip":         flipped,
		"seed-zero-length":      zeroLen,
		"seed-huge-length":      hugeLen,
		"seed-seq-gap":          seqGap,
		"seed-mistyped-record":  durable.AppendFrame(nil, mistyped),
		"seed-not-json":         notJSON,
		"seed-unknown-field":    unknownField,
	}

	dir := filepath.Join("internal", "durable", "testdata", "fuzz", "FuzzWALDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d seeds to %s\n", len(seeds), dir)
}
