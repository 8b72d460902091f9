package durable

import (
	"fmt"

	"coflowsched/internal/coflow"
)

// RecordType discriminates WAL records: the three engine operations coflowd
// logs (admit / order / advance), plus the completion record older logs
// carry. One frame format and one replay scanner carry them, so the fuzz
// target and the corruption rules cover every record the system persists.
type RecordType string

const (
	// RecAdmit logs one coflow admission: the spec exactly as it arrived on
	// the wire (flow releases still offsets) plus the engine clock it was
	// admitted at. Replaying admissions in sequence reproduces the engine's
	// causal routing exactly, because route selection depends only on the
	// monotonically accumulated admitted load.
	RecAdmit RecordType = "admit"
	// RecOrder logs one applied priority decision at the engine clock Now;
	// replay advances to Now and re-applies the refs.
	RecOrder RecordType = "order"
	// RecAdvance logs one server tick's clock advance to Now; replay advances
	// the engine under the order the log applied last.
	RecAdvance RecordType = "advance"
	// RecComplete is a coflow completion. coflowd no longer writes it:
	// replay derives completions from re-simulating the records above. It
	// still decodes, and replay skips it, so logs that carry it recover.
	RecComplete RecordType = "complete"
)

// Record is the WAL envelope: a sequence number, a type tag, and exactly one
// populated payload field matching the type.
type Record struct {
	Seq  uint64     `json:"seq"`
	Type RecordType `json:"type"`

	Admit    *AdmitRecord    `json:"admit,omitempty"`
	Order    *OrderRecord    `json:"order,omitempty"`
	Advance  *AdvanceRecord  `json:"advance,omitempty"`
	Complete *CompleteRecord `json:"complete,omitempty"`
}

// AdmitRecord is one engine admission.
type AdmitRecord struct {
	// ID is the engine-assigned coflow id; replay asserts the re-admission
	// lands on the same id (a mismatch means the log is not a prefix of the
	// engine's history).
	ID int `json:"id"`
	// Now is the engine clock at admission.
	Now float64 `json:"now"`
	// Key is the idempotency key (X-Coflow-Id), empty if none was sent.
	Key string `json:"key,omitempty"`
	// Trace is the lifecycle trace id.
	Trace string `json:"trace,omitempty"`
	// Spec is the wire-form coflow (flow releases are offsets from Now).
	Spec coflow.Coflow `json:"spec"`
}

// OrderRecord is one applied priority order.
type OrderRecord struct {
	// Now is the engine clock the order was applied at.
	Now float64 `json:"now"`
	// LatencySecs is the decide wall latency, preserved so replay reproduces
	// the solve-latency reservoir.
	LatencySecs float64 `json:"latency_secs"`
	// Refs is the order exactly as handed to ApplyOrder (pre-filtering);
	// replay re-filters against the rebuilt simulator state identically.
	Refs []coflow.FlowRef `json:"refs"`
}

// AdvanceRecord is one clock advance.
type AdvanceRecord struct {
	Now float64 `json:"now"`
}

// CompleteRecord is one coflow completion.
type CompleteRecord struct {
	ID   int     `json:"id"`
	Time float64 `json:"time"`
}

// payloadCount returns how many payload fields are populated.
func (r *Record) payloadCount() int {
	n := 0
	for _, set := range []bool{
		r.Admit != nil, r.Order != nil, r.Advance != nil, r.Complete != nil,
	} {
		if set {
			n++
		}
	}
	return n
}

// validate rejects structurally broken records: an envelope must carry exactly
// the payload its type names. Replay treats a violation as corruption — a
// CRC-valid frame holding a half-written or mistyped record must never be
// applied.
func (r *Record) validate() error {
	if r.payloadCount() != 1 {
		return fmt.Errorf("record %d: %d payloads populated, want exactly 1", r.Seq, r.payloadCount())
	}
	ok := false
	switch r.Type {
	case RecAdmit:
		ok = r.Admit != nil
	case RecOrder:
		ok = r.Order != nil
	case RecAdvance:
		ok = r.Advance != nil
	case RecComplete:
		ok = r.Complete != nil
	default:
		return fmt.Errorf("record %d: unknown type %q", r.Seq, r.Type)
	}
	if !ok {
		return fmt.Errorf("record %d: type %q does not match populated payload", r.Seq, r.Type)
	}
	return nil
}
