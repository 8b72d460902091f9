package cluster

import (
	"encoding/json"
	"fmt"

	"coflowsched/internal/coflow"
	"coflowsched/internal/durable"
	"coflowsched/internal/server"
	"coflowsched/internal/telemetry"
)

// Gateway durability. With Config.StateDir set, the gateway write-ahead logs
// the two tables a restart must not lose — the id-translation table (gateway
// id -> spec, assigned at admission) and the placement table (gateway id ->
// backend + shard-local id) — plus observed completions, and snapshots the
// whole routing state periodically so the log stays short. A restarted
// gateway rebuilds its tables before serving: recovered placements are held
// as pending bindings until their backend answers for the first time, at
// which point they re-attach without re-admission when the backend says it is
// durable too, or re-place from the retained specs when it is not or when it
// is ejected before it ever answers (settleLocked).
//
// Durability boundary: gw-admit is group-committed before the coflow is
// queued for placement (an acknowledged gateway id must survive), gw-place
// before the 201 leaves the gateway. gw-done rides along uncommitted — a
// lost completion record is re-observed from the shard on the next sweep.

// gatePersist is the gateway snapshot body: the instance nonce, the
// gateway-level counters, and the routing table in gid order.
type gatePersist struct {
	Instance  string          `json:"instance"`
	Completed int             `json:"completed"`
	Readmits  int             `json:"readmits"`
	Coflows   []routedPersist `json:"coflows"`
}

// routedPersist is one routed coflow as persisted. Backend names the owning
// (or last-known) shard; on restore it becomes a pending binding.
type routedPersist struct {
	Spec     coflow.Coflow          `json:"spec"`
	Trace    string                 `json:"trace,omitempty"`
	Backend  string                 `json:"backend,omitempty"`
	LocalID  int                    `json:"local_id,omitempty"`
	Arrival  float64                `json:"arrival,omitempty"`
	Failed   bool                   `json:"failed,omitempty"`
	Done     bool                   `json:"done,omitempty"`
	Final    *server.CoflowResponse `json:"final,omitempty"`
	Readmits int                    `json:"readmits,omitempty"`
}

// recoverGateway rebuilds the routing state from cfg.StateDir through
// durable.Recover: the newest usable snapshot restores the tables,
// applyGateRecord replays the log suffix it does not cover. Runs before the
// gateway goroutines start, so it touches fields without locking. An
// untrustworthy log fails the boot.
func (g *Gateway) recoverGateway() error {
	var persist gatePersist
	restore := func(ok bool) error {
		if !ok {
			return nil
		}
		g.instance = persist.Instance
		g.completed = persist.Completed
		g.readmits = persist.Readmits
		g.coflows = make([]*routed, 0, len(persist.Coflows))
		for _, rp := range persist.Coflows {
			rc := &routed{spec: rp.Spec, trace: rp.Trace, arrival: rp.Arrival,
				failed: rp.Failed, readmits: rp.Readmits}
			if rp.Done {
				rc.done = true
				if rp.Final != nil {
					rc.final = *rp.Final
				}
			} else if rp.Backend != "" {
				rc.pendingBackend = rp.Backend
				rc.localID = rp.LocalID
			}
			g.coflows = append(g.coflows, rc)
		}
		return nil
	}
	var err error
	g.wal, err = durable.Recover(g.cfg.StateDir, nil, g.logger, &persist, restore, g.applyGateRecord)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if g.instance == "" {
		// Fresh log: mint the instance nonce and make it the first durable
		// record, so every idempotency key this incarnation ever sends a shard
		// is scoped by a value the log can reproduce.
		g.instance = telemetry.NewTraceID()
		mseq, err := g.wal.Append(&durable.Record{Type: durable.RecGatewayMeta,
			GatewayMeta: &durable.GatewayMetaRecord{Instance: g.instance}})
		if err == nil {
			err = g.wal.Commit(mseq)
		}
		if err != nil {
			return fmt.Errorf("cluster: writing instance record: %w", err)
		}
	}
	inFlight := 0
	for _, rc := range g.coflows {
		if rc.done || rc.failed {
			continue
		}
		inFlight++
		if rc.pendingBackend == "" {
			// Acknowledged but never durably placed: detach it so the next
			// backend registration re-places it from the retained spec.
			rc.orphaned = true
		}
	}
	if len(g.coflows) > 0 {
		g.logger.Info("gateway state recovered", "coflows", len(g.coflows),
			"in_flight", inFlight, "completed", g.completed, "instance", g.instance)
	}
	return nil
}

// applyGateRecord replays one WAL record into the recovering routing table.
// Any record that cannot apply marks the log corrupt: the log claims a
// history this gateway cannot have written.
func (g *Gateway) applyGateRecord(r *durable.Record) error {
	switch r.Type {
	case durable.RecGatewayMeta:
		g.instance = r.GatewayMeta.Instance
	case durable.RecGatewayAdmit:
		a := r.GatewayAdmit
		if a.GID != len(g.coflows) {
			return fmt.Errorf("%w: gw-admit record seq %d assigns gid %d, next is %d",
				durable.ErrCorrupt, r.Seq, a.GID, len(g.coflows))
		}
		g.coflows = append(g.coflows, &routed{spec: a.Spec, trace: a.Trace})
	case durable.RecGatewayPlace:
		p := r.GatewayPlace
		if p.GID < 0 || p.GID >= len(g.coflows) {
			return fmt.Errorf("%w: gw-place record seq %d names unknown gid %d",
				durable.ErrCorrupt, r.Seq, p.GID)
		}
		if rc := g.coflows[p.GID]; !rc.done {
			// Re-placements append a fresh record; last one wins.
			rc.pendingBackend = p.Backend
			rc.localID = p.LocalID
			rc.arrival = p.Arrival
			rc.admitted = false
			rc.orphaned = false
		}
	case durable.RecGatewayDone:
		d := r.GatewayDone
		if d.GID < 0 || d.GID >= len(g.coflows) {
			return fmt.Errorf("%w: gw-done record seq %d names unknown gid %d",
				durable.ErrCorrupt, r.Seq, d.GID)
		}
		rc := g.coflows[d.GID]
		if rc.done {
			return nil
		}
		var final server.CoflowResponse
		if len(d.Final) > 0 {
			if err := json.Unmarshal(d.Final, &final); err != nil {
				return fmt.Errorf("%w: gw-done record seq %d final body: %v", durable.ErrCorrupt, r.Seq, err)
			}
		}
		rc.done = true
		rc.final = final
		rc.pendingBackend = ""
		g.completed++
		rc.spec = coflow.Coflow{Name: rc.spec.Name, Weight: rc.spec.Weight}
	default:
		return fmt.Errorf("%w: record seq %d has type %q, which does not belong in a gateway log",
			durable.ErrCorrupt, r.Seq, r.Type)
	}
	return nil
}

// logDoneLocked appends the gw-done record for an observed completion.
// Caller holds g.mu. Uncommitted by design: the completion fact lives on the
// shard and is re-observed if the record is lost to a crash.
func (g *Gateway) logDoneLocked(gid int, st server.CoflowResponse) {
	if g.wal == nil {
		return
	}
	body, err := json.Marshal(st)
	if err != nil {
		return
	}
	_, _ = g.wal.Append(&durable.Record{Type: durable.RecGatewayDone,
		GatewayDone: &durable.GatewayDoneRecord{GID: gid, Final: body}})
}

// maybeSnapshotGateway hands the journal the routing state to write out,
// captured under the lock every append happens under, so the log position the
// journal reads next to it describes the same instant.
func (g *Gateway) maybeSnapshotGateway() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.wal.Snapshot(func() any { return g.exportLocked() }, func() {})
}

// exportLocked snapshots the routing table. Caller holds g.mu.
func (g *Gateway) exportLocked() gatePersist {
	p := gatePersist{
		Instance:  g.instance,
		Completed: g.completed,
		Readmits:  g.readmits,
		Coflows:   make([]routedPersist, len(g.coflows)),
	}
	for i, rc := range g.coflows {
		rp := routedPersist{Spec: rc.spec, Trace: rc.trace, Arrival: rc.arrival,
			Failed: rc.failed, Done: rc.done, Readmits: rc.readmits}
		switch {
		case rc.done:
			final := rc.final
			rp.Final = &final
		case rc.backend != nil && rc.admitted:
			rp.Backend = rc.backend.name
			rp.LocalID = rc.localID
		case rc.pendingBackend != "":
			rp.Backend = rc.pendingBackend
			rp.LocalID = rc.localID
		}
		p.Coflows[i] = rp
	}
	return p
}
