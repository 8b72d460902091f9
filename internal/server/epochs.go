package server

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// EpochRecord is one scheduler tick as /v1/epochs reports it: when the tick
// ran, how long the simulation advance took, what was active, and — when a
// policy decision landed during the preceding interval — how long the solve
// took and how much it reshuffled the standing order. The ring of these is
// the introspection surface for explaining a slowdown tail: a stretch of
// high decide latency or saturated active counts shows up here long after
// the aggregate percentiles have averaged it away.
type EpochRecord struct {
	// Epoch is the engine's epoch counter after the tick; SimNow the engine
	// clock it advanced to.
	Epoch  int     `json:"epoch"`
	SimNow float64 `json:"sim_now"`
	// Wall is the tick's wall-clock time; TickSeconds how long the
	// simulation advance took.
	Wall        time.Time `json:"wall"`
	TickSeconds float64   `json:"tick_seconds"`
	// ActiveCoflows/ActiveFlows are the engine's live counts after the tick;
	// Completed counts coflows that finished during it.
	ActiveCoflows int `json:"active_coflows"`
	ActiveFlows   int `json:"active_flows"`
	Completed     int `json:"completed_in_tick"`
	// Decided marks ticks where an asynchronous policy decision was applied
	// since the previous record; DecideSeconds is that solve's wall-clock
	// latency, OrderChurn the fraction of the priority order it changed, and
	// Fallback marks a decision the policy fell back to (online.Fallback:
	// LPEpoch's SEBF order on a solver error).
	Decided       bool    `json:"decided"`
	DecideSeconds float64 `json:"decide_seconds,omitempty"`
	OrderChurn    float64 `json:"order_churn,omitempty"`
	Fallback      bool    `json:"fallback,omitempty"`
	// Preempted counts flows that lost their head-of-order position in the
	// applied decision, approximated as churn * active flows.
	Preempted int `json:"preempted,omitempty"`
	// Allocator-work aggregates for the tick's advance (sim.TickStats):
	// reallocation passes and their dirty-suffix depth.
	Reallocs       int `json:"reallocs,omitempty"`
	DirtySuffixSum int `json:"dirty_suffix_sum,omitempty"`
	DirtySuffixMax int `json:"dirty_suffix_max,omitempty"`
}

// epochRingCap bounds the retained epoch records; /v1/epochs reports the
// most recent window, like every other long-running surface here.
const epochRingCap = 512

// pushEpoch appends one record to the ring. Scheduler goroutine only.
func (s *Server) pushEpoch(rec EpochRecord) {
	if len(s.epochRing) < epochRingCap {
		s.epochRing = append(s.epochRing, rec)
		return
	}
	s.epochRing[s.epochNext] = rec
	s.epochNext = (s.epochNext + 1) % epochRingCap
}

// epochsSnapshot copies the ring in chronological order via the scheduler
// goroutine, limited to the most recent n records when n > 0.
func (s *Server) epochsSnapshot(ctx context.Context, n int) ([]EpochRecord, error) {
	var out []EpochRecord
	err := s.do(ctx, func() {
		out = make([]EpochRecord, 0, len(s.epochRing))
		out = append(out, s.epochRing[s.epochNext:]...)
		out = append(out, s.epochRing[:s.epochNext]...)
	})
	if err != nil {
		return nil, err
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out, nil
}

// EpochsResponse is GET /v1/epochs: the scheduler's recent-epoch ring plus
// the configuration needed to read it.
type EpochsResponse struct {
	Policy      string        `json:"policy"`
	EpochLength float64       `json:"epoch_length"`
	Shard       string        `json:"shard,omitempty"`
	Records     []EpochRecord `json:"records"`
}

// handleEpochs serves GET /v1/epochs?n=<count>.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			RespondError(w, http.StatusBadRequest, "invalid n")
			return
		}
		n = v
	}
	recs, err := s.epochsSnapshot(r.Context(), n)
	if err != nil {
		RespondError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if recs == nil {
		recs = []EpochRecord{}
	}
	RespondJSON(w, http.StatusOK, EpochsResponse{
		Policy:      s.cfg.Policy.Name(),
		EpochLength: s.cfg.EpochLength,
		Shard:       s.cfg.Shard,
		Records:     recs,
	})
}
