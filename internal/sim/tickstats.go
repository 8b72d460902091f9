package sim

// TickStats aggregates the allocator work done between two TakeTickStats
// calls: how many dirty-suffix reallocation passes ran and how deep they
// were. The online engine drains it once per tick and the daemon rolls it
// into /v1/epochs.
//
// Accumulation costs three integer adds per reallocation pass — nothing on
// the per-event hot path reads the clock.
type TickStats struct {
	// Reallocs counts reallocation passes (dirty-suffix redos plus full
	// rebases) under the Priority policy.
	Reallocs int
	// SuffixSum and SuffixMax aggregate the redo suffix lengths (flows
	// re-allocated per pass).
	SuffixSum int
	SuffixMax int
}

// TakeTickStats returns the work aggregates accumulated since the last call
// and resets them. Call between RunUntil steps, never concurrently with one.
func (s *Simulator) TakeTickStats() TickStats {
	ts := s.tickStats
	s.tickStats = TickStats{}
	return ts
}
