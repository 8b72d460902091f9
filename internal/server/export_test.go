package server

import (
	"context"
	"testing"

	"coflowsched/internal/online"
)

// Stepped opens the stepped harness (clock_test.go) to the package's external
// tests, which put a cluster gateway in front of stepped daemons: the
// gateway's package imports this one, so only an external test can use both.
type Stepped = stepped

// StartStepped starts a stateless stepped daemon on steppedConfig with the
// given policy.
func StartStepped(t *testing.T, policy online.Policy) *Stepped {
	cfg := steppedConfig(t, "")
	cfg.Policy = policy
	return mustStartStepped(t, cfg)
}

// TickAt fires one epoch tick at simulated time at and waits for its decide.
func (s *stepped) TickAt(t *testing.T, at float64) { s.tickAt(t, at) }

// EngineCoflow reads one coflow's status from the engine, not the wire.
func (s *stepped) EngineCoflow(t *testing.T, id int) (online.CoflowStatus, bool) {
	t.Helper()
	var st online.CoflowStatus
	var ok bool
	if err := s.do(context.Background(), func() { st, ok = s.eng.CoflowStatus(id) }); err != nil {
		t.Fatalf("coflow %d: %v", id, err)
	}
	return st, ok
}
