package server

import (
	"context"
	"reflect"
	"testing"
	"time"

	"coflowsched/internal/coflow"
)

// keys reads GET /v1/keys from a stepped server's own API.
func (s *stepped) keys(t *testing.T) KeysResponse {
	t.Helper()
	ks, err := s.client(t).Keys()
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	return ks
}

// admitKeyed admits cf under key at simulated time at.
func (s *stepped) admitKeyed(t *testing.T, at float64, cf coflow.Coflow, key string) AdmitResponse {
	t.Helper()
	s.clk.set(at)
	resp, err := s.client(t).AdmitWithKey(cf, "", key)
	if err != nil {
		t.Fatalf("admit %s under %q: %v", cf.Name, key, err)
	}
	resp.Durable = false // the listing carries durability once, not per key
	return resp
}

// wantKeys checks a listing against the admissions it must hold, in order.
func wantKeys(t *testing.T, ks KeysResponse, high int, want map[string]AdmitResponse) {
	t.Helper()
	if ks.High != high {
		t.Errorf("high = %d, want %d", ks.High, high)
	}
	if len(ks.Keys) != len(want) {
		t.Fatalf("listing holds %d keys %+v, want %d", len(ks.Keys), ks.Keys, len(want))
	}
	for i, k := range ks.Keys {
		if k.Admit != want[k.Key] {
			t.Errorf("key %s lists %+v, want %+v", k.Key, k.Admit, want[k.Key])
		}
		if i > 0 && k.Admit.ID < ks.Keys[i-1].Admit.ID {
			t.Errorf("listing not in admission order: %+v", ks.Keys)
		}
	}
}

// TestGatewayKeysSurviveRecovery: a durable daemon's gateway keys and its high
// come back from the log alone and from a snapshot plus the log suffix after
// it, with the admissions they made, and without specs: a durable shard
// recovers its coflows itself.
func TestGatewayKeysSurviveRecovery(t *testing.T) {
	for _, snap := range []bool{false, true} {
		name := map[bool]string{false: "wal-only", true: "snapshot+suffix"}[snap]
		t.Run(name, func(t *testing.T) {
			cfg := steppedConfig(t, t.TempDir())
			s := mustStartStepped(t, cfg)
			want := map[string]AdmitResponse{"gw-3": s.admitKeyed(t, 0, admitSpec(0), "gw-3")}
			s.admitKeyed(t, 0.5, admitSpec(1), "client-key")
			if snap {
				s.snapshot(t)
			}
			want["gw-7"] = s.admitKeyed(t, 1, admitSpec(2), "gw-7")
			s.Kill()

			r := mustStartStepped(t, cfg)
			ks := r.keys(t)
			if !ks.Durable {
				t.Error("a daemon with a WAL lists itself not durable")
			}
			wantKeys(t, ks, 7, want)
			for _, k := range ks.Keys {
				if k.Done || k.Spec != nil {
					t.Errorf("key %s: done=%v spec=%v, want in flight without a spec", k.Key, k.Done, k.Spec)
				}
			}
		})
	}
}

// TestGatewayHighOutlivesEviction: once a completed coflow's key has been
// evicted after its grace window, the daemon no longer lists it, but high
// still counts it, and a snapshot written after the eviction carries high
// across a restart.
func TestGatewayHighOutlivesEviction(t *testing.T) {
	cfg := steppedConfig(t, t.TempDir())
	s := mustStartStepped(t, cfg)
	s.admitKeyed(t, 0, admitSpec(0), "gw-5")
	s.tickUntilDone(t)
	if ks := s.keys(t); len(ks.Keys) != 1 || !ks.Keys[0].Done {
		t.Fatalf("completed key inside its grace window lists as %+v, want gw-5 done", ks.Keys)
	}
	if err := s.do(context.Background(), func() {
		s.idemTombs[0].expires = time.Now().Add(-time.Second)
		s.retireIdem(nil)
	}); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, s.keys(t), 5, nil)
	s.snapshot(t)
	s.Kill()
	wantKeys(t, mustStartStepped(t, cfg).keys(t), 5, nil)
}

// TestClientKeysNotListed: the typed client's random keys, and keys that only
// look like a gateway's, are neither listed nor counted in high.
func TestClientKeysNotListed(t *testing.T) {
	s := mustStartStepped(t, steppedConfig(t, ""))
	c := s.client(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Admit(admitSpec(i)); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	for i, key := range []string{"gw-", "gw-07", "gw--1", "gw-x", "gw-+4", "x-gw-4"} {
		if _, ok := GatewayKeyID(key); ok {
			t.Errorf("GatewayKeyID(%q) parsed", key)
		}
		s.admitKeyed(t, 0, admitSpec(3+i), key)
	}
	wantKeys(t, s.keys(t), -1, nil)
	if gid, ok := GatewayKeyID(GatewayKey(12)); !ok || gid != 12 {
		t.Errorf("GatewayKeyID(GatewayKey(12)) = %d, %v", gid, ok)
	}
}

// TestKeysWithoutWALListSpecs: a daemon without a WAL lists each in-flight
// gateway coflow's spec exactly as admitted (releases still offsets), which is
// what a gateway re-admits it from, and drops the spec once it completes.
func TestKeysWithoutWALListSpecs(t *testing.T) {
	s := mustStartStepped(t, steppedConfig(t, ""))
	specs := map[string]coflow.Coflow{"gw-0": admitSpec(0), "gw-1": admitSpec(1)}
	specs["gw-1"].Flows[1].Release = 0.75
	want := map[string]AdmitResponse{}
	for i, key := range []string{"gw-0", "gw-1"} {
		want[key] = s.admitKeyed(t, float64(i), specs[key], key)
	}
	ks := s.keys(t)
	if ks.Durable {
		t.Error("a daemon without a WAL lists itself durable")
	}
	wantKeys(t, ks, 1, want)
	for _, k := range ks.Keys {
		if k.Spec == nil || !reflect.DeepEqual(*k.Spec, specs[k.Key]) {
			t.Errorf("key %s lists spec %+v, want %+v", k.Key, k.Spec, specs[k.Key])
		}
	}
	s.tickUntilDone(t)
	for _, k := range s.keys(t).Keys {
		if !k.Done || k.Spec != nil {
			t.Errorf("completed key %s: done=%v spec=%v, want done without a spec", k.Key, k.Done, k.Spec)
		}
	}
}
