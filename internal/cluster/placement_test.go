package cluster

import (
	"testing"
)

func mkBackends(names ...string) []*Backend {
	out := make([]*Backend, len(names))
	for i, n := range names {
		out[i] = &Backend{name: n, healthy: true, local: map[int]int{}}
	}
	return out
}

// TestConsistentHashDeterministic: the same id always lands on the same
// backend, and ids spread across the set.
func TestConsistentHashDeterministic(t *testing.T) {
	backends := mkBackends("a", "b", "c")
	counts := map[string]int{}
	for id := 0; id < 300; id++ {
		b1 := hashPlace(id, backends)
		b2 := hashPlace(id, backends)
		if b1 != b2 {
			t.Fatalf("id %d placed on %s then %s", id, b1.name, b2.name)
		}
		counts[b1.name]++
	}
	for _, name := range []string{"a", "b", "c"} {
		if counts[name] < 50 {
			t.Errorf("backend %s got %d of 300 ids; hash does not spread (%v)", name, counts[name], counts)
		}
	}
}

// TestConsistentHashStability: removing one backend only moves the ids that
// lived on it — the defining property of consistent hashing.
func TestConsistentHashStability(t *testing.T) {
	full := mkBackends("a", "b", "c")
	without := full[:2] // "c" ejected
	moved, stayed := 0, 0
	for id := 0; id < 300; id++ {
		before := hashPlace(id, full)
		after := hashPlace(id, without)
		if before.name == "c" {
			continue // had to move
		}
		if before.name == after.name {
			stayed++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d ids moved that did not live on the removed backend (stayed %d)", moved, stayed)
	}
}
