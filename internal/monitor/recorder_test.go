package monitor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"coflowsched/internal/telemetry"
)

// TestBundleWritesAreAtomic polls the bundle directory the way an operator's
// tooling would (glob the final bundle-*.json names, read and parse each the
// moment it first shows up) while the recorder captures bundle after bundle:
// no read may ever see an empty or half-written file, the index must only
// name files that are already whole, and no temporary file may be left
// behind. The store is stuffed so a bundle is a few hundred KB and a
// non-atomic write stays observable for a while.
func TestBundleWritesAreAtomic(t *testing.T) {
	shard := newFakeShard(t, "shard0")
	dir := t.TempDir()
	m, err := New(Config{
		Targets:   []Target{{Name: "shard0", URL: shard.ts.URL}},
		Interval:  time.Hour,
		Rules:     testRules(),
		BundleDir: dir,
		Logger:    telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	now := time.Now()
	for s := 0; s < 200; s++ {
		labels := map[string]string{"instance": "shard0", "series": fmt.Sprint(s)}
		for p := 0; p < 20; p++ {
			m.Store().Append("filler_metric", labels, now.Add(time.Duration(p)*time.Second), float64(s*p))
		}
	}

	parse := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var b Bundle
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Errorf("%d bytes: %w", len(data), err)
		}
		if len(b.Series) < 200 {
			return fmt.Errorf("%d bytes parse but hold only %d series", len(data), len(b.Series))
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	seen := map[string]bool{}
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
			for _, p := range paths {
				if seen[p] {
					continue
				}
				if err := parse(p); err != nil {
					t.Errorf("reader saw a partial bundle %s: %v", filepath.Base(p), err)
					return
				}
				seen[p] = true
			}
		}
	}()

	const captures = 20
	rs := m.RuleStatuses()[0]
	for i := 0; i < captures; i++ {
		info, err := m.recorder.capture(rs, now.Add(time.Duration(i)*time.Millisecond))
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if err := parse(info.Path); err != nil {
			t.Fatalf("capture %d returned before its bundle was whole: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if got := m.Bundles(); len(got) != captures {
		t.Errorf("index holds %d bundles, want %d", len(got), captures)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != captures {
		t.Errorf("directory holds %d entries, want the %d bundles and no temporary file", len(entries), captures)
	}
	t.Logf("the reader parsed %d of %d bundles as they appeared", len(seen), captures)
}
