package cluster

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"coflowsched/internal/monitor"
	"coflowsched/internal/telemetry"
)

// TestProfilingSmoke is the CI profiling smoke: a cluster under load loses a
// shard, the resulting firing transition must write a bundle whose on-alert
// evidence includes a non-empty CPU profile from a live target, and the live
// shard's exposition must serve the stage family through the strict parser.
// It is the end-to-end check that the on-alert profile capture path actually
// reaches /debug/pprof.
func TestProfilingSmoke(t *testing.T) {
	bundleDir := t.TempDir()
	l, err := NewLocal(LocalConfig{
		Shards:    2,
		TimeScale: 200,
		Gateway: Config{
			HealthInterval: 100 * time.Millisecond,
		},
		Monitor: &monitor.Config{
			Interval:  100 * time.Millisecond,
			BundleDir: bundleDir,
		},
		Logger: telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new local cluster: %v", err)
	}
	t.Cleanup(l.Close)

	// Put the cluster under load so the captured CPU profile samples real
	// scheduler work, then kill a shard mid-flight.
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		// Failures are expected: the kill races in-flight admissions.
		_, _ = replayUniform(l.Client(), false)
	}()
	time.Sleep(300 * time.Millisecond)
	l.Kill(1)
	<-loadDone

	// Wait for a firing transition to write its bundle (the capture blocks
	// on the CPU profile's sampling window before the file lands).
	deadline := time.Now().Add(30 * time.Second)
	for len(l.Monitor.Bundles()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no bundle written")
		}
		time.Sleep(50 * time.Millisecond)
	}

	data, err := os.ReadFile(l.Monitor.Bundles()[0].Path)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	var b monitor.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if len(b.Profiles) == 0 {
		t.Fatal("bundle carries no profile captures")
	}
	cpuBytes := 0
	for name, pc := range b.Profiles {
		if pc.Err != "" {
			t.Logf("profile capture for %s partial: %s", name, pc.Err)
		}
		cpuBytes += len(pc.CPU)
		// A CPU profile is a gzipped proto; check the magic rather than
		// just non-emptiness so a captured error page can't pass.
		if len(pc.CPU) >= 2 && (pc.CPU[0] != 0x1f || pc.CPU[1] != 0x8b) {
			t.Errorf("CPU profile for %s is not gzip (starts %x)", name, pc.CPU[:2])
		}
	}
	if cpuBytes == 0 {
		t.Fatalf("every profile capture has an empty CPU profile: %+v", keys(b.Profiles))
	}
	// Epoch rings come from the shards, once each: the gateway serves none.
	if _, ok := b.Epochs["gateway"]; ok {
		t.Error("bundle carries an epoch ring under the gateway target")
	}
	if _, ok := b.Epochs["shard0"]; !ok {
		t.Error("bundle lacks the live shard0's epoch ring")
	}

	// The live shard's /metrics must expose the stage family through the
	// strict parser (getMetrics fails the test on a parse error).
	sm := getMetrics(t, l.ShardURL(0))
	if _, ok := firstSample(sm, "coflowd_admit_stage_seconds_count"); !ok {
		t.Error("live shard metrics missing coflowd_admit_stage_seconds_count")
	}
}

func keys(m map[string]monitor.ProfileCapture) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
