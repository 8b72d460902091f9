package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Bundle is a flight-recorder post-mortem: everything the monitor can see at
// the moment a rule fires, in one JSON file. The pieces join: Series carry
// {instance=...} and scraped {shard=...} labels, Traces are each daemon's
// /debug/traces ring (spans join on trace id across gateway and shard), and
// Epochs are each shard's /v1/epochs tail (records join on shard name and
// the trace ids recorded per epoch).
type Bundle struct {
	Rule       RuleStatus                 `json:"rule"`
	CapturedAt time.Time                  `json:"captured_at"`
	Targets    []TargetStatus             `json:"targets"`
	Series     []SeriesData               `json:"series"`
	Epochs     map[string]json.RawMessage `json:"epochs,omitempty"`
	Traces     map[string]json.RawMessage `json:"traces,omitempty"`
	// Profiles attach a short CPU profile plus a heap snapshot per live
	// target, captured through /debug/pprof while the incident is still in
	// flight — the "what was it doing" the series can't answer.
	Profiles map[string]ProfileCapture `json:"profiles,omitempty"`
}

// ProfileCapture is one target's on-alert pprof evidence. The byte slices
// are raw pprof protos (gzip), base64-encoded by JSON marshalling; decode
// with base64 -d and feed straight to `go tool pprof`. Err records a partial
// failure — a dead target yields an Err, not a missing entry. In an
// in-process cluster every target shares one Go CPU profiler, so concurrent
// CPU captures collide and only one target's succeeds (the rest carry a
// "profiling already in use" Err); real deployments profile per process.
type ProfileCapture struct {
	CPU  []byte `json:"cpu,omitempty"`
	Heap []byte `json:"heap,omitempty"`
	Err  string `json:"err,omitempty"`
}

// BundleInfo is the index entry for one written bundle, served at /v1/slo.
type BundleInfo struct {
	Rule       string    `json:"rule"`
	Path       string    `json:"path"`
	CapturedAt time.Time `json:"captured_at"`
	SizeBytes  int64     `json:"size_bytes"`
}

// evidenceTail bounds the per-target epoch and trace tails captured into a
// bundle; keepBundles bounds the in-memory index (files stay on disk);
// profileDuration is the on-alert CPU profile's sampling window, in the
// whole seconds net/http/pprof takes.
const (
	epochTail       = 128
	traceTail       = 256
	keepBundles     = 64
	profileDuration = time.Second
)

// recorder captures bundles into a directory on firing transitions.
type recorder struct {
	dir string
	m   *Monitor
	// profClient outlives the monitor's scrape client on purpose: a CPU
	// profile blocks for the full sampling window before the first byte, so
	// its timeout is the evidence timeout plus profileDuration.
	profClient *http.Client

	mu      sync.Mutex
	written []BundleInfo
}

func newRecorder(dir string, m *Monitor) *recorder {
	return &recorder{
		dir:        dir,
		m:          m,
		profClient: &http.Client{Timeout: httpTimeout + profileDuration},
	}
}

// capture assembles and writes one bundle for a just-fired rule.
func (rc *recorder) capture(rs RuleStatus, now time.Time) (BundleInfo, error) {
	targets := rc.m.TargetStatuses()
	b := Bundle{
		Rule:       rs,
		CapturedAt: now,
		Targets:    targets,
		Series:     rc.m.Store().Dump(),
		Epochs:     make(map[string]json.RawMessage),
		Traces:     make(map[string]json.RawMessage),
	}
	// Profiles sample concurrently while the cheap evidence fetches run: the
	// CPU profile blocks for its whole sampling window, and serializing it
	// per target would multiply the capture latency by the roster size.
	profDone := rc.captureProfiles(&b, targets)
	// Evidence fetches are best-effort: a bundle for a dead-shard alert must
	// still be written even though the dead shard answers nothing.
	for _, t := range targets {
		if raw, err := rc.fetchJSON(fmt.Sprintf("%s/v1/epochs?n=%d", strings.TrimSuffix(t.URL, "/"), epochTail)); err == nil {
			b.Epochs[t.Name] = raw
		}
		if raw, err := rc.fetchJSON(fmt.Sprintf("%s/debug/traces?n=%d", strings.TrimSuffix(t.URL, "/"), traceTail)); err == nil {
			b.Traces[t.Name] = raw
		}
	}
	profDone()
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return BundleInfo{}, err
	}
	name := fmt.Sprintf("bundle-%s-%d.json", sanitizeRuleName(rs.Rule.Name), now.UnixNano())
	path := filepath.Join(rc.dir, name)
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return BundleInfo{}, fmt.Errorf("marshal bundle: %w", err)
	}
	// Write under a temporary name and rename into place: whoever lists the
	// directory (or reads a path from the index below) sees a whole bundle.
	tmp := path + ".tmp"
	if err = os.WriteFile(tmp, data, 0o644); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort; err is the failure worth reporting
		return BundleInfo{}, err
	}
	info := BundleInfo{Rule: rs.Rule.Name, Path: path, CapturedAt: now, SizeBytes: int64(len(data))}
	rc.mu.Lock()
	rc.written = append(rc.written, info)
	if len(rc.written) > keepBundles {
		rc.written = rc.written[len(rc.written)-keepBundles:]
	}
	rc.mu.Unlock()
	return info, nil
}

// captureProfiles launches one goroutine per healthy target to pull a CPU
// profile and heap snapshot through /debug/pprof, writing results into
// b.Profiles. It returns a join function; the caller must call it before
// reading or marshalling the bundle. Unhealthy targets are skipped outright —
// the profile client's long timeout would otherwise stall the whole capture
// waiting on a daemon already known to be dead.
func (rc *recorder) captureProfiles(b *Bundle, targets []TargetStatus) func() {
	b.Profiles = make(map[string]ProfileCapture)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, t := range targets {
		if !t.Healthy {
			continue
		}
		wg.Add(1)
		go func(t TargetStatus) {
			defer wg.Done()
			base := strings.TrimSuffix(t.URL, "/")
			var pc ProfileCapture
			cpu, cpuErr := rc.fetchRaw(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, int(profileDuration/time.Second)))
			heap, heapErr := rc.fetchRaw(base + "/debug/pprof/heap")
			pc.CPU, pc.Heap = cpu, heap
			if cpuErr != nil {
				pc.Err = "cpu: " + cpuErr.Error()
			} else if heapErr != nil {
				pc.Err = "heap: " + heapErr.Error()
			}
			mu.Lock()
			b.Profiles[t.Name] = pc
			mu.Unlock()
		}(t)
	}
	return wg.Wait
}

// fetchRaw pulls an opaque body (pprof protos) with the profile client.
func (rc *recorder) fetchRaw(url string) ([]byte, error) {
	resp, err := rc.profClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (rc *recorder) fetchJSON(url string) (json.RawMessage, error) {
	resp, err := rc.m.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("response is not JSON")
	}
	return json.RawMessage(body), nil
}

func (rc *recorder) list() []BundleInfo {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]BundleInfo{}, rc.written...)
}

// sanitizeRuleName keeps bundle file names shell- and filesystem-friendly.
func sanitizeRuleName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
