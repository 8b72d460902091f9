package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"coflowsched/internal/telemetry"
)

// Target is one scrape endpoint: a stable instance name (the label stamped
// onto every stored series) and the base URL of a daemon serving /metrics.
type Target struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config parameterizes a Monitor.
type Config struct {
	// Targets are statically configured scrape endpoints.
	Targets []Target
	// DiscoverURL, when set, is a coflowgate base URL: the gateway itself is
	// scraped under the instance name "gateway", and its /v1/backends roster
	// is re-read every interval so shards come and go dynamically. A plain
	// coflowd there has no roster (404) and is scraped alone, under the
	// instance name "coflowd".
	DiscoverURL string
	// Interval between scrape-and-evaluate cycles. Default 1s.
	Interval time.Duration
	// Rules is the SLO set; nil means DefaultRules(Interval).
	Rules []Rule
	// BundleDir is where the flight recorder writes post-mortem bundles on
	// a rule's transition to firing, each with a CPU profile and heap
	// snapshot from every live target. Empty disables the recorder.
	BundleDir string
	// Logger receives structured scrape/rule logs; nil discards.
	Logger *slog.Logger
}

// TargetStatus is one target's most recent scrape outcome, served at
// /v1/targets and embedded in bundles.
type TargetStatus struct {
	Target
	Healthy         bool      `json:"healthy"`
	LastScrape      time.Time `json:"last_scrape"`
	DurationSeconds float64   `json:"duration_seconds"`
	Samples         int       `json:"samples"`
	LastError       string    `json:"last_error,omitempty"`
}

// Monitor scrapes targets into a Store on a fixed interval, evaluates SLO
// rules over the stored series, and hands firing transitions to the flight
// recorder.
type Monitor struct {
	cfg      Config
	store    *Store
	client   *http.Client
	log      *slog.Logger
	recorder *recorder

	// tickMu serializes Tick: two concurrent ticks could append a series'
	// points out of time order, which the counter views read as a reset.
	tickMu sync.Mutex
	// discovered is DiscoverURL's instance name as of its last roster answer
	// ("gateway" before the first). Guarded by tickMu.
	discovered string

	mu       sync.Mutex
	rules    []*ruleInstance
	statuses map[string]*TargetStatus
	order    []string // target names in first-seen order

	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// httpTimeout bounds each scrape and evidence fetch.
const httpTimeout = 2 * time.Second

// New validates the config, primes the rule set and starts the scrape loop.
func New(cfg Config) (*Monitor, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	if cfg.Rules == nil {
		cfg.Rules = DefaultRules(cfg.Interval)
	}
	if len(cfg.Targets) == 0 && cfg.DiscoverURL == "" {
		return nil, fmt.Errorf("monitor: no targets and no discover URL")
	}
	seen := map[string]bool{}
	for _, t := range cfg.Targets {
		if t.Name == "" || t.URL == "" {
			return nil, fmt.Errorf("monitor: target needs name and url: %+v", t)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("monitor: duplicate target name %q", t.Name)
		}
		seen[t.Name] = true
	}
	m := &Monitor{
		cfg:        cfg,
		store:      NewStore(DefaultMaxPoints),
		client:     &http.Client{Timeout: httpTimeout},
		log:        cfg.Logger,
		statuses:   make(map[string]*TargetStatus),
		discovered: "gateway",
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	now := time.Now()
	for _, r := range cfg.Rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		m.rules = append(m.rules, &ruleInstance{rule: r, state: StateHealthy, since: now})
	}
	if cfg.BundleDir != "" {
		m.recorder = newRecorder(cfg.BundleDir, m)
	}
	go m.loop()
	return m, nil
}

// Store exposes the underlying time-series store (read-only use: queries and
// the quantile-agreement tests).
func (m *Monitor) Store() *Store { return m.store }

// Close stops the scrape loop and waits for it to exit.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Monitor) loop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			select {
			case <-m.stop: // a tick due at Close is not taken
				return
			default:
			}
			m.Tick()
		}
	}
}

// Tick runs one synchronous scrape-and-evaluate cycle. The loop calls it on
// every interval; a caller may call it too, also after Close, to step the
// monitor deterministically or to scrape at a moment of its choosing. Ticks
// run one at a time.
func (m *Monitor) Tick() {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	now := time.Now()
	targets := m.resolveTargets()
	var wg sync.WaitGroup
	results := make([]TargetStatus, len(targets))
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			results[i] = m.scrapeTarget(t, now)
		}(i, t)
	}
	wg.Wait()

	m.mu.Lock()
	for i := range results {
		st := results[i]
		if _, ok := m.statuses[st.Name]; !ok {
			m.order = append(m.order, st.Name)
		}
		m.statuses[st.Name] = &st
	}
	m.mu.Unlock()

	m.evaluate(now)
}

// resolveTargets merges the static target list with the DiscoverURL daemon
// and its roster.
func (m *Monitor) resolveTargets() []Target {
	targets := append([]Target{}, m.cfg.Targets...)
	if m.cfg.DiscoverURL != "" {
		name, backends, err := m.discover()
		if err != nil {
			m.log.Warn("backend discovery failed", "url", m.cfg.DiscoverURL, "err", err)
		} else {
			m.discovered = name
		}
		targets = append(targets, Target{Name: m.discovered, URL: m.cfg.DiscoverURL})
		targets = append(targets, backends...)
	}
	// De-duplicate by name, first wins (static config beats discovery).
	seen := map[string]bool{}
	out := targets[:0]
	for _, t := range targets {
		if seen[t.Name] {
			continue
		}
		seen[t.Name] = true
		out = append(out, t)
	}
	return out
}

// discover reads the gateway's /v1/backends roster, decoding only the name
// and url of each entry, and names the daemon "gateway". A plain coflowd
// answers 404 there: it is named "coflowd" and has no backends.
func (m *Monitor) discover() (name string, backends []Target, err error) {
	resp, err := m.client.Get(strings.TrimSuffix(m.cfg.DiscoverURL, "/") + "/v1/backends")
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "coflowd", nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %s", resp.Status)
	}
	var roster []struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		return "", nil, fmt.Errorf("decode roster: %w", err)
	}
	out := make([]Target, 0, len(roster))
	for _, b := range roster {
		if b.Name == "" || b.URL == "" {
			continue
		}
		out = append(out, Target{Name: b.Name, URL: b.URL})
	}
	return "gateway", out, nil
}

// scrapeTarget fetches and parses one /metrics page, appending every sample
// (stamped with {instance=<name>}) plus the synthetic up series the
// scrape-failure rule reads. The scrape's error and duration go to the
// target's status only.
func (m *Monitor) scrapeTarget(t Target, now time.Time) TargetStatus {
	start := time.Now()
	page, err := m.fetchMetrics(t.URL)
	st := TargetStatus{Target: t, LastScrape: now, DurationSeconds: time.Since(start).Seconds()}
	up := 0.0
	if err != nil {
		st.LastError = err.Error()
		m.log.Warn("scrape failed", "instance", t.Name, "url", t.URL, "err", err)
	} else {
		up = 1
		st.Healthy = true
		st.Samples = len(page.Samples)
		for _, s := range page.Samples {
			labels := map[string]string{"instance": t.Name}
			for k, v := range s.Labels {
				labels[k] = v
			}
			m.store.Append(s.Name, labels, now, s.Value)
		}
	}
	m.store.Append("up", map[string]string{"instance": t.Name}, now, up)
	return st
}

func (m *Monitor) fetchMetrics(base string) (*telemetry.Metrics, error) {
	resp, err := m.client.Get(strings.TrimSuffix(base, "/") + "/metrics")
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
	return telemetry.ParseMetrics(string(body))
}

// evaluate steps every rule's state machine and triggers the recorder on
// firing transitions.
func (m *Monitor) evaluate(now time.Time) {
	var fired []RuleStatus
	m.mu.Lock()
	for _, ri := range m.rules {
		if ri.eval(m.store, now) {
			fired = append(fired, ri.status())
		}
	}
	m.mu.Unlock()
	for _, rs := range fired {
		m.log.Error("SLO rule firing", "rule", rs.Rule.Name, "metric", rs.Rule.Metric,
			"fast_burn", deref(rs.FastBurn), "slow_burn", deref(rs.SlowBurn))
		if m.recorder != nil {
			if info, err := m.recorder.capture(rs, now); err != nil {
				m.log.Error("bundle capture failed", "rule", rs.Rule.Name, "err", err)
			} else {
				m.log.Info("bundle written", "rule", rs.Rule.Name, "path", info.Path)
			}
		}
	}
}

func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}

// RuleStatuses snapshots every rule's state, in configuration order.
func (m *Monitor) RuleStatuses() []RuleStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RuleStatus, len(m.rules))
	for i, ri := range m.rules {
		out[i] = ri.status()
	}
	return out
}

// TargetStatuses snapshots every known target's last scrape outcome.
func (m *Monitor) TargetStatuses() []TargetStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TargetStatus, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, *m.statuses[name])
	}
	return out
}

// Bundles lists the flight-recorder bundles written so far (newest last).
func (m *Monitor) Bundles() []BundleInfo {
	if m.recorder == nil {
		return nil
	}
	return m.recorder.list()
}
