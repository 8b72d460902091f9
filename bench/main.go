// Command bench is the repository's benchmark: the one program every later
// performance or simplicity claim is measured by. BENCHMARK.json at the root
// of the repository declares how it is run, its workloads, its metrics and
// the bound by which each end-to-end metric may worsen; README.md in this
// directory says why each was chosen and how the metrics interact.
//
// The driver's form, one workload per process, the result as the last line:
//
//	bash bench/run.sh --workload online-sebf-k4 --seed 1 --seconds 10 --trace 0
//
// Everything at once, with the per-layer (traced) numbers and a results file
// that `compare` reads:
//
//	bash bench/run.sh --workload all --seed 1 --trace 1 --repeat 3 --out A.json
//	bash bench/run.sh compare A.json B.json
//
// Every layer is measured from outside: the benchmark times its own calls
// into the packages' public functions and scrapes the /metrics the daemons
// already export. It changes nothing in the program under test.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"coflowsched/internal/stats"
)

// commit is stamped by run.sh (-ldflags -X); a checkout that is not a git
// repository reports "unknown".
var commit = "unknown"

// metricDecl and benchSpec mirror BENCHMARK.json, the single declaration of
// metric names, units, directions and bounds: the program reads it rather
// than repeating it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	repeat   int
	out      string
	walDir   string
	traceDir string
	spec     string
	passLog  string
}

// host is the provenance printed with, and stored in, every result.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	WALDir     string `json:"wal_dir"`
	WALFS      string `json:"wal_fs"`
}

// metric is one reported number; N is the sample count behind a percentile
// or a median (kept out of the driver's result line, which has exactly value
// and unit).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload: the medians over its iterations.
type result struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seed       int64          `json:"seed"`
	Scale      string         `json:"scale"`
	Seconds    float64        `json:"seconds"`
	Iterations int            `json:"iterations"`
	Params     map[string]any `json:"params"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Failures   []string       `json:"failures,omitempty"`
	// Exact names the metrics that depend on the input alone on this
	// workload: on one seed they must repeat bit for bit.
	Exact   []string          `json:"exact,omitempty"`
	Metrics map[string]metric `json:"metrics"`
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Host host     `json:"host"`
	Runs []result `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose outputs were wrong; the results are printed
// all the same.
var errIncorrect = errors.New("a workload's outputs were not correct")

func benchMain(args []string) error {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "how long one run repeats its workload (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1 records spans around each layer call and reports the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke (a few coflows, for go test)")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload (compare takes their median)")
	fs.StringVar(&o.out, "out", "", "write every run, with host and parameters, to this JSON file")
	fs.StringVar(&o.walDir, "waldir", "", "directory the daemons' write-ahead logs go under (default: /dev/shm if it can be written, else .bench_build/wal)")
	fs.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "directory the last traced iteration's spans are written to")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark declaration")
	fs.StringVar(&o.passLog, "passlog", "", "append one JSON line per pass (raw times and the host reference) to this file")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = trace != 0

	spec, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if _, found := workloads[name]; !found {
			return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	if o.walDir == "" {
		o.walDir = defaultWALDir()
		defer os.RemoveAll(o.walDir)
		// A run that is interrupted must not leave its logs on the tmpfs.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			os.RemoveAll(o.walDir)
			os.Exit(130)
		}()
	}
	file := resultsFile{Host: hostInfo(o.walDir)}
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s commit=%s wal=%s (%s)\n",
		file.Host.CPUs, file.Host.GOMAXPROCS, file.Host.Go, file.Host.Commit, file.Host.WALDir, file.Host.WALFS)
	correct := true
	for _, name := range names {
		for r := 0; r < o.repeat; r++ {
			res, err := runWorkload(name, workloads[name], o, spec)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			file.Runs = append(file.Runs, *res)
			correct = correct && res.Correct
			printResult(res, spec)
		}
	}
	if o.out != "" {
		if err := writeResults(o.out, file); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func writeResults(path string, file resultsFile) error {
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// defaultWALDir puts the write-ahead logs on a tmpfs when the host has one:
// there the admit workloads measure the program's log path, group commit
// included, and repeat within a few percent; on the sandbox's disk the same
// runs swing by half with the disk's fsync latency, which is no property of
// the program. The directory is removed when the run ends. The filesystem
// used is recorded with the result.
func defaultWALDir() string {
	if dir, err := os.MkdirTemp("/dev/shm", "coflowbench-"); err == nil {
		return dir
	}
	return filepath.Join(".bench_build", "wal")
}

func hostInfo(walDir string) host {
	abs, err := filepath.Abs(walDir)
	if err != nil {
		abs = walDir
	}
	return host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		WALDir:     abs,
		WALFS:      fsType(walDir),
	}
}

// iteration is one pass of a workload: set-up, the timed window, the checks.
// The workload fills it in through startWindow, op, endWindow and fail.
type iteration struct {
	seed int64
	// round counts the run's passes, a traced pass and the untraced one it is
	// paired with sharing a number. The admit workloads draw each round's
	// coflows from it, so that a run pools more distinct coflows than one pass
	// can admit.
	round  int
	sz     sizes
	tr     *tracer // nil on an untraced iteration
	walDir string  // empty directory of this iteration's own

	begun, winStart, winEnd time.Time
	// pace is the host reference (ref.go) just before this pass and just
	// after; host is what they make of the window's times at the workload's
	// exponent: every time the run reports is the measured one divided by it.
	pace [2]float64
	host float64
	mem0 runtime.MemStats

	setup, wall time.Duration
	// opWindow is the span ops_per_s counts operations over: the window,
	// unless the workload sets it (the admit workloads stop at the last
	// admission, before the drain).
	opWindow time.Duration
	opsMs    []float64
	// serial is set by a workload whose operations run one after another,
	// cover the window between them and are the same on every pass, so that
	// the j-th operation of one pass can be set beside the j-th of another.
	serial bool
	// wcct and slowdowns are the schedule's quality; exact is true when
	// they depend on the input alone and so must repeat bit for bit.
	wcct      float64
	slowdowns []float64
	exact     bool

	allocMB, heapMB, gcCycles, gcPauseMs float64

	attempted, failed int
	failures          []string

	params map[string]any
	// layer holds this iteration's per-layer numbers, dist its span
	// durations by name (seconds), pooled over iterations before a
	// percentile is taken.
	layer map[string]float64
	dist  map[string][]float64
}

// newIteration starts an iteration's clock on a collected heap, so that one
// pass's garbage is not the next one's set-up time.
func newIteration(seed int64, round int, sz sizes, tr *tracer, walDir string) *iteration {
	runtime.GC()
	return &iteration{seed: seed, round: round, sz: sz, tr: tr, walDir: walDir, begun: time.Now(),
		params: map[string]any{}, layer: map[string]float64{}, dist: map[string][]float64{}}
}

// startWindow ends set-up and opens the timed window.
func (it *iteration) startWindow() {
	runtime.ReadMemStats(&it.mem0)
	it.winStart = time.Now()
	it.setup = it.winStart.Sub(it.begun)
}

// op records one operation's latency.
func (it *iteration) op(d time.Duration) { it.opsMs = append(it.opsMs, d.Seconds()*1e3) }

// endWindow closes the timed window. The live heap is read after a forced
// collection with everything the workload built still reachable by it, so a
// table that grows with lifetime admissions shows.
func (it *iteration) endWindow() {
	it.winEnd = time.Now()
	it.wall = it.winEnd.Sub(it.winStart)
	if it.opWindow == 0 {
		it.opWindow = it.wall
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	it.allocMB = float64(m.TotalAlloc-it.mem0.TotalAlloc) / (1 << 20)
	it.gcCycles = float64(m.NumGC - it.mem0.NumGC)
	it.gcPauseMs = float64(m.PauseTotalNs-it.mem0.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&m)
	it.heapMB = float64(m.HeapAlloc) / (1 << 20)
}

// attempt counts n operations; fail counts one of them as failed.
func (it *iteration) attempt(n int) { it.attempted += n }

func (it *iteration) fail(format string, args ...any) {
	it.failed++
	if len(it.failures) < 8 {
		it.failures = append(it.failures, fmt.Sprintf(format, args...))
	}
}

// workloadFn runs one iteration. An error aborts the run: it means the
// benchmark could not set the workload up, not that an operation failed.
type workloadFn func(it *iteration) error

// probeFn measures a layer directly, once per traced run, after the loop.
type probeFn func(o options, sz sizes) (map[string]metric, error)

type workloadDef struct {
	run   workloadFn
	probe probeFn
	// hostExp is how strongly the workload's times follow the host
	// reference (ref.go).
	hostExp float64
}

var workloads = map[string]workloadDef{
	"offline-fig3":   {run: runOffline, hostExp: 0.85},
	"online-sebf-k4": {run: onlineWorkload(4, false), probe: kspProbe(4), hostExp: 0.85},
	"online-sebf-k8": {run: onlineWorkload(8, false), probe: kspProbe(8), hostExp: 0.85},
	"online-lp-k4":   {run: onlineWorkload(4, true), probe: kspProbe(4), hostExp: 0.85},
	"admit-shard":    {run: admitWorkload(false), probe: walProbe, hostExp: 1.2},
	"admit-cluster":  {run: admitWorkload(true), probe: walProbe, hostExp: 0.1},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload repeats the workload until o.seconds have passed and reduces
// the iterations to one result. With tracing on, every untraced iteration is
// followed by a traced one, which is what makes trace_overhead_pct a
// same-window pair rather than a comparison across minutes of machine drift.
func runWorkload(name string, w workloadDef, o options, spec *benchSpec) (*result, error) {
	sz, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	passes := 0
	var longest time.Duration
	measureRef() // the first burst grows the heap the later ones reuse
	pace := measureRef()
	pass := func(round int, tr *tracer) (*iteration, error) {
		passes++
		dir := filepath.Join(o.walDir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), passes))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		it := newIteration(o.seed, round, sz, tr, dir)
		err := w.run(it)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", passes, err)
		}
		longest = max(longest, time.Since(t0))
		it.pace = [2]float64{pace, measureRef()}
		pace = it.pace[1]
		it.host = hostFactor(it.pace[0], it.pace[1], w.hostExp)
		if o.passLog != "" {
			if err := logPass(o.passLog, name, it); err != nil {
				return nil, err
			}
		}
		return it, nil
	}
	var plain, traced []*iteration
	start := time.Now()
	// The run ends by o.seconds: another round is begun only while the longest
	// one so far would still fit.
	fits := func() bool {
		round := longest
		if o.trace {
			round *= 2
		}
		return time.Since(start)+round < time.Duration(o.seconds*float64(time.Second))
	}
	for len(plain) == 0 || fits() {
		// Which of a pair runs first alternates, so that neither side is
		// always the one that follows the other.
		order := []*tracer{nil}
		if o.trace {
			order = []*tracer{nil, newTracer()}
			if len(plain)%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
		}
		round := len(plain)
		for _, tr := range order {
			it, err := pass(round, tr)
			if err != nil {
				return nil, err
			}
			if tr == nil {
				plain = append(plain, it)
				continue
			}
			// Only the last traced pass's spans are written out; the earlier
			// ones have been reduced to numbers and need not stay in memory.
			if n := len(traced); n > 0 {
				traced[n-1].tr = nil
			}
			traced = append(traced, it)
		}
	}

	res := &result{Workload: name, Trace: o.trace, Seed: o.seed, Scale: o.scale, Seconds: o.seconds,
		Iterations: len(plain) + len(traced), Params: plain[0].params, Metrics: map[string]metric{}}
	all := append(append([]*iteration(nil), plain...), traced...)
	for _, it := range all {
		res.Attempted += it.attempted
		res.Failed += it.failed
		res.Failures = append(res.Failures, it.failures...)
		// The determinism witness: the same input gives the same schedule on
		// every iteration, traced or not.
		if it.exact && (it.wcct != all[0].wcct || pct(it.slowdowns, 95) != pct(all[0].slowdowns, 95)) {
			res.Failures = append(res.Failures, fmt.Sprintf("schedule not deterministic: weighted_cct %v then %v", all[0].wcct, it.wcct))
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	if all[0].exact {
		res.Exact = []string{"weighted_cct"}
	}

	values := map[string]metric{}
	if !o.trace {
		if err := endToEnd(plain, values); err != nil {
			return nil, err
		}
	} else {
		perLayer(plain, traced, values)
		if w.probe != nil {
			probed, err := w.probe(o, sz)
			if err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			for k, v := range probed {
				values[k] = v
			}
		}
		path := filepath.Join(o.traceDir, name+".json")
		meta := map[string]any{"workload": name, "seed": o.seed, "scale": o.scale, "params": res.Params}
		if err := traced[len(traced)-1].tr.write(path, meta); err != nil {
			return nil, err
		}
	}

	// Emit exactly the declared set. An end-to-end metric every workload must
	// measure; a per-layer metric belongs to some workloads and reads 0 on the
	// others. A name no declaration knows is a bug in the benchmark.
	decls := spec.EndToEnd
	if o.trace {
		decls = spec.PerLayer
	}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
		delete(values, d.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("metric %s is not declared in %s", name, o.spec)
	}
	return res, nil
}

// logPass appends one pass's raw numbers to a file: what hostfit.py fits the
// host-reference exponents on.
func logPass(path, workload string, it *iteration) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	line, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": it.seed, "round": it.round, "traced": it.tr != nil, "t": float64(time.Now().UnixNano()) / 1e9,
		"setup_s": it.setup.Seconds(), "wall_s": it.wall.Seconds(),
		"ops_per_s": float64(len(it.opsMs)) / it.opWindow.Seconds(),
		"op_p50_ms": pct(it.opsMs, 50), "op_p90_ms": pct(it.opsMs, 90), "op_p25_ms": pct(it.opsMs, 25),
		"pace": it.pace,
	})
	_, err = f.Write(append(line, '\n'))
	return err
}

func pct(xs []float64, p float64) float64 { return stats.PercentileOr(xs, p, 0) }

// median of f over the iterations, with the iteration count as its N.
func medianOf(its []*iteration, f func(*iteration) float64) metric {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return metric{Value: stats.Median(xs), N: len(xs)}
}

// quietOf is the quartile of f over the passes on its good side: the lower
// one, or with better "higher" the upper one. Every pass does the same work
// and whatever else the host is doing only ever adds to it, so the undisturbed
// passes are the fast ones; their quartile repeats from run to run where the
// median follows the share of the run the host's neighbours were busy, and the
// single best pass is an extreme that does not repeat either.
func quietOf(its []*iteration, higher bool, f func(*iteration) float64) metric {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	p := 25.0
	if higher {
		p = 75
	}
	return metric{Value: pct(xs, p), N: len(xs)}
}

// quietOps is, for a serial workload, every operation's quiet time in
// milliseconds: the lower quartile of the j-th operation over the passes. An
// operation is short, so some pass finds it undisturbed even when no whole
// pass is.
func quietOps(its []*iteration) ([]float64, error) {
	ops := make([]float64, len(its[0].opsMs))
	across := make([]float64, len(its))
	for j := range ops {
		for i, it := range its {
			if len(it.opsMs) != len(ops) {
				return nil, fmt.Errorf("pass %d ran %d operations, the first pass %d", i+1, len(it.opsMs), len(ops))
			}
			across[i] = it.opsMs[j] / it.host
		}
		ops[j] = pct(across, 25)
	}
	return ops, nil
}

// endToEnd reduces untraced passes to the end-to-end metrics. Every time is
// first divided by its pass's host factor (ref.go), which takes out the
// host's regimes of minutes; the quiet times (quietOf, quietOps) then take
// out its disturbances of milliseconds. On a serial workload the operations are
// timed one by one and the window is their sum; where clients run side by
// side the window and the percentiles are taken per pass and the quartile
// over the passes is reported. What does not depend on the host's mood
// (quality, allocation, live heap) is the median pass's.
func endToEnd(its []*iteration, out map[string]metric) error {
	// Set-up is a few milliseconds of allocation and system calls on every
	// workload, and follows the host's pace one for one whatever the window
	// does; its lower quartile over a dozen passes wandered more than its median.
	out["setup_s"] = medianOf(its, func(it *iteration) float64 {
		return it.setup.Seconds() / hostFactor(it.pace[0], it.pace[1], 1)
	})
	if its[0].serial {
		ops, err := quietOps(its)
		if err != nil {
			return err
		}
		wall := 0.0
		for _, ms := range ops {
			wall += ms / 1e3
		}
		out["wall_s"] = metric{Value: wall, N: len(its)}
		out["ops_per_s"] = metric{Value: float64(len(ops)) / wall, N: len(its)}
		out["op_p50_ms"] = metric{Value: pct(ops, 50), N: len(ops)}
		out["op_p90_ms"] = metric{Value: pct(ops, 90), N: len(ops)}
	} else {
		out["wall_s"] = quietOf(its, false, func(it *iteration) float64 { return it.wall.Seconds() / it.host })
		out["ops_per_s"] = quietOf(its, true, func(it *iteration) float64 {
			return float64(len(it.opsMs)) / it.opWindow.Seconds() * it.host
		})
		for name, p := range map[string]float64{"op_p50_ms": 50, "op_p90_ms": 90} {
			m := quietOf(its, false, func(it *iteration) float64 { return pct(it.opsMs, p) / it.host })
			m.N = len(its[0].opsMs)
			out[name] = m
		}
	}
	out["weighted_cct"] = medianOf(its, func(it *iteration) float64 { return it.wcct })
	out["alloc_mb"] = medianOf(its, func(it *iteration) float64 { return it.allocMB })
	out["heap_live_mb"] = medianOf(its, func(it *iteration) float64 { return it.heapMB })
	return nil
}

// pooled names the per-layer percentiles and the span whose durations
// (seconds, pooled over the traced iterations) each is taken from.
var pooled = map[string]struct {
	from     string
	p, scale float64
}{
	"online.admit_us_p50":  {"online.admit", 50, 1e6},
	"online.admit_us_p99":  {"online.admit", 99, 1e6},
	"policy.decide_ms_p50": {"policy.decide", 50, 1e3},
	"policy.decide_ms_p90": {"policy.decide", 90, 1e3},
	"online.tick_p99_ms":   {"tick", 99, 1e3},
	"client.admit_p99_ms":  {"client.admit", 99, 1e3},
	"client.admit_max_ms":  {"client.admit", 100, 1e3},
}

// perLayer reduces the traced iterations to the per-layer metrics: medians
// of the per-iteration numbers, percentiles of the pooled span durations.
func perLayer(plain, traced []*iteration, out map[string]metric) {
	names := map[string]bool{}
	dists := map[string][]float64{}
	for _, it := range traced {
		for k := range it.layer {
			names[k] = true
		}
		for k, v := range it.dist {
			dists[k] = append(dists[k], v...)
		}
	}
	for k := range names {
		out[k] = medianOf(traced, func(it *iteration) float64 { return it.layer[k] })
	}
	for name, src := range pooled {
		if xs := dists[src.from]; len(xs) > 0 {
			out[name] = metric{Value: pct(xs, src.p) * src.scale, N: len(xs)}
		}
	}
	all := append(append([]*iteration(nil), plain...), traced...)
	// Where the schedule is exact every pass has the same slowdowns; where it
	// is measured, every round admitted other coflows and the percentile is
	// taken over all of them.
	slowdowns := append([]float64(nil), all[0].slowdowns...)
	if !all[0].exact {
		for _, it := range all[1:] {
			slowdowns = append(slowdowns, it.slowdowns...)
		}
	}
	out["slowdown_p95"] = metric{Value: pct(slowdowns, 95), N: len(slowdowns)}
	out["host.pace_ms"] = medianOf(all, func(it *iteration) float64 { return math.Sqrt(it.pace[0] * it.pace[1]) })
	out["host.wall_raw_s"] = quietOf(plain, false, func(it *iteration) float64 { return it.wall.Seconds() })
	out["runtime.gc_cycles"] = medianOf(traced, func(it *iteration) float64 { return it.gcCycles })
	out["runtime.gc_pause_ms_total"] = medianOf(traced, func(it *iteration) float64 { return it.gcPauseMs })
	out["fail_ratio"] = medianOf(traced, func(it *iteration) float64 {
		return float64(it.failed) / math.Max(1, float64(it.attempted))
	})
	// Each traced pass ran next to an untraced one. The ratio inside such a
	// pair cancels the host's drift, which is larger than the overhead; the
	// median over the pairs is reported.
	over := make([]float64, len(traced))
	for i, it := range traced {
		over[i] = (it.wall.Seconds()/plain[i].wall.Seconds() - 1) * 100
	}
	out["trace_overhead_pct"] = metric{Value: stats.Median(over), N: len(over)}
}

// printResult prints every metric by name with its unit and sample count,
// then the driver's result line, which must be the last line of the run.
func printResult(r *result, spec *benchSpec) {
	mode := "end-to-end (untraced)"
	decls := spec.EndToEnd
	if r.Trace {
		mode, decls = "per-layer (traced)", spec.PerLayer
	}
	params, _ := json.Marshal(r.Params)
	fmt.Printf("\n== %s  seed=%d scale=%s  %s  iterations=%d\n   params: %s\n", r.Workload, r.Seed, r.Scale, mode, r.Iterations, params)
	for _, d := range decls {
		m := r.Metrics[d.Name]
		if r.Trace && m.N == 0 {
			continue // a layer this workload does not use
		}
		fmt.Printf("   %-30s %16.6g %-8s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Printf("   FAIL: %s\n", f)
	}
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]line, len(r.Metrics))
	for k, m := range r.Metrics {
		metrics[k] = line{m.Value, m.Unit}
	}
	last, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	fmt.Printf("%s\n", last)
}
