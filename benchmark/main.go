// Command benchmark is the repository's benchmark of record. It runs
// the paper's feedback loop — profile previous runs, predict the next
// one — the two ways the repository runs it, end to end and in one
// process, and breaks each run down by layer:
//
//	paper-cold     cmd/experiments' full artifact set on a fresh engine
//	               with an empty cache directory (the first run)
//	paper-warm     the same over a cache directory filled during setup
//	               (the repeat run)
//	serve-ingest   one branchprofd node, 4-shard store, no journal, no
//	               replication; unique synthetic ingest plus predict
//	serve-cluster  three journaling (fsync=batch) branchprofd nodes in
//	               a full mesh gossiping every 500ms; the paper programs
//	               under user names, cache-hit ingest, predict and
//	               traced /v1/h2p
//
// Run it from the repository root through the wrapper, which builds
// the harness offline and keeps every build and run artifact under
// .bench_build/:
//
//	bash benchmark/run.sh --workload serve-ingest --seed 1 --seconds 10 --trace 0
//
// Every run sets up its workload three times (setup_s is the median),
// measures for -seconds, checks the system's outputs and
// prints a human-readable report followed, as its last line, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures an untraced and then a traced window, runs the layer probes,
// reports the per-layer metrics, and writes the spans it recorded as
// JSONL and Chrome trace files under .bench_build/spans/. A failed
// check makes the run exit non-zero. See benchmark/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"branchprof/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload    string
	seed        int64
	window      time.Duration
	trace       bool
	setupReps   int
	paperSHA256 string
	buildDir    string // span files go under buildDir/spans

	// tamperAcks corrupts one expected ingest count before the
	// exactly-once check, so tests can prove the check fails the run.
	tamperAcks bool
}

// defaultSetupReps is how many times a run sets its workload up; setup_s is
// the median.
const defaultSetupReps = 3

// workloadFunc runs one workload: setup, measured window(s), checks.
type workloadFunc func(ctx context.Context, h *harness) error

var registry = []struct {
	name string
	run  workloadFunc
}{
	{"paper-cold", func(ctx context.Context, h *harness) error { return runPaper(ctx, h, false) }},
	{"paper-warm", func(ctx context.Context, h *harness) error { return runPaper(ctx, h, true) }},
	{"serve-ingest", runIngest},
	{"serve-cluster", runCluster},
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		c       config
		seconds float64
		trace   int
	)
	fs.StringVar(&c.workload, "workload", "", "paper-cold, paper-warm, serve-ingest, serve-cluster, or all")
	fs.Int64Var(&c.seed, "seed", 1, "seed of every generated input (the paper workloads have none)")
	fs.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, layer probes, span files")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch {
	case !(seconds > 0):
		return c, errors.New("-seconds must be positive")
	case trace != 0 && trace != 1:
		return c, errors.New("-trace must be 0 or 1")
	}
	c.window = secondsOf(seconds)
	c.trace = trace == 1
	c.setupReps = defaultSetupReps
	c.paperSHA256 = paperSHA256
	c.buildDir = ".bench_build"
	if c.workload != "all" && lookup(c.workload) == nil {
		return c, fmt.Errorf("unknown -workload %q (want paper-cold, paper-warm, serve-ingest, serve-cluster or all)", c.workload)
	}
	return c, nil
}

func lookup(name string) workloadFunc {
	for _, w := range registry {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// run executes the invocation and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && (args[0] == "-compare" || args[0] == "--compare") {
		return runCompare(args[1:], stdout, stderr)
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range registry {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		if rc := runOne(c, stdout, stderr); rc != 0 {
			code = rc
		}
	}
	return code
}

// runOne runs one workload and prints its report and result line.
func runOne(cfg config, stdout, stderr io.Writer) int {
	h := newHarness(cfg, stdout)
	h.header()
	err := lookup(cfg.workload)(context.Background(), h)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		if err := runProbes(h); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: probes: %v\n", cfg.workload, err)
			return 1
		}
		h.idleLayers()
		if err := h.writeSpans(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
			return 1
		}
	}
	res := h.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: encoding result: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: checks failed\n", cfg.workload)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object every run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness carries one workload run's settings, report and tallies.
type harness struct {
	cfg    config
	out    io.Writer
	e2e    map[string]metric
	layers map[string]metric

	attempted, failed int64
	checksFailed      int

	// tr records spans of the traced window into spans; nil otherwise.
	tr    *obs.Tracer
	spans *bytes.Buffer
}

func newHarness(cfg config, out io.Writer) *harness {
	h := &harness{cfg: cfg, out: out, e2e: map[string]metric{}, layers: map[string]metric{}}
	if cfg.trace {
		h.spans = &bytes.Buffer{}
		h.tr = obs.NewTracer(h.spans, nil)
	}
	return h
}

// header makes the report self-describing.
func (h *harness) header() {
	c := h.cfg
	fmt.Fprintf(h.out, "# benchmark workload=%s seed=%d seconds=%g trace=%t setup_reps=%d\n",
		c.workload, c.seed, c.window.Seconds(), c.trace, c.setupReps)
	fmt.Fprintf(h.out, "# GOMAXPROCS=%d nproc=%d go=%s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// section starts a titled block of the report.
func (h *harness) section(title string) { fmt.Fprintf(h.out, "## %s\n", title) }

// info prints a report-only metric line.
func (h *harness) info(name string, v float64, unit, note string) {
	fmt.Fprintf(h.out, "  %-40s %16.6g %-9s %s\n", name, v, unit, note)
}

// e2eMetric prints and records an end-to-end metric (untraced runs).
func (h *harness) e2eMetric(name string, v float64, unit, note string) {
	h.info(name, v, unit, note)
	h.e2e[name] = metric{Value: v, Unit: unit}
}

// layerMetric prints and records a per-layer metric (traced runs).
func (h *harness) layerMetric(name string, v float64, unit, note string) {
	h.info(name, v, unit, note)
	h.layers[name] = metric{Value: v, Unit: unit}
}

// check records one correctness check's outcome.
func (h *harness) check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAILED"
		h.checksFailed++
	}
	fmt.Fprintf(h.out, "  check %-34s %s %s\n", name, status, detail)
}

// ops tallies operations attempted and failed.
func (h *harness) ops(attempted, failed int64) {
	h.attempted += attempted
	h.failed += failed
}

// result assembles the last-line JSON object: end-to-end metrics for
// an untraced run, per-layer metrics for a traced one.
func (h *harness) result() result {
	metrics := h.e2e
	if h.cfg.trace {
		metrics = h.layers
	}
	correct := h.checksFailed == 0 && h.failed == 0 && h.attempted > 0
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no spelling for these; a non-finite metric means
			// the run measured nothing usable.
			metrics[name] = metric{Value: 0, Unit: m.Unit}
			correct = false
		}
	}
	return result{Correct: correct, Attempted: h.attempted, Failed: h.failed, Metrics: metrics}
}

// endToEnd reports the four end-to-end metrics every workload has.
// An operation is one full pipeline pass (paper workloads) or one
// request (serve workloads); failed operations count as infinitely
// slow in the latency percentiles.
//
// The window is cut into slices: one pass each, or a fixed number of
// whole request cycles each. op_p50_ms is the median latency of the
// fastest slice and ops_per_s the throughput of the busiest one. The
// machine the benchmark runs on is shared, and its speed drifts by a
// fifth over tens of seconds as neighbours come and go; interference
// only ever adds time, so the best slice tracks the program's own cost
// where the window's median tracks the neighbours. The report prints
// the whole window's median and throughput beside them.
func (h *harness) endToEnd(setup []time.Duration, w *window) {
	setupS := secs(setup)
	q1, q2, q3 := quartiles(setupS)
	h.e2eMetric("setup_s", q2, "s", fmt.Sprintf("median of n=%d setups (q1 %.4g, q3 %.4g)", len(setupS), q1, q3))

	best50, bestRate := math.Inf(1), 0.0
	for _, s := range w.slices {
		best50 = min(best50, median(s.lat))
		bestRate = max(bestRate, ratio(float64(s.completed), s.dur.Seconds()))
	}
	n := len(w.lat)
	sliced := fmt.Sprintf("best of %d slices of %s", len(w.slices), w.sliceUnit)
	h.e2eMetric("op_p50_ms", best50, "ms", "median latency, "+sliced)
	h.e2eMetric("ops_per_s", bestRate, "1/s", "throughput, "+sliced)
	h.e2eMetric("heap_retained_mb", w.heapMB, "MB", "HeapAlloc after a forced GC at the end of the window")

	lat := ms(w.lat)
	for _, i := range w.failedIdx {
		lat[i] = math.Inf(1)
	}
	l1, l2, l3 := quartiles(lat)
	h.info("window_p50_ms", l2, "ms", fmt.Sprintf("median of all n=%d %s (q1 %.4g, q3 %.4g)", n, w.unit, l1, l3))
	for _, p := range []float64{0.90, 0.99} {
		if v, ok := percentile(lat, p); ok {
			h.info(fmt.Sprintf("window_p%.0f_ms", 100*p), v, "ms", fmt.Sprintf("n=%d", n))
		}
	}
	completed := n - len(w.failedIdx)
	h.info("window_ops_per_s", ratio(float64(completed), w.elapsed.Seconds()), "1/s",
		fmt.Sprintf("%d %s completed in %.3fs", completed, w.unit, w.elapsed.Seconds()))
	h.info("failed_frac", ratio(float64(len(w.failedIdx)), float64(n)), "frac",
		fmt.Sprintf("%d failed of %d attempted", len(w.failedIdx), n))
}

// window is one measured window's operation record.
type window struct {
	unit      string          // what one operation is, for the report
	lat       []time.Duration // one per attempted operation
	failedIdx []int           // indexes into lat of failed operations
	slices    []slice
	sliceUnit string // what one slice is, for the report
	elapsed   time.Duration
	heapMB    float64
	allocMB   float64 // bytes allocated during the window, in MB
}

// slice is a run of consecutive operations of the same composition.
type slice struct {
	lat       []float64 // ms; failed operations are +Inf
	completed int
	dur       time.Duration
}

// heapRetainedMB forces a collection and returns the live heap in MB.
func heapRetainedMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// totalAllocMB is the cumulative bytes allocated so far, in MB.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// traceOverhead reports how much slower the traced window ran.
func (h *harness) traceOverhead(untraced, traced *window) {
	u := ratio(float64(len(untraced.lat)), untraced.elapsed.Seconds())
	t := ratio(float64(len(traced.lat)), traced.elapsed.Seconds())
	h.layerMetric("obs.trace_overhead_frac", ratio(u, t)-1, "frac",
		fmt.Sprintf("untraced %.4g vs traced %.4g ops/s", u, t))
	h.layerMetric("runtime.alloc_mb_per_op", ratio(traced.allocMB, float64(len(traced.lat))), "MB",
		fmt.Sprintf("%.1f MB allocated over %d %s", traced.allocMB, len(traced.lat), traced.unit))
}

// writeSpans writes the recorded spans as JSONL and as a Chrome trace.
func (h *harness) writeSpans() error {
	if err := h.tr.Err(); err != nil {
		return err
	}
	dir := filepath.Join(h.cfg.buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span directory: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", h.cfg.workload, h.cfg.seed))
	if err := os.WriteFile(base+".jsonl", h.spans.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, bytes.NewReader(h.spans.Bytes())); err != nil {
		return fmt.Errorf("converting spans: %w", err)
	}
	if err := os.WriteFile(base+".chrome.json", chrome.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing Chrome trace: %w", err)
	}
	fmt.Fprintf(h.out, "# spans: %s.jsonl, %s.chrome.json (%d spans)\n",
		base, base, strings.Count(h.spans.String(), "\n"))
	return nil
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
