// Package obs is the repository's zero-dependency observability
// layer: a metrics registry exported in Prometheus text format, a
// structured span tracer emitting JSONL (convertible to a Chrome
// trace_event file), a folded-stack VM execution profile fed by the
// interpreter's sampling hook, and the HTTP plumbing that serves
// /metrics and net/http/pprof.
//
// The layer follows the same discipline as internal/faults: every
// producer-side handle is nil-safe, so production code carries plain
// pointers (normally nil or always-allocated atomics) and a disabled
// sink costs one pointer comparison on hot paths. All time is read
// through an injectable Clock, so trace and metric output is
// deterministic under test and can be golden-tested.
//
// See docs/OBSERVABILITY.md for the span names, metric inventory and
// endpoint map.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is usable; a nil *Counter ignores all operations.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value. A nil counter reads 0.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. A nil *Gauge
// ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value. A nil gauge reads 0.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative upper
// bounds, Prometheus-style) and tracks their sum. A nil *Histogram
// ignores all operations.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64
	infCnt  atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	count   atomic.Uint64
}

// DefLatencyBuckets are the default stage-latency buckets, in seconds.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefRateBuckets are the default throughput buckets (e.g. millions of
// VM instructions per second).
var DefRateBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.infCnt.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations. A nil histogram reads 0.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations. A nil histogram reads 0.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name with all its labelled series.
type family struct {
	base   string
	help   string
	kind   metricKind
	series map[string]any // label string ("" allowed) → *Counter | *Gauge | func() float64 | *Histogram
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. A nil *Registry hands out nil metric handles, so
// instrumented code never needs its own nil checks. Registration is
// idempotent: asking twice for the same name (labels included)
// returns the same handle, and the same base name must keep one
// metric type.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// splitName separates `base{label="v",...}` into base and the raw
// label list (without braces). Names without labels return ("", ok).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// fam returns (creating if needed) the family for name, enforcing one
// kind per base name.
func (r *Registry) fam(name, help string, kind metricKind) (*family, string) {
	base, labels := splitName(name)
	f, ok := r.fams[base]
	if !ok {
		f = &family{base: base, help: help, kind: kind, series: make(map[string]any)}
		r.fams[base] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", base, f.kind, kind))
	}
	return f, labels
}

// Counter returns the named counter, creating it on first use. The
// name may carry a Prometheus label list: `x_total{stage="run"}`.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, labels := r.fam(name, help, counterKind)
	if m, ok := f.series[labels]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[labels] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, labels := r.fam(name, help, gaugeKind)
	if m, ok := f.series[labels]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[labels] = g
	return g
}

// GaugeFunc registers a gauge whose value is computed at export time
// (e.g. a hit ratio derived from two counters). Re-registering the
// same name replaces the function. A nil registry is a no-op.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, labels := r.fam(name, help, gaugeKind)
	f.series[labels] = fn
}

// Histogram returns the named histogram with the given bucket upper
// bounds (sorted ascending; +Inf is implicit), creating it on first
// use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, labels := r.fam(name, help, histogramKind)
	if m, ok := f.series[labels]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)),
	}
	f.series[labels] = h
	return h
}

// fnum renders a float the way the Prometheus text format expects.
func fnum(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders base plus a merged label list.
func seriesName(base, labels, extra string) string {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return base
	}
	return base + "{" + all + "}"
}

// WritePrometheus renders every registered metric in text exposition
// format. Families and series are emitted in sorted order, so the
// output is deterministic for deterministic metric values. A nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Series are added under r.mu while requests are served, so each
	// family's series map is copied out under the lock too.
	type famSeries struct {
		*family
		labels  []string
		metrics []any
	}
	r.mu.Lock()
	fams := make([]famSeries, 0, len(r.fams))
	for _, f := range r.fams {
		fs := famSeries{family: f, labels: make([]string, 0, len(f.series))}
		for l := range f.series {
			fs.labels = append(fs.labels, l)
		}
		sort.Strings(fs.labels)
		for _, l := range fs.labels {
			fs.metrics = append(fs.metrics, f.series[l])
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].base < fams[j].base })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.base, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.base, f.kind)
		for i, l := range f.labels {
			switch m := f.metrics[i].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.base, l, ""), m.Load())
			case *Gauge:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.base, l, ""), fnum(m.Load()))
			case func() float64:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.base, l, ""), fnum(m()))
			case *Histogram:
				var cum uint64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(&b, "%s %d\n",
						seriesName(f.base+"_bucket", l, `le="`+fnum(bound)+`"`), cum)
				}
				cum += m.infCnt.Load()
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.base+"_bucket", l, `le="+Inf"`), cum)
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.base+"_sum", l, ""), fnum(m.Sum()))
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.base+"_count", l, ""), m.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP makes the registry a /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}
