package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPromGolden locks the Prometheus text rendering byte-for-byte:
// sorted families, sorted series, histogram bucket/sum/count lines.
func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("bp_runs_total", "Total VM runs.").Add(3)
	r.Counter(`bp_stage_total{stage="compile"}`, "Stage executions.").Add(2)
	r.Counter(`bp_stage_total{stage="run"}`, "Stage executions.").Add(5)
	r.Gauge("bp_ratio", "A ratio.").Set(0.25)
	r.GaugeFunc("bp_derived", "Computed at export.", func() float64 { return 2.5 })
	h := r.Histogram("bp_lat_seconds", "Stage latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP bp_derived Computed at export.
# TYPE bp_derived gauge
bp_derived 2.5
# HELP bp_lat_seconds Stage latency.
# TYPE bp_lat_seconds histogram
bp_lat_seconds_bucket{le="0.1"} 1
bp_lat_seconds_bucket{le="1"} 2
bp_lat_seconds_bucket{le="+Inf"} 3
bp_lat_seconds_sum 5.55
bp_lat_seconds_count 3
# HELP bp_ratio A ratio.
# TYPE bp_ratio gauge
bp_ratio 0.25
# HELP bp_runs_total Total VM runs.
# TYPE bp_runs_total counter
bp_runs_total 3
# HELP bp_stage_total Stage executions.
# TYPE bp_stage_total counter
bp_stage_total{stage="compile"} 2
bp_stage_total{stage="run"} 5
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotent: same name → same handle; counters survive
// re-registration.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "ignored on re-register")
	if a != b {
		t.Fatal("re-registration returned a different handle")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Fatalf("Load = %d, want 1", b.Load())
	}
	l1 := r.Counter(`y_total{k="a"}`, "")
	l2 := r.Counter(`y_total{k="b"}`, "")
	if l1 == l2 {
		t.Fatal("distinct label sets shared a handle")
	}
}

// TestRegistryKindConflict: one base name keeps one metric type.
func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("z_total", "")
}

// TestNilRegistry: nil registry and nil instruments are silent no-ops.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter loaded nonzero")
	}
	g := r.Gauge("b", "")
	g.Set(3)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded nonzero")
	}
	r.GaugeFunc("c", "", func() float64 { return 1 })
	h := r.Histogram("d", "", DefLatencyBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramEdges: NaN/Inf observations land in +Inf bucket space
// without corrupting count/sum bookkeeping.
func TestHistogramEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", "", []float64{1})
	h.Observe(math.Inf(1))
	h.Observe(0.5)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Fatalf("Sum = %v, want +Inf", h.Sum())
	}
}

// TestRegistryConcurrent hammers one counter/histogram from many
// goroutines; run under -race by make obs.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("cc_total", "")
			h := r.Histogram("ch", "", []float64{1, 10})
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 20))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("cc_total", "").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("ch", "", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestRegistryHTTP: the registry serves itself as /metrics.
func TestRegistryHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Add(7)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits_total 7") {
		t.Fatalf("body missing metric:\n%s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// TestPromConcurrentRegistration: a scrape racing with the first use
// of new labelled series (a server registers per-route counters as
// requests arrive) must not read a family's series map unlocked.
// Run under -race.
func TestPromConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter(`bp_req_total{route="a"}`, "Requests.").Inc()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Counter(`bp_req_total{route="r`+strings.Repeat("x", i)+`"}`, "Requests.").Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	var b strings.Builder
	r.WritePrometheus(&b)
	if n := strings.Count(b.String(), "bp_req_total{"); n != 201 {
		t.Errorf("%d bp_req_total series rendered, want 201", n)
	}
}
