package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkDef is the part of BENCHMARK.json the tests read.
type benchmarkDef struct {
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestMetricListsMatchDefinition keeps the harness's metric tables and
// BENCHMARK.json in step.
func TestMetricListsMatchDefinition(t *testing.T) {
	def := loadDef(t)
	if len(def.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(def.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range def.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, harness has %s %s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(def.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(def.PerLayer), len(perLayerMetrics))
	}
	for i, m := range def.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, harness has %s %s", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// runBench runs the harness in-process and returns its exit code, its
// report and its parsed last line (nil when it printed none).
func runBench(t *testing.T, cfg config) (int, string, *result) {
	t.Helper()
	if cfg.buildDir == "" {
		cfg.buildDir = t.TempDir()
	}
	if cfg.paperSHA256 == "" {
		cfg.paperSHA256 = paperSHA256
	}
	var stdout, stderr bytes.Buffer
	code := runOne(cfg, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("stderr:\n%s", stderr.String())
		return code, out, nil
	}
	return code, out, &res
}

// assertMetrics checks that every named metric is in the result with
// its unit and printed in the report by name with that unit.
func assertMetrics(t *testing.T, out string, res *result, want []struct{ name, unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("result metric %s = %+v, want unit %s", m.name, got, m.unit)
		}
		line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.name) + `\s+\S+\s+` + regexp.QuoteMeta(m.unit) + `\s`)
		if !line.MatchString(out) {
			t.Errorf("report does not print %s with unit %s", m.name, m.unit)
		}
	}
}

// assertHealthy requires a correct run with no failed operation and a
// failed_frac of 0 in the report.
func assertHealthy(t *testing.T, code int, out string, res *result) {
	t.Helper()
	if code != 0 || res == nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("exit %d, result %+v; report:\n%s", code, res, out)
	}
	if !regexp.MustCompile(`(?m)^\s+failed_frac\s+0\s+frac\s`).MatchString(out) {
		t.Errorf("report lacks failed_frac 0:\n%s", out)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) {
			t.Errorf("metric %s is NaN", name)
		}
	}
}

func TestServeWorkloads(t *testing.T) {
	for _, w := range []string{"serve-ingest", "serve-cluster"} {
		t.Run(w, func(t *testing.T) {
			code, out, res := runBench(t, config{workload: w, seed: 7, window: secondsOf(1), setupReps: 1})
			assertHealthy(t, code, out, res)
			assertMetrics(t, out, res, endToEndMetrics)
		})
	}
}

func TestPaperWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("a paper pass takes seconds")
	}
	for _, w := range []string{"paper-cold", "paper-warm"} {
		t.Run(w, func(t *testing.T) {
			code, out, res := runBench(t, config{workload: w, window: secondsOf(0.001), setupReps: 1})
			assertHealthy(t, code, out, res)
			assertMetrics(t, out, res, endToEndMetrics)
			if res.Attempted != 1 {
				t.Errorf("attempted %d passes, want 1", res.Attempted)
			}
		})
	}
}

// TestTracedRun checks the per-layer set and the span files.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	code, out, res := runBench(t, config{workload: "serve-ingest", seed: 3, window: secondsOf(0.3), setupReps: 1, trace: true, buildDir: dir})
	assertHealthy(t, code, out, res)
	assertMetrics(t, out, res, perLayerMetrics)
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced result has %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerMetrics))
	}
	for _, suffix := range []string{".jsonl", ".chrome.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, "spans", "serve-ingest-seed3"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte("client.single")) || !bytes.Contains(raw, []byte("probe.vm.interp")) {
			t.Errorf("%s lacks harness spans", suffix)
		}
	}
}

func TestTamperedAckCountFails(t *testing.T) {
	code, out, res := runBench(t, config{workload: "serve-ingest", seed: 5, window: secondsOf(0.3), setupReps: 1, tamperAcks: true})
	if code == 0 || res == nil || res.Correct {
		t.Fatalf("tampered acknowledged count: exit %d, result %+v", code, res)
	}
	if !strings.Contains(out, "check exactly-once") || !strings.Contains(out, "FAILED") {
		t.Errorf("report does not show the failed check:\n%s", out)
	}
}

func TestWrongDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("a paper pass takes seconds")
	}
	code, _, res := runBench(t, config{workload: "paper-cold", window: secondsOf(0.001), setupReps: 1,
		paperSHA256: strings.Repeat("0", 64)})
	if code == 0 || (res != nil && res.Correct) {
		t.Fatalf("wrong pinned digest: exit %d, result %+v", code, res)
	}
}

func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-ingest", "--trace", "2"},
		{"--workload", "serve-ingest", "--seconds", "0"},
		{"--workload", "serve-ingest", "extra"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	cfg, err := parseFlags([]string{"--workload", "paper-warm", "--seed", "4", "--seconds", "2.5", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || cfg.workload != "paper-warm" || cfg.seed != 4 || cfg.window != secondsOf(2.5) || !cfg.trace {
		t.Errorf("parseFlags = %+v, %v", cfg, err)
	}
}
