package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the spread the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{10.5, 9.5, 10, 11, 9}, [3]float64{9.25, 10, 10.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := boundSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name           string
		b              boundSpec
		parent, change []float64
		call           string
		gain           bool
	}{
		{"flat", lower, steady, []float64{101, 100, 100, 99, 102, 100, 98, 101, 100, 99}, "within bound", false},
		{"slower within bound", lower, steady, scale(steady, 1.05), "within bound", false},
		{"slower past bound", lower, steady, scale(steady, 1.2), "worse", false},
		{"faster", lower, steady, scale(steady, 0.9), "within bound", true},
		{"throughput drop", higher, steady, scale(steady, 0.8), "worse", false},
		{"throughput gain", higher, steady, scale(steady, 1.1), "within bound", true},
		{"noisy", lower, []float64{80, 120, 100, 70, 130, 100, 90, 110, 60, 140}, steady, "unresolved", false},
		{"noisy but every run better", lower, []float64{200, 300, 250, 220, 280}, []float64{80, 120, 100, 90, 110}, "better", true},
		// 8 of 10 pairs won is short of the 9 in 10 a gain needs.
		{"gain needs 9 of 10 pairs", lower, steady, []float64{95, 96, 94, 95, 97, 93, 95, 96, 101, 102}, "within bound", false},
		// Every pair won, but by less than the parent's own spread.
		{"gain needs a shift past the parent IQR", lower, steady, scale(steady, 0.99), "within bound", false},
		// Ties count for neither side.
		{"ties", lower, steady, steady, "within bound", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.b, tc.parent, tc.change)
			if v.call != tc.call || v.gain != tc.gain {
				t.Errorf("judge = %s gain=%t (spread %.3f shift %.3f, %d/%d pairs), want %s gain=%t",
					v.call, v.gain, v.spread, v.shift, v.wins, v.pairs, tc.call, tc.gain)
			}
		})
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareDirectories(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(bounds, `{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`)
	run := func(v string) string {
		return `{"correct":true,"attempted":10,"failed":0,"metrics":{"op_p50_ms":{"value":` + v + `,"unit":"ms"}}}` + "\n"
	}
	write(filepath.Join(dir, "a", "w.jsonl"), run("10")+run("10.1")+run("9.9")+run("10"))
	write(filepath.Join(dir, "b", "w.jsonl"), run("10")+run("10.2")+run("9.9")+run("10.1"))
	write(filepath.Join(dir, "c", "w.jsonl"), run("13")+run("13.1")+run("12.9")+run("13"))

	var out bytes.Buffer
	code, err := compare(bounds, filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out)
	if err != nil || code != 0 || !strings.Contains(out.String(), "within bound") {
		t.Errorf("same-commit sets: code %d, err %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = compare(bounds, filepath.Join(dir, "a"), filepath.Join(dir, "c"), &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("regressed set: code %d, err %v\n%s", code, err, out.String())
	}
}
