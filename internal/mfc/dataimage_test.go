package mfc

import (
	"reflect"
	"runtime"
	"testing"

	"branchprof/internal/workloads"
)

// intImage returns an n-word int image, zero except for set.
func intImage(n int, set map[int]int64) []int64 {
	img := make([]int64, n)
	for a, v := range set {
		img[a] = v
	}
	return img
}

// TestDataImage pins the initial memory images the compiler builds:
// their exact lengths (an image extends to the end of the last
// initialized global or interned string, not to IntMem) and contents,
// including staying nil when nothing initializes memory. Both feed
// isa.ProgramDigest, so any drift here rebinds every generated body.
func TestDataImage(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		ints  []int64
		flts  []float64
		inMem int
	}{
		{
			name: "string initializer",
			src: `var pad int;
var s[5] int = "hi";
func main() int { return s[0]; }`,
			ints:  []int64{0, 'h', 'i', 0, 0, 0},
			inMem: 6,
		},
		{
			name: "empty string initializer",
			src: `var s[3] int = "";
func main() int { return s[0]; }`,
			ints:  []int64{0, 0, 0},
			inMem: 3,
		},
		{
			name: "short init lists",
			src: `var z[3] int;
var a[4] int = {7, -1};
var f[3] float = {2.5};
var g float = 0.5;
func main() int { return a[0]; }`,
			ints:  []int64{0, 0, 0, 7, -1, 0, 0},
			flts:  []float64{2.5, 0, 0, 0.5},
			inMem: 7,
		},
		{
			name: "string after large zero array",
			src: `var big[100000] int;
func main() int { var s int = "ab"; return s; }`,
			ints:  intImage(100003, map[int]int64{100000: 'a', 100001: 'b'}),
			inMem: 100003,
		},
		{
			name: "repeated literals",
			src: `var x int = 9;
func f() int { var s int = "ab"; return s; }
func main() int {
	var s int = "ab";
	var t int = "c";
	var u int = "ab";
	return s + t + u + f();
}`,
			ints:  []int64{9, 'a', 'b', 0, 'c', 0},
			inMem: 6,
		},
		{
			name: "zero arrays only",
			src: `var big[1000] int;
var fb[10] float;
func main() int { return big[3]; }`,
			inMem: 1000,
		},
		{
			name:  "no data",
			src:   `func main() int { return 0; }`,
			inMem: 1,
		},
	}
	for _, c := range cases {
		p, err := Compile("img", c.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(p.IntData, c.ints) {
			t.Errorf("%s: IntData len %d = %v, want len %d %v", c.name, len(p.IntData), head(p.IntData), len(c.ints), head(c.ints))
		}
		if !reflect.DeepEqual(p.FloatData, c.flts) {
			t.Errorf("%s: FloatData = %v, want %v", c.name, p.FloatData, c.flts)
		}
		if p.IntMem != c.inMem {
			t.Errorf("%s: IntMem = %d, want %d", c.name, p.IntMem, c.inMem)
		}
	}
}

func head(s []int64) []int64 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// TestCompileDataImageAllocs guards against the image being grown a
// word at a time again: li's int image is ~1.2M words, almost all
// zero, and a compile that extends it repeatedly allocates several
// times its final size.
func TestCompileDataImageAllocs(t *testing.T) {
	w, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Compile(w.Name, w.Source, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	image := uint64(len(p.IntData)) * 8
	if image < 1<<20 {
		t.Fatalf("li's int image is %d bytes; the guard needs a large image", image)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*image {
		t.Errorf("compiling li allocated %d bytes, want < %d (2x its %d-byte int image)", got, 2*image, image)
	}
}
