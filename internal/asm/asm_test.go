package asm

import (
	"slices"
	"strings"
	"testing"

	"branchprof/internal/isa"
	"branchprof/internal/vm"
)

func TestAssembleLoop(t *testing.T) {
	src := `
program looper
imem 8

func main () int
    ldi  r0, 0        ; i
    ldi  r1, 10       ; n
    ldi  r2, 1        ; one
    jmp  test
body:
    add  r0, r0, r2
test:
    slt  r3, r0, r1
    br   r3, body [back depth=1 label=while]
    ret  r0
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Source != "looper" {
		t.Errorf("source = %q", prog.Source)
	}
	if len(prog.Sites) != 1 || !prog.Sites[0].LoopBack || prog.Sites[0].LoopDepth != 1 {
		t.Errorf("sites = %+v", prog.Sites)
	}
	res, err := vm.Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 10 {
		t.Errorf("exit = %d, want 10", res.ExitCode)
	}
	if res.SiteTaken[0] != 10 || res.SiteTotal[0] != 11 {
		t.Errorf("branch counts = %d/%d", res.SiteTaken[0], res.SiteTotal[0])
	}
}

func TestAssembleCallsAndFloats(t *testing.T) {
	src := `
program callf

func scale (float, int) float
    cvtif f1, r0
    fmul  f2, f0, f1
    ret   f2

func main () int
    ldf   f0, 2.5
    ldi   r0, 4
    call  scale, r0, f0, f3
    cvtfi r1, f3
    ret   r1
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 10 {
		t.Errorf("exit = %d, want 10 (2.5*4)", res.ExitCode)
	}
	if res.DirectCalls != 1 {
		t.Errorf("calls = %d", res.DirectCalls)
	}
}

func TestAssembleMemoryAndData(t *testing.T) {
	src := `
program mem
imem 16
idata 4: 100 200 0x1f
fdata 0: 1.5 2.5

func main () int
    ldi  r0, 0
    ld   r1, 4(r0)
    ld   r2, 5(r0)
    add  r3, r1, r2
    fld  f0, 0(r0)
    fld  f1, 1(r0)
    fadd f2, f0, f1
    cvtfi r4, f2
    add  r3, r3, r4
    st   7(r0), r3
    ld   r5, 7(r0)
    ret  r5
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 304 {
		t.Errorf("exit = %d, want 304", res.ExitCode)
	}
}

func TestAssembleIO(t *testing.T) {
	src := `
program echoupper

func main () int
    ldi  r2, 0
    ldi  r3, 32
loop:
    getc r0
    slt  r1, r0, r2
    br   r1, done [label=eof]
    sub  r0, r0, r3
    putc r0
    jmp  loop
done:
    ret  r2
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(prog, []byte("abc"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "ABC" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no main", "func f () int\n ret r0\n", "no main"},
		{"bad op", "func main () int\n frobnicate r0\n ret r0\n", "unknown operation"},
		{"bad reg", "func main () int\n ldi x0, 3\n ret r0\n", "register"},
		{"undefined label", "func main () int\n jmp nowhere\n ret r0\n", "undefined label"},
		{"duplicate label", "func main () int\nl:\nl:\n ret r0\n", "duplicate label"},
		{"instr outside func", "ldi r0, 1\n", "outside function"},
		{"unknown callee", "func main () int\n call f, r0, f0, r1\n ret r0\n", "unknown function"},
		{"operand count", "func main () int\n add r0, r1\n ret r0\n", "operands"},
		{"bad attr", "func main () int\nl:\n ldi r0, 1\n br r0, l [bogus]\n ret r0\n", "attribute"},
		{"duplicate func", "func main () int\n ret r0\nfunc main () int\n ret r0\n", "duplicate function"},
		{"bad param type", "func main (string) int\n ret r0\n", "parameter type"},
		{"no trailing control", "func main () int\n ldi r0, 1\n", "control transfer"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestAssembleVoidAndIndirect(t *testing.T) {
	src := `
program ind

func out (int) void
    putc r0
    ret

func main () int
    ldi  r0, 65
    call out, r0, f0, -
    ldi  r1, 0        ; function index of out
    ldi  r2, 66
    mov  r3, r2
    icall r1, r3, r4
    ret  r0
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "AB" {
		t.Errorf("output = %q, want AB", res.Output)
	}
	if res.IndirectCalls != 1 {
		t.Errorf("indirect calls = %d", res.IndirectCalls)
	}
}

// TestFarDatum: a datum far past the image's end zero-extends it in
// one step to exactly the old word-at-a-time padding: same length,
// contents, memory sizes and digest (pinned from that padding loop).
func TestFarDatum(t *testing.T) {
	prog, err := Assemble(`
program far
imem 4
idata 3: 7 -1
idata 1000000: 42 5
fdata 2: 1.5
idata 2: 9
idata 4: 8
idata 7:
fdata 9:
func main () int
    ldi r0, 0
    ret r0
`)
	if err != nil {
		t.Fatal(err)
	}
	ints := make([]int64, 1000002)
	ints[2], ints[3], ints[4], ints[1000000], ints[1000001] = 9, 7, 8, 42, 5
	if !slices.Equal(prog.IntData, ints) {
		t.Errorf("IntData len %d, want %d with data at 2-4 and 1000000-1000001", len(prog.IntData), len(ints))
	}
	if !slices.Equal(prog.FloatData, []float64{0, 0, 1.5}) {
		t.Errorf("FloatData = %v", prog.FloatData)
	}
	if prog.IntMem != 1000002 || prog.FloatMem != 3 {
		t.Errorf("IntMem, FloatMem = %d, %d; want 1000002, 3", prog.IntMem, prog.FloatMem)
	}
	const want = "f2bd55925364afd01c58923312fad0fbf14ca8f8249f1f2d10140dcca324634b"
	if d := isa.ProgramDigest(prog); d != want {
		t.Errorf("digest %s, want %s", d, want)
	}
}
