package vm

import (
	"fmt"
	"sync"
	"testing"

	"branchprof/internal/isa"
)

// Image.Run reuses pooled memory buffers across runs, restoring only
// the span of addresses the previous run stored to. These tests prove
// the reuse is invisible: every run on a shared Image must match the
// reference interpreter (which always builds fresh memory), including
// runs right after a trap, a fuel cut, or a cancellation left the
// pooled buffer dirty.

// memProbeProg reads imem[1] before storing to it, then loads from an
// input-controlled address. With an out-of-range input byte the run
// traps *after* the store — leaving the buffer dirty at the worst
// moment — and with an in-range byte it completes, returning the
// pre-store value of imem[1]. A missed restore shows up as a changed
// exit code on the next run.
func memProbeProg(t *testing.T) *isa.Program {
	t.Helper()
	p := &isa.Program{
		Funcs: []isa.Func{{Name: "main", Kind: isa.FuncInt, NumIRegs: 8, NumFRegs: 4,
			Code: []isa.Instr{
				{Op: isa.OpGetc, C: 0},
				{Op: isa.OpLd, C: 3, A: 1, Imm: 1}, // r3 = imem[1]
				{Op: isa.OpLdi, C: 2, Imm: 99},
				{Op: isa.OpSt, A: 1, B: 2, Imm: 1},  // imem[1] = 99
				{Op: isa.OpFLd, C: 1, A: 1, Imm: 2}, // f1 = fmem[2]
				{Op: isa.OpLdf, C: 2, FImm: 2.5},
				{Op: isa.OpFAdd, C: 3, A: 1, B: 2},
				{Op: isa.OpFSt, A: 1, B: 3, Imm: 2}, // fmem[2] = f1 + 2.5
				{Op: isa.OpCvtFI, C: 5, A: 3},       // exit code sees float staleness too
				{Op: isa.OpAdd, C: 3, A: 3, B: 5},
				{Op: isa.OpLd, C: 4, A: 0, Imm: 0}, // traps when input byte is OOB
				{Op: isa.OpRet, A: 3},
			}}},
		Main:    0,
		IntMem:  16,
		IntData: []int64{3, -1, 7},
		// fmem[2] starts beyond the data section: restore must re-zero
		// it, not just re-copy data.
		FloatMem:  4,
		FloatData: []float64{1.5},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMemReuseAfterTrap interleaves trapping, cancelled, and clean
// runs on one Image and demands each matches a fresh-memory reference
// run exactly.
func TestMemReuseAfterTrap(t *testing.T) {
	prog := memProbeProg(t)
	im := Load(prog)
	closed := make(chan struct{})
	close(closed)
	steps := []struct {
		name  string
		input []byte
		cfg   Config
	}{
		{"trap-after-store", []byte{200}, Config{}},
		{"clean", []byte{1}, Config{}},
		{"fuel-cut-after-store", []byte{1}, Config{Fuel: 9}},
		{"clean-again", []byte{1}, Config{}},
		{"cancelled", []byte{1}, Config{Done: closed}},
		{"clean-final", []byte{1}, Config{}},
	}
	for _, s := range steps {
		cfg := s.cfg
		ref, refErr := runRef(prog, s.input, &cfg)
		cfg = s.cfg
		fast, fastErr := im.Run(s.input, &cfg)
		diffCompare(t, s.name, ref, fast, refErr, fastErr)
	}
}

// TestMemReuseWorkload runs a real workload three times on one Image —
// full, fuel-cut mid-run, full again — against the reference each
// time. The final run executes on a buffer the fuel-cut run dirtied
// with its real store pattern, so any address the dirty-span tracking
// misses changes its counters.
func TestMemReuseWorkload(t *testing.T) {
	prog, input := compileWorkload(t, "li")
	im := Load(prog)
	full, err := im.Run(input, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, fuel := range []uint64{0, full.Instrs / 2, 0} {
		cfg := &Config{Fuel: fuel}
		ref, refErr := runRef(prog, input, &Config{Fuel: fuel})
		fast, fastErr := im.Run(input, cfg)
		diffCompare(t, fmt.Sprintf("run%d(fuel=%d)", i, fuel), ref, fast, refErr, fastErr)
	}
}

// TestMemReuseConcurrent hammers one Image from several goroutines,
// mixing trapping and clean runs; the pool must hand each run a
// private, fully-restored buffer. Run under -race this also proves
// the pool itself is data-race free.
func TestMemReuseConcurrent(t *testing.T) {
	prog := memProbeProg(t)
	im := Load(prog)
	refClean, refCleanErr := runRef(prog, []byte{1}, &Config{})
	if refCleanErr != nil {
		t.Fatal(refCleanErr)
	}
	_, refTrapErr := runRef(prog, []byte{200}, &Config{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if (g+i)%2 == 0 {
					res, err := im.Run([]byte{1}, &Config{})
					if err != nil || res.ExitCode != refClean.ExitCode {
						errc <- fmt.Errorf("clean run: exit=%d err=%v, want exit=%d",
							res.ExitCode, err, refClean.ExitCode)
						return
					}
				} else {
					_, err := im.Run([]byte{200}, &Config{})
					if err == nil || err.Error() != refTrapErr.Error() {
						errc <- fmt.Errorf("trap run: err=%v, want %v", err, refTrapErr)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
