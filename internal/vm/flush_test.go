package vm_test

import (
	"errors"
	"testing"

	"branchprof/internal/mfc"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
	_ "branchprof/internal/workloads/compiled" // registers the compiled bodies
)

// bufferingTracer holds events back until Flush, the way a
// block-delivering tracer does, so it only sees a run's complete stream
// if the VM flushes it. It can also cancel the run after a set number
// of events.
type bufferingTracer struct {
	pending, branches, transfers int
	pendingBranches              int
	flushes                      int
	late                         int // events that arrived after a Flush

	cancelAfter int
	done        chan struct{}
}

func (b *bufferingTracer) Branch(int32, bool, uint64) {
	b.pendingBranches++
	b.event()
}

func (b *bufferingTracer) Transfer(vm.TransferKind, uint64) { b.event() }

func (b *bufferingTracer) event() {
	if b.flushes > 0 {
		b.late++
	}
	b.pending++
	if b.cancelAfter > 0 && b.pending == b.cancelAfter {
		close(b.done)
	}
}

func (b *bufferingTracer) Flush() {
	b.flushes++
	b.branches += b.pendingBranches
	b.transfers += b.pending - b.pendingBranches
	b.pending, b.pendingBranches = 0, 0
}

// TestTracerFlushOnEveryExit: a Flusher tracer is flushed exactly once,
// after the last event, however the run ends — normal exit, trap, fuel
// stop and cancellation — on both the compiled and the interpreted
// backend, and what it has seen by then matches the run's counters.
func TestTracerFlushOnEveryExit(t *testing.T) {
	w, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mfc.Compile(w.Name, w.Source, mfc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vm.CompiledFor(prog) == nil || !vm.CompiledEnabled() {
		t.Fatal("li has no compiled body bound; the codegen leg would test the interpreter twice")
	}
	im := vm.Load(prog)
	input := w.Datasets[0].Gen()

	type exit struct {
		name string
		cfg  func(tr *bufferingTracer) *vm.Config
		want func(error) bool
	}
	var rte *vm.RuntimeError
	exits := []exit{
		{"normal", func(tr *bufferingTracer) *vm.Config { return &vm.Config{Trace: tr} },
			func(err error) bool { return err == nil }},
		{"trap", func(tr *bufferingTracer) *vm.Config { return &vm.Config{Trace: tr, MaxDepth: 3} },
			func(err error) bool { return errors.As(err, &rte) }},
		{"fuel", func(tr *bufferingTracer) *vm.Config { return &vm.Config{Trace: tr, Fuel: 100_000} },
			func(err error) bool { return errors.Is(err, vm.ErrFuel) }},
		{"cancel", func(tr *bufferingTracer) *vm.Config {
			tr.cancelAfter, tr.done = 5000, make(chan struct{})
			return &vm.Config{Trace: tr, Done: tr.done}
		}, func(err error) bool { return errors.Is(err, vm.ErrCancelled) }},
	}
	backends := []struct {
		name string
		run  func([]byte, *vm.Config) (*vm.Result, error)
	}{{"codegen", im.Run}, {"interp", im.RunInterpreter}}

	for _, be := range backends {
		for _, ex := range exits {
			tr := &bufferingTracer{}
			res, err := be.run(input, ex.cfg(tr))
			label := be.name + "/" + ex.name
			if !ex.want(err) {
				t.Fatalf("%s: err = %v", label, err)
			}
			if tr.flushes != 1 || tr.late != 0 || tr.pending != 0 {
				t.Fatalf("%s: %d flushes, %d events after a flush, %d never flushed; want exactly one flush after the last event",
					label, tr.flushes, tr.late, tr.pending)
			}
			transfers := res.Jumps + res.DirectCalls + res.DirectReturns + res.IndirectCalls + res.IndirectReturns
			if uint64(tr.branches) != res.CondBranches() || uint64(tr.transfers) != transfers || tr.branches == 0 {
				t.Errorf("%s: flushed %d branches and %d transfers, the run counted %d and %d",
					label, tr.branches, tr.transfers, res.CondBranches(), transfers)
			}
		}
	}
}
