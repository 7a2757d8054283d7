package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"branchprof/internal/engine"
	"branchprof/internal/mfc"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

// replayMF classifies its input bytes with a few data-dependent
// branches, so a dataset's byte pattern decides how predictable each
// site is.
const replayMF = `
func main() int {
	var c int = getc();
	var n int = 0;
	while (c != -1) {
		if (c % 3 == 0) {
			n = n + 1;
		}
		if (c > 100) {
			n = n + 2;
		} else {
			n = n - 1;
		}
		if (c % 2 == 0) {
			n = n + 3;
		}
		if (c < 32 || c > 224) {
			n = n - 2;
		}
		c = getc();
	}
	return n;
}
`

// replayBytes returns a dataset generator of n bytes from a linear
// congruential sequence.
func replayBytes(n int, seed uint32) func() []byte {
	return func() []byte {
		out := make([]byte, n)
		x := seed
		for i := range out {
			x = x*1664525 + 1013904223
			out[i] = byte(x >> 24)
		}
		return out
	}
}

// replayWorkloads is a small synthetic matrix for the shared-replay
// tests: one multi-dataset program (so "others" is a real combined
// predictor) and one single-dataset program, cheap enough for -short.
func replayWorkloads() []*workloads.Workload {
	return []*workloads.Workload{
		{
			Name: "bytes", Lang: workloads.C, Desc: "classify pseudo-random bytes",
			Source: replayMF,
			Datasets: []workloads.Dataset{
				{Name: "a", Desc: "seed 1", Gen: replayBytes(3000, 1)},
				{Name: "b", Desc: "seed 2", Gen: replayBytes(2000, 2)},
				{Name: "c", Desc: "seed 3", Gen: replayBytes(1000, 3)},
			},
		},
		{
			Name: "ramp", Lang: workloads.Fortran, Desc: "classify a byte ramp",
			Source: replayMF,
			Datasets: []workloads.Dataset{
				{Name: "up", Desc: "0..255 repeated", Gen: func() []byte {
					out := make([]byte, 2048)
					for i := range out {
						out[i] = byte(i)
					}
					return out
				}},
			},
		},
	}
}

// replaySuite installs a fresh engine as the package engine (restored
// at cleanup) and collects the synthetic matrix through it.
func replaySuite(t *testing.T) (*engine.Engine, func() *Suite) {
	t.Helper()
	eng := engine.New(engine.Options{})
	prev := Engine()
	SetEngine(eng)
	t.Cleanup(func() { SetEngine(prev) })
	return eng, func() *Suite {
		t.Helper()
		s, err := CollectCtx(context.Background(), eng, CollectOptions{Workloads: replayWorkloads()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// replayStudies renders each replay study; H2P ranks the top 3.
var replayStudies = []func(*Suite) (string, error){
	func(s *Suite) (string, error) { r, err := StaticVsDynamic(s); return RenderStaticVsDynamic(r), err },
	func(s *Suite) (string, error) {
		r, err := InstrsPerMispredict(s)
		return RenderInstrsPerMispredict(r), err
	},
	func(s *Suite) (string, error) { r, err := H2PStudy(s, 3); return RenderH2P(r), err },
	func(s *Suite) (string, error) { r, err := RunLengths(s); return RenderRunLengths(r), err },
}

// TestReplayStudiesShareOneReplay pins the shared traced replay: the
// four replay studies, called concurrently on one fresh suite, run
// exactly one traced replay per program between them, and render the
// same bytes as a serial pass in the opposite order on another suite
// and engine (the first engine would serve that suite's replays from
// its derived entries).
func TestReplayStudiesShareOneReplay(t *testing.T) {
	eng, collect := replaySuite(t)
	s := collect()

	before := eng.Stats().Runs
	outs := make([]string, len(replayStudies))
	errs := make([]error, len(replayStudies))
	var wg sync.WaitGroup
	for i, study := range replayStudies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = study(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := eng.Stats().Runs-before, uint64(len(s.Programs)); got != want {
		t.Fatalf("concurrent studies ran %d engine runs, want one replay per program (%d)", got, want)
	}

	eng, collect = replaySuite(t)
	s2 := collect()
	before = eng.Stats().Runs
	for i := len(replayStudies) - 1; i >= 0; i-- {
		out, err := replayStudies[i](s2)
		if err != nil {
			t.Fatal(err)
		}
		if out != outs[i] {
			t.Errorf("study %d renders differently serially:\n%s\nvs concurrently:\n%s", i, out, outs[i])
		}
	}
	top3, err := H2PStudy(s2, 3)
	if err != nil {
		t.Fatal(err)
	}
	top5, err := H2PStudy(s2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Stats().Runs-before, uint64(len(s2.Programs)); got != want {
		t.Fatalf("serial studies ran %d engine runs, want %d", got, want)
	}
	// The ranking is made per call: a wider n extends the same order.
	for i := range top5 {
		if len(top5[i].Top) <= len(top3[i].Top) {
			t.Errorf("%s: top-5 ranked %d sites, top-3 %d", top5[i].Program, len(top5[i].Top), len(top3[i].Top))
		}
		if !reflect.DeepEqual(top5[i].Top[:len(top3[i].Top)], top3[i].Top) {
			t.Errorf("%s: top-5 ranking does not extend top-3", top5[i].Program)
		}
	}
}

// TestSharedReplayRunLengthsMatchStandalone shows that attaching the
// run-length recorder beside the predictor zoo does not perturb it:
// every program's row from the shared replay equals a replay with the
// recorder attached alone.
func TestSharedReplayRunLengthsMatchStandalone(t *testing.T) {
	eng, collect := replaySuite(t)
	s := collect()
	rows, err := RunLengths(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Programs {
		r := p.Runs[0]
		self, err := selfPrediction(p, r)
		if err != nil {
			t.Fatal(err)
		}
		rec := runlength.New(self)
		res, err := eng.Run(p.Prog, "", p.InputFor(r), &vm.Config{Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		rec.Finish(res.Instrs)
		want := RunLengthRow{Program: p.Workload.Name, Dataset: r.Dataset, Stats: rec.Summarize(), Hist: rec.Histogram(16)}
		if want.Stats.Count < 2 {
			t.Fatalf("%s: standalone replay recorded %d runs; the fixture needs breaks", p.Workload.Name, want.Stats.Count)
		}
		if rows[i] != want {
			t.Errorf("%s: shared replay row\n%+v\nstandalone\n%+v", p.Workload.Name, rows[i], want)
		}
	}
}

// TestTraceReplayErrors pins the primitive's error contract, which
// branchprofd's classification reads: a run error comes back exactly
// as the engine reported it, and an out-of-range tracer fails the
// replay with ErrTracerContract.
func TestTraceReplayErrors(t *testing.T) {
	eng := engine.New(engine.Options{})
	prog, err := eng.Compile("bytes", replayMF, mfc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := replayBytes(500, 1)()
	statics := []StaticTable{{"none", make([]bool, len(prog.Sites))}}

	rp, err := TraceReplay(context.Background(), eng, prog, input, 0, statics)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"none"}, zooSchemes()...)
	if len(rp.preds) != len(want) {
		t.Fatalf("%d schemes, want %d", len(rp.preds), len(want))
	}
	for i, p := range rp.preds {
		if p.name != want[i] {
			t.Fatalf("scheme %d is %q, want %q", i, p.name, want[i])
		}
	}
	if rp.Instrs() == 0 || len(rp.sites) != len(prog.Sites) {
		t.Fatalf("replay measured %d instrs over %d sites", rp.Instrs(), len(rp.sites))
	}

	_, err = TraceReplay(context.Background(), eng, prog, input, 100, statics)
	if !errors.Is(err, vm.ErrFuel) || errors.Is(err, ErrTracerContract) {
		t.Fatalf("fuel-exhausted replay: %v, want the engine's fuel error", err)
	}
	_, direct := eng.Run(prog, "", input, &vm.Config{Fuel: 100, Trace: runlength.NewSites(len(prog.Sites))})
	if direct == nil || err.Error() != direct.Error() {
		t.Fatalf("replay error %q, engine reports %q", err, direct)
	}

	_, err = TraceReplay(context.Background(), eng, prog, input, 0, statics, oobProbe{})
	if !errors.Is(err, ErrTracerContract) || !strings.HasPrefix(err.Error(), "tracer contract violation: dynpred: ") {
		t.Fatalf("out-of-range tracer: %v, want ErrTracerContract", err)
	}
}
