package exp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/faults"
	"branchprof/internal/workloads"
)

// studyRenders runs every parallelized study against the package
// engine and concatenates the rendered artifacts.
func studyRenders(t *testing.T, s *Suite) string {
	t.Helper()
	dyn, err := StaticVsDynamic(s)
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := InstrsPerMispredict(s)
	if err != nil {
		t.Fatal(err)
	}
	h2p, err := H2PStudy(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RunLengths(s)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := Coverage(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	return RenderStaticVsDynamic(dyn) +
		RenderInstrsPerMispredict(ipm) +
		RenderH2P(h2p) +
		RenderRunLengths(rl) +
		RenderCoverage(cov) +
		RenderTraceStudy(tr)
}

// TestStudiesMatchSequential pins the parallelized experiment stages:
// every study must render byte-identically whether its per-program
// fan runs on one worker or sixteen. Slot preassignment — not
// scheduling luck — is what the studies rely on for ordering, and
// this is the regression gate for it. Each width gets a fresh suite
// (collected warm through the shared suite's engine), so each performs
// its own shared traced replay instead of reading the other's memo.
func TestStudiesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite study sweep in -short mode")
	}
	suite(t) // warms the package engine's cache with the full matrix
	prev := Engine()
	defer SetEngine(prev)

	renders := func(workers int) string {
		s, err := CollectWith(prev)
		if err != nil {
			t.Fatal(err)
		}
		SetEngine(engine.New(engine.Options{Workers: workers}))
		return studyRenders(t, s)
	}
	if renders(1) != renders(16) {
		t.Fatal("parallel studies render differently from sequential")
	}
}

// variantStudies runs the three compile-variant studies under ctx
// through the package engine, in cmd/experiments' order, and returns
// their concatenated renders, stopping at the first error.
func variantStudies(ctx context.Context) (string, error) {
	t1, err := Table1Ctx(ctx)
	if err != nil {
		return "", err
	}
	inl, err := InlineAblationCtx(ctx)
	if err != nil {
		return "", err
	}
	sel, err := SelectStudyCtx(ctx)
	if err != nil {
		return "", err
	}
	return RenderTable1(t1) + RenderInlineAblation(inl) + RenderSelectStudy(sel), nil
}

// TestVariantStudiesMatchSequential pins the compile-variant fan-out:
// Table 1, the inlining ablation and the select study render
// byte-identically on one worker and on sixteen. Each width measures on
// its own fresh engine, so both sides compute every build.
func TestVariantStudiesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile-variant sweep in -short mode")
	}
	prev := Engine()
	defer SetEngine(prev)
	renders := func(workers int) string {
		SetEngine(engine.New(engine.Options{Workers: workers}))
		out, err := variantStudies(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if renders(1) != renders(16) {
		t.Fatal("parallel compile-variant studies render differently from sequential")
	}
}

// TestFaultVariantStudiesFirstErrorInOrder poisons the runs of two
// workloads ("compress/" also matches uncompress). At any pool width
// each study must fail with the error a serial pass hits first: the
// same text, naming the workload earlier in workloads.All() order.
func TestFaultVariantStudiesFirstErrorInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile-variant sweep in -short mode")
	}
	const label = "compress/"
	var poisoned []string
	for _, w := range workloads.All() {
		if strings.Contains(w.Name+"/", label) {
			poisoned = append(poisoned, w.Name)
		}
	}
	if len(poisoned) != 2 {
		t.Fatalf("label %q poisons %v, want two workloads", label, poisoned)
	}
	prev := Engine()
	defer SetEngine(prev)
	studies := []struct {
		name string
		run  func(context.Context) error
	}{
		{"table1", func(ctx context.Context) error { _, err := Table1Ctx(ctx); return err }},
		{"inline ablation", func(ctx context.Context) error { _, err := InlineAblationCtx(ctx); return err }},
		{"select study", func(ctx context.Context) error { _, err := SelectStudyCtx(ctx); return err }},
	}
	errsAt := func(workers int) []string {
		// A fixed cause keeps the text free of the injector's call
		// count, which depends on the schedule.
		fs := faults.NewSet(1, faults.Rule{
			Stage: faults.Run, Kind: faults.Error, Label: label, Err: errors.New("poisoned"),
		})
		SetEngine(engine.New(engine.Options{Workers: workers, Faults: fs}))
		var out []string
		for _, st := range studies {
			err := st.run(context.Background())
			if err == nil {
				t.Fatalf("%s at width %d: poisoned runs went unreported", st.name, workers)
			}
			want := "exp: " + st.name + " measuring " + poisoned[0] + ": "
			if !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("%s at width %d: error %q, want one naming %s first", st.name, workers, err, poisoned[0])
			}
			out = append(out, err.Error())
		}
		return out
	}
	serial, wide := errsAt(1), errsAt(16)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("%s: error at width 16 %q differs from width 1 %q", studies[i].name, wide[i], serial[i])
		}
	}
}

// TestCancelVariantStudies: a compile-variant study under an already
// cancelled context returns promptly with context.Canceled and leaves
// nothing in the engine's cache.
func TestCancelVariantStudies(t *testing.T) {
	prev := Engine()
	defer SetEngine(prev)
	eng := engine.New(engine.Options{Workers: 4})
	SetEngine(eng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(context.Context) error{
		"table1":  func(ctx context.Context) error { _, err := Table1Ctx(ctx); return err },
		"inline":  func(ctx context.Context) error { _, err := InlineAblationCtx(ctx); return err },
		"selects": func(ctx context.Context) error { _, err := SelectStudyCtx(ctx); return err },
	} {
		start := time.Now()
		err := run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under a cancelled context returned %v, want context.Canceled", name, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("%s took %v to notice the cancelled context", name, d)
		}
	}
	if st := eng.Stats(); st.Compiles != 0 || st.Runs != 0 {
		t.Fatalf("cancelled studies did work: %+v", st)
	}
	w := workloads.All()[0]
	out, err := eng.Execute(engine.Spec{
		Name: w.Name, Source: w.Source, Dataset: w.Datasets[0].Name, Input: w.Datasets[0].Gen(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("cancelled study left a cached outcome")
	}
}
