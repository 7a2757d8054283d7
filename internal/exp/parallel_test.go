package exp

import (
	"testing"

	"branchprof/internal/engine"
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
