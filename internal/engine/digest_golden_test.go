package engine

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"branchprof/internal/isa"
	"branchprof/internal/mfc"
	"branchprof/internal/workloads"
)

// goldenBuilds are the compile configurations a paper pass builds
// every workload under: the plain build and the three compile-variant
// studies (Table 1, the inlining ablation, the select study).
var goldenBuilds = []mfc.Options{
	{},
	{DeadBranchElim: true},
	{InlineCalls: true},
	{UseSelects: true},
}

const digestGoldenFile = "testdata/program_digests.txt"

// TestProgramDigestGolden is the stale-measurement guard for compiler
// output. Measurement and replay keys hash the source and options, not
// the program the compiler makes of them, so a change to mfc's output
// must bump keyVersion (and replayVersion in internal/exp) or existing
// caches would serve counts the new compiler would not produce; the
// generated workload bodies must be regenerated too (make gencheck).
// This test notices such a change: the digests of all 60 paper builds
// are pinned.
func TestProgramDigestGolden(t *testing.T) {
	raw, err := os.ReadFile(digestGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, w := range workloads.All() {
		for _, o := range goldenBuilds {
			p, err := mfc.Compile(w.Name, w.Source, o)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, optionsFingerprint(o), err)
			}
			got = append(got, fmt.Sprintf("%s %s %s", w.Name, optionsFingerprint(o), isa.ProgramDigest(p)))
		}
	}
	if len(got) != 60 {
		t.Fatalf("%d golden builds, want 60 (15 workloads x 4 option sets)", len(got))
	}
	var diff []string
	for i, g := range got {
		if i >= len(want) || want[i] != g {
			diff = append(diff, "  got "+g)
		}
	}
	if len(want) != len(got) {
		diff = append(diff, fmt.Sprintf("  %d pinned lines, %d builds", len(want), len(got)))
	}
	if len(diff) > 0 {
		t.Fatalf("compiler output changed for %d build(s):\n%s\n"+
			"Bump keyVersion in engine.go and replayVersion in internal/exp/replaycache.go "+
			"(cached measurements and replays from the old compiler must stop matching), "+
			"regenerate the compiled workload bodies (go generate ./internal/workloads/compiled, then make gencheck), "+
			"and replace %s with:\n%s\n",
			len(diff), strings.Join(diff, "\n"), digestGoldenFile, strings.Join(got, "\n"))
	}
}
