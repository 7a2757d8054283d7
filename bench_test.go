package branchprof

// Benchmark harness: one benchmark per table and figure in the paper.
// Each benchmark regenerates its artifact from the shared measured
// matrix (built once per process) and reports the headline quantity
// as a custom metric, so `go test -bench=.` both exercises the full
// pipeline and prints the paper's numbers.

import (
	"testing"

	"branchprof/internal/dynpred"
	"branchprof/internal/engine"
	"branchprof/internal/exp"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

func sharedSuite(b *testing.B) *exp.Suite {
	b.Helper()
	s, err := exp.Shared()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// unreplayedSuite re-collects the matrix through the package engine
// with the timer stopped. Once sharedSuite has warmed that engine every
// cell is a memory-cache hit, and the fresh suite's shared traced
// replay has not run yet, so the next replay study times exactly one
// replay instead of a memo read.
func unreplayedSuite(b *testing.B) *exp.Suite {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	s, err := exp.CollectWith(exp.Engine())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// freshEngine installs a new, empty package engine with the timer
// stopped. A compile-variant study then measures every build instead
// of reading the previous iteration's in-memory cache; the caller
// restores the previous engine when it is done.
func freshEngine(b *testing.B) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	exp.SetEngine(engine.New(engine.Options{}))
}

// BenchmarkTable1DeadCode regenerates Table 1: the dynamically dead
// code left in because dead-branch elimination must stay off to keep
// IFPROBBER/MFPixie branch numbering in sync.
func BenchmarkTable1DeadCode(b *testing.B) {
	var rows []exp.DeadCodeRow
	var err error
	prev := exp.Engine()
	defer exp.SetEngine(prev)
	for i := 0; i < b.N; i++ {
		freshEngine(b)
		rows, err = exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	var max float64
	for _, r := range rows {
		if r.DeadPct > max {
			max = r.DeadPct
		}
	}
	b.ReportMetric(100*max, "max-dead-%")
}

// BenchmarkTable3 regenerates Table 3: instructions/break for the
// low-variability FORTRAN programs under self prediction.
func BenchmarkTable3(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var min float64 = 1e18
	for _, r := range rows {
		if r.InstrsPerBreak < min {
			min = r.InstrsPerBreak
		}
	}
	b.ReportMetric(min, "min-instrs/break")
}

// BenchmarkFigure1a regenerates Figure 1a (FORTRAN, no prediction).
func BenchmarkFigure1a(b *testing.B) {
	benchFigure1(b, workloads.Fortran)
}

// BenchmarkFigure1b regenerates Figure 1b (C, no prediction).
func BenchmarkFigure1b(b *testing.B) {
	benchFigure1(b, workloads.C)
}

func benchFigure1(b *testing.B, lang workloads.Lang) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = exp.Figure1(s, lang)
	}
	var sum float64
	for _, r := range rows {
		sum += r.NoCalls
	}
	b.ReportMetric(sum/float64(len(rows)), "avg-instrs/break")
}

// BenchmarkFigure2a regenerates Figure 2a (spice2g6 predicted).
func BenchmarkFigure2a(b *testing.B) {
	benchFigure2(b, []string{"spice2g6"})
}

// BenchmarkFigure2b regenerates Figure 2b (C programs predicted).
func BenchmarkFigure2b(b *testing.B) {
	s := sharedSuite(b)
	benchFigure2(b, exp.CProgramNames(s))
}

func benchFigure2(b *testing.B, progs []string) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.Fig2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Figure2(s, progs)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ratioSum float64
	for _, r := range rows {
		ratioSum += r.Others / r.Self
	}
	b.ReportMetric(100*ratioSum/float64(len(rows)), "others-%-of-self")
}

// BenchmarkFigure3a regenerates Figure 3a (spice2g6 pairwise).
func BenchmarkFigure3a(b *testing.B) {
	benchFigure3(b, []string{"spice2g6"})
}

// BenchmarkFigure3b regenerates Figure 3b (C programs pairwise).
func BenchmarkFigure3b(b *testing.B) {
	s := sharedSuite(b)
	benchFigure3(b, exp.CProgramNames(s))
}

func benchFigure3(b *testing.B, progs []string) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.Fig3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Figure3(s, progs)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worst float64 = 1e18
	for _, r := range rows {
		if r.WorstPct < worst {
			worst = r.WorstPct
		}
	}
	b.ReportMetric(worst, "worst-%-of-self")
}

// BenchmarkTakenConstancy regenerates the percent-taken observation.
func BenchmarkTakenConstancy(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.TakenRow
	for i := 0; i < b.N; i++ {
		rows = exp.TakenConstancy(s)
	}
	var maxSpread float64
	for _, r := range rows {
		if r.Program != "spice2g6" && r.Program != "uncompress" && r.Spread() > maxSpread {
			maxSpread = r.Spread()
		}
	}
	b.ReportMetric(maxSpread, "max-spread-pp")
}

// BenchmarkCombinedModes regenerates the scaled/unscaled/polling
// comparison.
func BenchmarkCombinedModes(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.CombinedRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.CombinedComparison(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sc, un float64
	for _, r := range rows {
		sc += r.Scaled
		un += r.Unscaled
	}
	b.ReportMetric(sc/un, "scaled/unscaled")
}

// BenchmarkHeuristicComparison regenerates the heuristics-lose-2x
// observation.
func BenchmarkHeuristicComparison(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.HeuristicRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.HeuristicComparison(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	var n int
	for _, r := range rows {
		if f := r.Factor(); f > 0 && f < 1e6 {
			sum += f
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "profile-vs-heuristic-x")
}

// BenchmarkMotivation regenerates the fpppp/li contrast that opens
// the paper's argument for instructions-per-mispredicted-branch.
func BenchmarkMotivation(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.MotivationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Motivation(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].InstrsPerMispred/rows[1].InstrsPerMispred, "fpppp/li-mispred-ratio")
}

// ---- extension benchmarks ----

// BenchmarkStaticVsDynamic regenerates the extension comparing static
// profile prediction with simulated 1/2-bit hardware predictors. It
// times the traced replay itself: the package engine has no cache
// directory, so no replay is served from disk.
func BenchmarkStaticVsDynamic(b *testing.B) {
	sharedSuite(b)
	if exp.Engine().Persistent() {
		b.Fatal("package engine has a cache directory; replays would be read, not traced")
	}
	b.ResetTimer()
	var rows []exp.DynRow
	var err error
	for i := 0; i < b.N; i++ {
		s := unreplayedSuite(b)
		rows, err = exp.StaticVsDynamic(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var wins int
	for _, r := range rows {
		if r.SelfRate <= r.TwoBitRate {
			wins++
		}
	}
	b.ReportMetric(float64(wins)/float64(len(rows)), "static-wins-frac")
}

// BenchmarkStaticVsDynamicCached regenerates the same extension on the
// cached path a repeat run takes: every iteration reads the traced
// replays back from a cache directory filled before the timer starts,
// through a fresh engine and suite (the timer is stopped while they
// are built), and traces nothing.
func BenchmarkStaticVsDynamicCached(b *testing.B) {
	prev := exp.Engine()
	defer exp.SetEngine(prev)
	dir := b.TempDir()
	cachedSuite := func() (*engine.Engine, *exp.Suite) {
		b.StopTimer()
		defer b.StartTimer()
		eng := engine.New(engine.Options{CacheDir: dir})
		exp.SetEngine(eng)
		s, err := exp.CollectWith(eng)
		if err != nil {
			b.Fatal(err)
		}
		return eng, s
	}
	_, s := cachedSuite()
	if _, err := exp.StaticVsDynamic(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, s := cachedSuite()
		if _, err := exp.StaticVsDynamic(s); err != nil {
			b.Fatal(err)
		}
		if st := eng.Stats(); st.Runs != 0 || st.ReplayHits != uint64(len(s.Programs)) {
			b.Fatalf("cached pass: %d runs, %d/%d replay hits; want every replay read from the cache",
				st.Runs, st.ReplayHits, len(s.Programs))
		}
	}
}

// BenchmarkRunLengths regenerates the run-length distribution
// extension.
func BenchmarkRunLengths(b *testing.B) {
	sharedSuite(b)
	b.ResetTimer()
	var rows []exp.RunLengthRow
	var err error
	for i := 0; i < b.N; i++ {
		s := unreplayedSuite(b)
		rows, err = exp.RunLengths(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxCV float64
	for _, r := range rows {
		if r.Stats.CV > maxCV {
			maxCV = r.Stats.CV
		}
	}
	b.ReportMetric(maxCV, "max-runlength-cv")
}

// BenchmarkCoverage regenerates the coverage-vs-quality study.
func BenchmarkCoverage(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.CoverageRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Coverage(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(exp.CoverageCorrelation(rows), "pearson-r")
}

// ---- substrate micro-benchmarks ----

// BenchmarkCompileAllWorkloads measures the MF compiler over the 60
// builds a paper pass makes: every workload plain and under each
// compile-variant study's options (Table 1's dead-branch elimination,
// the inlining ablation, the select study). A warm pass serves every
// measurement from cache but still compiles all of them.
func BenchmarkCompileAllWorkloads(b *testing.B) {
	all := workloads.All()
	builds := []mfc.Options{{}, {DeadBranchElim: true}, {InlineCalls: true}, {UseSelects: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range all {
			for _, o := range builds {
				if _, err := mfc.Compile(w.Name, w.Source, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// liSieve compiles the li workload and returns its pre-decoded image
// with the sievel dataset — the fixture both VM-speed benchmarks
// share so their numbers are a clean backend A/B.
func liSieve(b *testing.B) (*vm.Image, []byte) {
	b.Helper()
	w, err := workloads.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := mfc.Compile(w.Name, w.Source, mfc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return vm.Load(prog), w.Datasets[2].Gen() // sievel
}

// BenchmarkVMInterpreter measures raw interpreter speed on the li
// sieve workload, reporting instructions per second. It pins the
// interpreter explicitly: the test binary links the generated
// workload bodies, so the default Run dispatch would silently measure
// codegen instead.
func BenchmarkVMInterpreter(b *testing.B) {
	im, input := liSieve(b)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := im.RunInterpreter(input, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "vm-instrs/s")
}

// BenchmarkVMCodegen measures the compiled-to-Go backend on the same
// workload and dataset as BenchmarkVMInterpreter; comparing the two
// gives the codegen speedup (`make bench-smoke` runs both once).
func BenchmarkVMCodegen(b *testing.B) {
	w, err := workloads.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := mfc.Compile(w.Name, w.Source, mfc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if vm.CompiledFor(prog) == nil {
		b.Fatal("no compiled body registered for li — run `go generate ./internal/workloads/compiled`")
	}
	if !vm.CompiledEnabled() {
		b.Fatal("compiled backend disabled (BRANCHPROF_VM_BACKEND=interp?)")
	}
	im, input := vm.Load(prog), w.Datasets[2].Gen() // sievel
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := im.Run(input, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "vm-instrs/s")
}

// branchEvent is one recorded conditional-branch outcome, for
// replaying a real program's branch stream through predictors without
// re-running the VM.
type branchEvent struct {
	site  int32
	taken bool
}

// streamRecorder captures a run's branch stream.
type streamRecorder struct {
	events []branchEvent
}

func (r *streamRecorder) Branch(site int32, taken bool, _ uint64) {
	r.events = append(r.events, branchEvent{site, taken})
}
func (r *streamRecorder) Transfer(vm.TransferKind, uint64) {}

// BenchmarkPredictorZoo measures predictor-simulation throughput: the
// li sieve workload's branch stream replayed through the full zoo
// (1-bit, 2-bit, two-level, gshare, bi-mode), reporting predictor
// decisions per second — the marginal cost of attaching every scheme
// to a traced run.
func BenchmarkPredictorZoo(b *testing.B) {
	w, err := workloads.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := mfc.Compile(w.Name, w.Source, mfc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rec := &streamRecorder{}
	if _, err := vm.Run(prog, w.Datasets[2].Gen(), &vm.Config{Trace: rec}); err != nil {
		b.Fatal(err)
	}
	if len(rec.events) == 0 {
		b.Fatal("no branch events recorded")
	}
	b.ResetTimer()
	var decisions uint64
	for i := 0; i < b.N; i++ {
		preds := dynpred.Zoo(len(prog.Sites))
		for _, ev := range rec.events {
			for _, p := range preds {
				p.Branch(ev.site, ev.taken, 0)
			}
		}
		for _, p := range preds {
			if p.Err() != nil {
				b.Fatal(p.Err())
			}
			decisions += p.Executed()
		}
	}
	b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "pred-decisions/s")
}

// BenchmarkPredictEvaluate measures prediction construction and
// evaluation over the biggest profile in the suite.
func BenchmarkPredictEvaluate(b *testing.B) {
	s := sharedSuite(b)
	p, err := s.Program("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := predict.Combine(p.OtherProfiles(0), predict.Scaled, p.Prog.Sites, predict.LoopHeuristic)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := predict.Evaluate(pred, p.Runs[0].Prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInlineAblation regenerates the inlining ablation.
func BenchmarkInlineAblation(b *testing.B) {
	var rows []exp.InlineRow
	var err error
	prev := exp.Engine()
	defer exp.SetEngine(prev)
	for i := 0; i < b.N; i++ {
		freshEngine(b)
		rows, err = exp.InlineAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	var best float64
	for _, r := range rows {
		if r.Speedup() > best {
			best = r.Speedup()
		}
	}
	b.ReportMetric(best, "best-inline-gain-x")
}

// BenchmarkSelectStudy regenerates the if-conversion study.
func BenchmarkSelectStudy(b *testing.B) {
	var rows []exp.SelectRow
	var err error
	prev := exp.Engine()
	defer exp.SetEngine(prev)
	for i := 0; i < b.N; i++ {
		freshEngine(b)
		rows, err = exp.SelectStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	var max float64
	for _, r := range rows {
		if r.SelectPct > max {
			max = r.SelectPct
		}
	}
	b.ReportMetric(100*max, "max-select-%")
}

// BenchmarkDisagreement regenerates the worst-predictor failure
// decomposition.
func BenchmarkDisagreement(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.DisagreeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.DisagreementStudy(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var excess, unseen uint64
	for _, r := range rows {
		excess += r.Excess()
		unseen += r.UnseenMiss
	}
	b.ReportMetric(100*float64(unseen)/float64(excess), "unseen-share-%")
}

// BenchmarkTraceStudy regenerates the trace-selection extension.
func BenchmarkTraceStudy(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows []exp.TraceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.TraceStudy(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	var gain float64
	var n int
	for _, r := range rows {
		if r.Block > 0 {
			gain += r.Profile / r.Block
			n++
		}
	}
	b.ReportMetric(gain/float64(n), "avg-trace-gain-x")
}

// BenchmarkSuiteCollectCold measures a from-scratch collection of the
// full program × dataset matrix: every workload compiled and every
// dataset interpreted, on a fresh engine each iteration.
func BenchmarkSuiteCollectCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{})
		s, err := exp.CollectWith(eng)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Programs) == 0 {
			b.Fatal("empty suite")
		}
		b.ReportMetric(float64(eng.Stats().Instrs), "instrs/op")
	}
}

// BenchmarkSuiteCollectWarm measures the same collection served from
// a pre-populated persistent cache: each iteration uses a fresh
// engine (empty memory cache) over the shared directory, so the cost
// is recompilation plus disk reads — the speedup over Cold is what
// the content-addressed cache buys.
func BenchmarkSuiteCollectWarm(b *testing.B) {
	dir := b.TempDir()
	if _, err := exp.CollectWith(engine.New(engine.Options{CacheDir: dir})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{CacheDir: dir})
		s, err := exp.CollectWith(eng)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Programs) == 0 {
			b.Fatal("empty suite")
		}
		if runs := eng.Stats().Runs; runs != 0 {
			b.Fatalf("warm collection executed %d runs; cache did not serve", runs)
		}
	}
}
