// Package exp runs the paper's experiments: it executes the full
// program × dataset matrix once (through the shared engine, which
// caches and bounds the work), then derives every table and figure
// from the recorded profiles and instruction counts.
package exp

import (
	"context"
	"fmt"
	"sync"

	"branchprof/internal/engine"
	"branchprof/internal/ifprob"
	"branchprof/internal/isa"
	"branchprof/internal/obs"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

// Run is one completed (program, dataset) execution with its profile.
type Run struct {
	Workload string
	Dataset  string
	Res      *vm.Result
	Prof     *ifprob.Profile
}

// ProgramRuns groups a compiled workload with all its dataset runs.
type ProgramRuns struct {
	Workload *workloads.Workload
	Prog     *isa.Program
	Runs     []*Run
}

// OtherProfiles returns the profiles of every dataset except index i —
// the paper's "sum of all the other datasets" predictor inputs.
func (p *ProgramRuns) OtherProfiles(i int) []*ifprob.Profile {
	out := make([]*ifprob.Profile, 0, len(p.Runs)-1)
	for j, r := range p.Runs {
		if j != i {
			out = append(out, r.Prof)
		}
	}
	return out
}

// Multi reports whether cross-dataset experiments apply to this
// program: the workload registers several datasets AND more than one
// was actually measured — on a degraded suite a multi-dataset workload
// can come back with a single surviving run, which has no "others".
func (p *ProgramRuns) Multi() bool {
	return p.Workload.MultiDataset() && len(p.Runs) > 1
}

// InputFor regenerates the input bytes of the dataset r was measured
// on. Replay experiments must pair a run with its own dataset's bytes;
// indexing Workload.Datasets positionally is wrong on a degraded suite,
// where Runs is compacted and no longer aligned with the registration.
func (p *ProgramRuns) InputFor(r *Run) []byte {
	for _, ds := range p.Workload.Datasets {
		if ds.Name == r.Dataset {
			return ds.Gen()
		}
	}
	return nil
}

// CellError records one (workload, dataset) cell of the matrix that
// could not be measured, and why.
type CellError struct {
	Workload string
	Dataset  string
	Err      error
}

// Error describes the failed cell.
func (e *CellError) Error() string {
	return fmt.Sprintf("%s/%s: %v", e.Workload, e.Dataset, e.Err)
}

// Unwrap exposes the cause.
func (e *CellError) Unwrap() error { return e.Err }

// CoverageSummary quantifies how much of the full program × dataset
// matrix a suite actually holds.
type CoverageSummary struct {
	TotalCells    int // cells in the full matrix
	MeasuredCells int // cells successfully measured
	TotalPrograms int // workloads registered
	FullPrograms  int // workloads with every dataset measured
}

// Complete reports a fully-measured matrix.
func (c CoverageSummary) Complete() bool { return c.MeasuredCells == c.TotalCells }

// String renders the one-line coverage annotation reports carry.
func (c CoverageSummary) String() string {
	if c.Complete() {
		return fmt.Sprintf("coverage: complete (%d/%d cells)", c.MeasuredCells, c.TotalCells)
	}
	return fmt.Sprintf("coverage: PARTIAL %d/%d cells (%d/%d programs complete)",
		c.MeasuredCells, c.TotalCells, c.FullPrograms, c.TotalPrograms)
}

// Suite is the measured matrix — complete after a strict collection,
// possibly partial after a degraded-mode one (see CollectCtx). On a
// partial suite, Programs holds only workloads with at least one
// measured run, each ProgramRuns.Runs is compacted to its surviving
// cells, and Errors records every cell that failed.
type Suite struct {
	Programs []*ProgramRuns // in report order
	// Errors lists the failed matrix cells, in matrix order; empty on a
	// complete suite.
	Errors   []*CellError
	byName   map[string]*ProgramRuns
	cells    int      // size of the full matrix at collection time
	programs int      // workloads registered at collection time
	obs      *obs.Obs // collection engine's observability; may be nil
	replay   replayMemo
}

// span opens a root-level span for a derived artifact (the "predict"
// stage of the pipeline); nil — free — when tracing is off. Callers
// use `defer s.span("predict.x").End()`.
func (s *Suite) span(name string) *obs.Span {
	if s == nil || !s.obs.Tracing() {
		return nil
	}
	return s.obs.Tracer().Start(nil, name)
}

// Partial reports whether any cell of the matrix is missing.
func (s *Suite) Partial() bool { return len(s.Errors) > 0 }

// CoverageSummary summarizes how much of the matrix was measured.
func (s *Suite) CoverageSummary() CoverageSummary {
	c := CoverageSummary{TotalCells: s.cells, TotalPrograms: s.programs}
	for _, p := range s.Programs {
		c.MeasuredCells += len(p.Runs)
		if len(p.Runs) == len(p.Workload.Datasets) {
			c.FullPrograms++
		}
	}
	return c
}

// Program returns the measured runs of one workload.
func (s *Suite) Program(name string) (*ProgramRuns, error) {
	if p, ok := s.byName[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("exp: no measured program %q", name)
}

// program resolves name for experiment code that should degrade
// gracefully: a program missing from a partial suite is skipped
// ((nil, nil) — the caller drops that part of the report), while a
// missing program on a complete suite is a hard error, since it means
// the experiment asked for something that was never registered.
func (s *Suite) program(name string) (*ProgramRuns, error) {
	if p, ok := s.byName[name]; ok {
		return p, nil
	}
	if s.Partial() {
		return nil, nil
	}
	return nil, fmt.Errorf("exp: no measured program %q", name)
}

var (
	engMu     sync.Mutex
	pkgEngine *engine.Engine
)

// SetEngine routes this package's collections and replays through
// eng — how cmd/experiments plugs in a persistent cache directory.
// Call it before the first Shared/Collect.
func SetEngine(eng *engine.Engine) {
	engMu.Lock()
	pkgEngine = eng
	engMu.Unlock()
}

// Engine returns the engine this package measures with (the process
// default unless SetEngine installed another).
func Engine() *engine.Engine {
	engMu.Lock()
	defer engMu.Unlock()
	if pkgEngine == nil {
		pkgEngine = engine.Default()
	}
	return pkgEngine
}

// Collect measures the full matrix through the package engine: every
// workload compiled with dead-branch elimination off (the paper's
// measurement configuration), every dataset run.
func Collect() (*Suite, error) {
	return CollectWith(Engine())
}

// CollectWith measures the full matrix through eng, strictly: the
// first failing cell aborts the collection. See CollectCtx for the
// degraded mode that keeps the healthy cells instead.
func CollectWith(eng *engine.Engine) (*Suite, error) {
	return CollectCtx(context.Background(), eng, CollectOptions{})
}

// CollectOptions configures a collection.
type CollectOptions struct {
	// AllowPartial keeps collecting past failed cells: the suite comes
	// back with the healthy cells measured, per-cell Errors for the
	// rest, and a coverage summary. A suite with zero measured cells is
	// still an error, as is a cancelled collection.
	AllowPartial bool
	// Workloads overrides the measured matrix; nil means the full
	// registry (workloads.All()). Tests use it to collect synthetic
	// matrices — e.g. a zero-branch program — through the real
	// degraded-mode machinery.
	Workloads []*workloads.Workload
}

// CollectCtx measures the full matrix through eng under ctx.
// (Workload, dataset) units are independent and deterministic, so they
// execute on the engine's bounded worker pool; results land in
// preassigned slots, so the assembled suite is identical to a
// sequential collection no matter the schedule or cache state.
//
// Without AllowPartial the first error (in matrix order) aborts the
// collection. With it, failed cells are recorded and skipped: the
// suite's Programs keep only measured runs, workloads with no
// surviving run disappear, and CoverageSummary reports what remains.
func CollectCtx(ctx context.Context, eng *engine.Engine, opts CollectOptions) (*Suite, error) {
	all := opts.Workloads
	if all == nil {
		all = workloads.All()
	}
	s := &Suite{
		Programs: make([]*ProgramRuns, len(all)),
		byName:   make(map[string]*ProgramRuns),
		programs: len(all),
		obs:      eng.Obs(),
	}
	type job struct{ wi, di int }
	var jobs []job
	for wi, w := range all {
		s.Programs[wi] = &ProgramRuns{Workload: w, Runs: make([]*Run, len(w.Datasets))}
		for di := range w.Datasets {
			jobs = append(jobs, job{wi, di})
		}
	}
	s.cells = len(jobs)
	ctx, csp := s.obs.Start(ctx, "collect", obs.A("cells", len(jobs)))
	defer csp.End()
	reg := eng.Registry()
	cellsOK := reg.Counter(`branchprof_exp_cells_total{result="measured"}`, "Matrix cells by collection outcome.")
	cellsBad := reg.Counter(`branchprof_exp_cells_total{result="degraded"}`, "Matrix cells by collection outcome.")
	// Each cell publishes its own compiled image; the per-workload
	// Prog is picked after the barrier, so a failed first dataset does
	// not lose the program the other datasets compiled (and no two
	// goroutines race on the shared ProgramRuns).
	progs := make([]*isa.Program, len(jobs))
	errs, err := eng.ParallelErrors(ctx, len(jobs), func(j int) error {
		wi, di := jobs[j].wi, jobs[j].di
		w := all[wi]
		ds := w.Datasets[di]
		cctx, sp := s.obs.Start(ctx, "cell", obs.A("program", w.Name), obs.A("dataset", ds.Name))
		out, err := eng.ExecuteContext(cctx, engine.Spec{
			Name:    w.Name,
			Source:  w.Source,
			Dataset: ds.Name,
			Input:   ds.Gen(),
		})
		if err != nil {
			cellsBad.Inc()
			err = fmt.Errorf("exp: measuring %s/%s: %w", w.Name, ds.Name, err)
			sp.SetError(err)
			sp.End()
			return err
		}
		cellsOK.Inc()
		sp.SetAttr("cache_hit", out.CacheHit)
		sp.End()
		progs[j] = out.Prog
		s.Programs[wi].Runs[di] = &Run{Workload: w.Name, Dataset: ds.Name, Res: out.Res, Prof: out.Prof}
		return nil
	})
	for j, p := range progs {
		if pr := s.Programs[jobs[j].wi]; p != nil && pr.Prog == nil {
			pr.Prog = p
		}
	}
	if err != nil && !opts.AllowPartial {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancellation is never degraded to a partial suite: the caller
		// asked the whole collection to stop.
		return nil, cerr
	}
	for j, jerr := range errs {
		if jerr != nil {
			w := all[jobs[j].wi]
			s.Errors = append(s.Errors, &CellError{
				Workload: w.Name, Dataset: w.Datasets[jobs[j].di].Name, Err: jerr,
			})
		}
	}
	// Compact: drop failed cells and workloads with nothing measured.
	kept := s.Programs[:0]
	for _, pr := range s.Programs {
		runs := pr.Runs[:0]
		for _, r := range pr.Runs {
			if r != nil {
				runs = append(runs, r)
			}
		}
		pr.Runs = runs
		if len(runs) == 0 || pr.Prog == nil {
			continue
		}
		kept = append(kept, pr)
		s.byName[pr.Workload.Name] = pr
	}
	s.Programs = kept
	if len(s.Programs) == 0 {
		// A fully-failed collection has nothing to degrade to.
		if err != nil {
			return nil, fmt.Errorf("exp: collection failed completely: %w", err)
		}
		return nil, fmt.Errorf("exp: collection measured nothing")
	}
	csp.SetAttr("measured", s.cells-len(s.Errors))
	csp.SetAttr("degraded", len(s.Errors))
	return s, nil
}

var (
	sharedOnce  sync.Once
	sharedSuite *Suite
	sharedErr   error
)

// Shared returns a process-wide cached suite; the heavy matrix runs
// only once per process no matter how many experiments ask for it.
func Shared() (*Suite, error) {
	sharedOnce.Do(func() {
		sharedSuite, sharedErr = Collect()
	})
	return sharedSuite, sharedErr
}
