package exp

import (
	"context"
	"errors"
	"fmt"

	"branchprof/internal/dynpred"
	"branchprof/internal/engine"
	"branchprof/internal/isa"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// StaticTable is one named static direction table a traced replay
// scores: Dirs[i] is site i's predicted-taken bit, as
// predict.Prediction.TakenTable returns it.
type StaticTable struct {
	Name string
	Dirs []bool
}

// Replay is what one traced run measured, as plain summaries: every
// scheme's counts (the static tables, then the zoo), the instruction
// count and each site's outcome statistics.
type Replay struct {
	preds  []schemeCounts
	instrs uint64
	sites  []runlength.SiteStats // indexed by site id
}

// schemeCounts is one predictor's outcome on a replay: the name it
// reports under, its totals and its per-site counts.
type schemeCounts struct {
	name        string
	executed    uint64
	mispredicts uint64
	siteExec    []uint64
	siteMiss    []uint64
}

// countsOf summarizes a predictor after its run.
func countsOf(p dynpred.Predictor) schemeCounts {
	return schemeCounts{
		name:        p.Name(),
		executed:    p.Executed(),
		mispredicts: p.Mispredicts(),
		siteExec:    p.SiteExecuted(),
		siteMiss:    p.SiteMispredicts(),
	}
}

// ErrTracerContract marks a traced replay whose tracers saw events at
// sites outside the compiled program's tables. Tracers sized from the
// program can only trip it on an internal invariant violation.
var ErrTracerContract = errors.New("tracer contract violation")

// TraceReplay is the one place a run meets the predictor zoo: it runs
// prog on input once through eng, with fuel as the instruction budget
// (0 is the VM default), and measures the identical branch stream with
// the statics (in order), then dynpred.Zoo, then a per-site outcome
// recorder and the extra tracers, all on one dynpred.Multi. A run
// error is returned exactly as the engine reported it; a tracer that
// saw an out-of-range site fails the replay with ErrTracerContract.
// Traced runs observe the execution, so the engine runs them fresh
// (never from its measurement cache) while still counting them.
func TraceReplay(ctx context.Context, eng *engine.Engine, prog *isa.Program, input []byte, fuel uint64, statics []StaticTable, extra ...vm.Tracer) (Replay, error) {
	var preds []dynpred.Predictor
	for _, st := range statics {
		preds = append(preds, dynpred.NewStatic(st.Name, st.Dirs))
	}
	preds = append(preds, dynpred.Zoo(len(prog.Sites))...)
	sites := runlength.NewSites(len(prog.Sites))
	multi := &dynpred.Multi{Predictors: preds, Extra: append([]vm.Tracer{sites}, extra...)}
	res, err := eng.RunContext(ctx, prog, "", input, &vm.Config{Fuel: fuel, Trace: multi})
	if err != nil {
		return Replay{}, err
	}
	if err := multi.Err(); err != nil {
		return Replay{}, fmt.Errorf("%w: %w", ErrTracerContract, err)
	}
	rp := Replay{preds: make([]schemeCounts, len(preds)), instrs: res.Instrs, sites: sites.Stats()}
	for i, p := range preds {
		rp.preds[i] = countsOf(p)
	}
	return rp, nil
}

// Instrs is the replayed run's instruction count.
func (rp Replay) Instrs() uint64 { return rp.instrs }

// H2P ranks the replay's executed sites by their minimum MPKI across
// every scheme and returns the top n (n <= 0 returns all) with their
// source identity from sites, the program's branch-site table.
func (rp Replay) H2P(sites []isa.BranchSite, n int) []H2PSite {
	schemes := make([]runlength.SchemeMisses, len(rp.preds))
	for i, pr := range rp.preds {
		schemes[i] = runlength.SchemeMisses{Scheme: pr.name, Misses: pr.siteMiss}
	}
	entries := runlength.RankH2P(rp.sites, rp.instrs, schemes, n)
	top := make([]H2PSite, len(entries))
	for i, e := range entries {
		site := sites[e.Stats.Site]
		top[i] = H2PSite{
			Site:      e.Stats.Site,
			Func:      site.Func,
			Line:      site.Line,
			Label:     site.Label,
			Executed:  e.Stats.Executed,
			TakenRate: e.Stats.TakenRate,
			Entropy:   e.Stats.Entropy,
			MeanRun:   e.Stats.MeanRun,
			MaxRun:    e.Stats.MaxRun,
			MPKI:      e.MPKI,
			Score:     e.Score,
		}
	}
	return top
}
