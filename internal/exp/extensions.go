package exp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"branchprof/internal/engine"
	"branchprof/internal/predict"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// Extension experiments: not tables or figures from the paper itself,
// but quantifications of two claims its argument leans on — that
// static profile-fed prediction is competitive with the 1/2-bit
// hardware schemes (§1, "Static vs. Dynamic Branch Prediction"), and
// that run lengths between breaks are unevenly distributed (§3, "The
// distribution of runs of instructions between mispredicted branches
// will not be constant").

// DynRow compares mispredict rates of static and dynamic schemes on
// one run. Rates are mispredicts per executed conditional branch.
type DynRow struct {
	Program      string
	Dataset      string
	SelfRate     float64 // static, profile of the run itself (best static)
	OthersRate   float64 // static, scaled sum of the other datasets
	OneBitRate   float64
	TwoBitRate   float64
	TwoLevelRate float64 // two-level adaptive (Lee & Smith)
	GShareRate   float64
	BiModeRate   float64
}

// tracedReplay is what the replay studies (StaticVsDynamic,
// InstrsPerMispredict, H2PStudy, RunLengths) read from one program's
// traced first-dataset run: its Replay, with preds in report order
// (self, others, 1-bit, 2-bit, two-level, gshare, bimode), and the
// break-to-break runs under self. It keeps summaries, never the raw
// run-length slice, so a long-lived suite pins little memory and the
// same value is what the engine's persistent cache stores
// (replaycache.go).
type tracedReplay struct {
	Replay
	runs runlength.Stats // break-to-break runs under self
	hist string          // runs' log2 histogram
}

// replayHistWidth is the run-length histogram's widest log2 bucket.
const replayHistWidth = 16

// replayMemo holds a suite's traced replays, built on first use by
// whichever replay study asks first.
type replayMemo struct {
	once sync.Once
	rows []tracedReplay
	err  error
}

// replays returns every program's traced replay in program order. The
// first call replays each program's first dataset once, concurrently
// through the package engine; later calls, from any goroutine, read
// the memo. Slots are preassigned, so the rows (and the first error,
// in program order) are identical to a serial pass.
func (s *Suite) replays() ([]tracedReplay, error) {
	m := &s.replay
	m.once.Do(func() {
		eng := Engine()
		rows := make([]tracedReplay, len(s.Programs))
		m.err = eng.Parallel(len(s.Programs), func(i int) error {
			var err error
			rows[i], err = replayProgram(context.Background(), eng, s.Programs[i])
			return err
		})
		if m.err == nil {
			m.rows = rows
		}
	})
	return m.rows, m.err
}

// replayProgram returns p's traced replay of its first dataset,
// measured through eng. An engine with a persistent cache serves it
// from there when an entry for exactly these inputs exists (see
// replayKey), and otherwise traces the run and stores the result, so
// a repeat run of the paper pipeline traces nothing. Without a cache
// directory it just traces. Single-dataset programs reuse self as
// others.
func replayProgram(ctx context.Context, eng *engine.Engine, p *ProgramRuns) (tracedReplay, error) {
	r := p.Runs[0]
	self, err := selfPrediction(p, r)
	if err != nil {
		return tracedReplay{}, err
	}
	others := self
	if p.Multi() {
		others, err = predict.Combine(p.OtherProfiles(0), predict.Scaled, p.Prog.Sites, predict.LoopHeuristic)
		if err != nil {
			return tracedReplay{}, err
		}
	}
	input := p.InputFor(r)
	if !eng.Persistent() {
		return traceReplay(ctx, eng, p, input, self, others)
	}
	key := replayKey(p.Prog, input, self.TakenTable(), others.TakenTable())
	label := "replay:" + p.Workload.Name + "/" + r.Dataset
	var rp tracedReplay
	if eng.LoadDerived(key, label, func(b []byte) (err error) {
		rp, err = decodeReplay(b, len(p.Prog.Sites))
		return err
	}) {
		return rp, nil
	}
	if rp, err = traceReplay(ctx, eng, p, input, self, others); err != nil {
		return tracedReplay{}, err
	}
	eng.StoreDerived(key, label, encodeReplay(rp))
	return rp, nil
}

// traceReplay runs p on input through TraceReplay with the self and
// others tables and a run-length recorder under self attached. It
// fails, and returns nothing to store, when the run fails or is
// cancelled or any tracer saw an out-of-range site.
func traceReplay(ctx context.Context, eng *engine.Engine, p *ProgramRuns, input []byte, self, others *predict.Prediction) (tracedReplay, error) {
	runs := runlength.New(self)
	extra := []vm.Tracer{runs}
	if replayProbe != nil {
		extra = append(extra, replayProbe())
	}
	statics := []StaticTable{{"self", self.TakenTable()}, {"others", others.TakenTable()}}
	rp, err := TraceReplay(ctx, eng, p.Prog, input, 0, statics, extra...)
	if err != nil {
		return tracedReplay{}, fmt.Errorf("exp: traced replay of %s: %w", p.Workload.Name, err)
	}
	// Close the distribution with the tail run (last break → program
	// exit); without it that stretch silently vanishes.
	runs.Finish(rp.instrs)
	return tracedReplay{Replay: rp, runs: runs.Summarize(), hist: runs.Histogram(replayHistWidth)}, nil
}

// replayProbe, when non-nil, attaches one more tracer to every traced
// replay. Tests use it to make a replay's multi.Err() fail.
var replayProbe func() vm.Tracer

// missRate is mispredicts per executed conditional branch, 0 for a
// branch-free run (never NaN: zero-branch programs flow through every
// report writer).
func missRate(pr schemeCounts) float64 {
	if pr.executed == 0 {
		return 0
	}
	return float64(pr.mispredicts) / float64(pr.executed)
}

// StaticVsDynamic compares every predictor's mispredict rate on each
// program's first dataset, read from the suite's shared traced replay
// (which runs on first use), so all schemes are measured on an
// identical branch stream. Programs with several datasets also get the
// sum-of-others static predictor; single-dataset programs reuse self.
func StaticVsDynamic(s *Suite) ([]DynRow, error) {
	reps, err := s.replays()
	if err != nil {
		return nil, err
	}
	rows := make([]DynRow, len(reps))
	for i, rp := range reps {
		p := s.Programs[i]
		rows[i] = DynRow{
			Program: p.Workload.Name, Dataset: p.Runs[0].Dataset,
			SelfRate:     missRate(rp.preds[0]),
			OthersRate:   missRate(rp.preds[1]),
			OneBitRate:   missRate(rp.preds[2]),
			TwoBitRate:   missRate(rp.preds[3]),
			TwoLevelRate: missRate(rp.preds[4]),
			GShareRate:   missRate(rp.preds[5]),
			BiModeRate:   missRate(rp.preds[6]),
		}
	}
	return rows, nil
}

// RenderStaticVsDynamic formats the comparison.
func RenderStaticVsDynamic(rows []DynRow) string {
	var b strings.Builder
	b.WriteString("Extension: static (profile) vs dynamic mispredict rates\n")
	fmt.Fprintf(&b, "%-12s %-12s %8s %8s %8s %8s %8s %8s %8s\n",
		"PROGRAM", "DATASET", "SELF", "OTHERS", "1-BIT", "2-BIT", "2-LEVEL", "GSHARE", "BIMODE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			r.Program, r.Dataset, 100*r.SelfRate, 100*r.OthersRate, 100*r.OneBitRate,
			100*r.TwoBitRate, 100*r.TwoLevelRate, 100*r.GShareRate, 100*r.BiModeRate)
	}
	return b.String()
}

// SchemeIPM is one scheme's cost on one run, in the paper's headline
// unit: how many instructions execute per mispredicted branch.
type SchemeIPM struct {
	Scheme      string  `json:"scheme"`
	Executed    uint64  `json:"executed"`
	Mispredicts uint64  `json:"mispredicts"`
	Rate        float64 `json:"rate"` // mispredicts per executed branch
	// IPM is instructions per mispredict; +Inf when nothing
	// mispredicted (a break-free run), matching breaks.InstrsPerBreak's
	// sentinel convention.
	IPM float64 `json:"instrs_per_mispredict"`
}

// SchemeIPMRow compares every scheme on one workload's run.
type SchemeIPMRow struct {
	Program string      `json:"program"`
	Dataset string      `json:"dataset"`
	Instrs  uint64      `json:"instrs"`
	Schemes []SchemeIPM `json:"schemes"`
}

// schemeIPM books one predictor's cost over a run of instrs.
func schemeIPM(pr schemeCounts, instrs uint64) SchemeIPM {
	ipm := math.Inf(1)
	if pr.mispredicts > 0 {
		ipm = float64(instrs) / float64(pr.mispredicts)
	}
	return SchemeIPM{
		Scheme:      pr.name,
		Executed:    pr.executed,
		Mispredicts: pr.mispredicts,
		Rate:        missRate(pr),
		IPM:         ipm,
	}
}

// InstrsPerMispredict is the predictor-zoo lane: the static profile
// predictors and every dynamic scheme on each program's first dataset,
// read from the suite's shared traced replay (which runs on first use)
// and reported in instructions-per-mispredict so profile-fed static
// prediction and the hardware schemes — including the history-based
// ones the paper predates — line up on the paper's own axis.
func InstrsPerMispredict(s *Suite) ([]SchemeIPMRow, error) {
	reps, err := s.replays()
	if err != nil {
		return nil, err
	}
	rows := make([]SchemeIPMRow, len(reps))
	for i, rp := range reps {
		p := s.Programs[i]
		row := SchemeIPMRow{Program: p.Workload.Name, Dataset: p.Runs[0].Dataset, Instrs: rp.instrs}
		for _, pr := range rp.preds {
			row.Schemes = append(row.Schemes, schemeIPM(pr, rp.instrs))
		}
		rows[i] = row
	}
	return rows, nil
}

// RenderInstrsPerMispredict formats the zoo comparison.
func RenderInstrsPerMispredict(rows []SchemeIPMRow) string {
	var b strings.Builder
	b.WriteString("Extension: instructions per mispredict, static profile vs predictor zoo\n")
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %-12s", "PROGRAM", "DATASET")
	for _, s := range rows[0].Schemes {
		fmt.Fprintf(&b, " %9s", strings.ToUpper(s.Scheme))
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s", r.Program, r.Dataset)
		for _, s := range r.Schemes {
			if math.IsInf(s.IPM, 1) {
				fmt.Fprintf(&b, " %9s", "∞")
			} else {
				fmt.Fprintf(&b, " %9.0f", s.IPM)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// H2PSite is one hard-to-predict branch in a program's ranking, with
// its source identity, outcome characterization and per-scheme cost.
type H2PSite struct {
	Site      int                    `json:"site"`
	Func      string                 `json:"func"`
	Line      int                    `json:"line"`
	Label     string                 `json:"label"`
	Executed  uint64                 `json:"executed"`
	TakenRate float64                `json:"taken_rate"`
	Entropy   float64                `json:"entropy"`
	MeanRun   float64                `json:"mean_run"`
	MaxRun    uint64                 `json:"max_run"`
	MPKI      []runlength.SchemeMPKI `json:"mpki"`
	// Score is the minimum MPKI across schemes: high means every
	// scheme, static and dynamic, pays for this branch.
	Score float64 `json:"score"`
}

// H2PRow is one program's top-N hard-to-predict branches.
type H2PRow struct {
	Program string    `json:"program"`
	Dataset string    `json:"dataset"`
	Instrs  uint64    `json:"instrs"`
	Top     []H2PSite `json:"top"`
}

// H2PStudy ranks each program's static branches by how expensive they
// stay across every scheme (mispredicts per kilo-instruction, scored
// by the best scheme's cost), following Lin & Tarsa's H2P framing:
// the interesting branches are the ones history does not fix. Costs
// and outcome statistics come from the suite's shared traced replay
// (which runs on first use); the top-n ranking is made per call, so
// any n reads the same replay.
func H2PStudy(s *Suite, n int) ([]H2PRow, error) {
	reps, err := s.replays()
	if err != nil {
		return nil, err
	}
	rows := make([]H2PRow, len(reps))
	for i, rp := range reps {
		p := s.Programs[i]
		rows[i] = H2PRow{Program: p.Workload.Name, Dataset: p.Runs[0].Dataset, Instrs: rp.instrs}
		// A program with no executed branch keeps a nil Top (JSON null).
		if top := rp.H2P(p.Prog.Sites, n); len(top) > 0 {
			rows[i].Top = top
		}
	}
	return rows, nil
}

// RenderH2P formats the per-program rankings.
func RenderH2P(rows []H2PRow) string {
	var b strings.Builder
	b.WriteString("Extension: hard-to-predict branches (score = min MPKI across schemes)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s/%s (%d instrs)\n", r.Program, r.Dataset, r.Instrs)
		if len(r.Top) == 0 {
			b.WriteString("  (no executed branches)\n")
			continue
		}
		fmt.Fprintf(&b, "  %4s %-14s %-10s %9s %6s %7s %8s %7s  %s\n",
			"SITE", "FUNC", "LABEL", "EXECUTED", "TAKEN", "ENTROPY", "MEANRUN", "SCORE", "MPKI BY SCHEME")
		for _, t := range r.Top {
			var mp strings.Builder
			for i, m := range t.MPKI {
				if i > 0 {
					mp.WriteString(" ")
				}
				fmt.Fprintf(&mp, "%s=%.2f", m.Scheme, m.MPKI)
			}
			fmt.Fprintf(&b, "  %4d %-14s %-10s %9d %5.0f%% %7.2f %8.1f %7.2f  %s\n",
				t.Site, t.Func, t.Label, t.Executed, 100*t.TakenRate, t.Entropy, t.MeanRun, t.Score, mp.String())
		}
	}
	return b.String()
}

// RunLengthRow summarizes the break-to-break run-length distribution
// of one run under self prediction.
type RunLengthRow struct {
	Program string
	Dataset string
	Stats   runlength.Stats
	Hist    string
}

// RunLengths summarizes each program's first-dataset run-length
// distribution under the self prediction, read from the suite's
// shared traced replay (which runs on first use).
func RunLengths(s *Suite) ([]RunLengthRow, error) {
	reps, err := s.replays()
	if err != nil {
		return nil, err
	}
	rows := make([]RunLengthRow, len(reps))
	for i, rp := range reps {
		p := s.Programs[i]
		rows[i] = RunLengthRow{
			Program: p.Workload.Name,
			Dataset: p.Runs[0].Dataset,
			Stats:   rp.runs,
			Hist:    rp.hist,
		}
	}
	return rows, nil
}

// RenderRunLengths formats the distribution summary.
func RenderRunLengths(rows []RunLengthRow) string {
	var b strings.Builder
	b.WriteString("Extension: run lengths between breaks (self prediction)\n")
	fmt.Fprintf(&b, "%-12s %-12s %8s %8s %8s %8s %8s %6s\n",
		"PROGRAM", "DATASET", "BREAKS", "MEAN", "MEDIAN", "P90", "P99", "CV")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %8d %8.1f %8.0f %8.0f %8.0f %6.2f\n",
			r.Program, r.Dataset, r.Stats.Count, r.Stats.Mean, r.Stats.Median,
			r.Stats.P90, r.Stats.P99, r.Stats.CV)
	}
	return b.String()
}

// CoverageRow quantifies the paper's "Coverage" conjecture for one
// (predictor dataset, target dataset) pair: the fraction of the
// target's dynamic branches whose site the predictor saw, against the
// prediction quality obtained.
type CoverageRow struct {
	Program   string
	Predictor string
	Target    string
	// Coverage is the fraction of the target's executed branches at
	// sites the predictor dataset also executed.
	Coverage float64
	// PctOfSelf is the predictor's instrs/break as a fraction of the
	// target's self-prediction instrs/break.
	PctOfSelf float64
}

// Coverage computes every cross-dataset pair for multi-dataset
// programs. The paper tried to correlate such measures with predictor
// quality and reported failure ("nothing we tried seemed to correlate
// well"); CoverageCorrelation quantifies that.
// Programs are scored concurrently; each cell appends only to its own
// per-program slice and the slices are flattened in program order, so
// the pair ordering is byte-identical to a serial sweep.
func Coverage(s *Suite) ([]CoverageRow, error) {
	perProg := make([][]CoverageRow, len(s.Programs))
	perr := Engine().Parallel(len(s.Programs), func(pi int) error {
		p := s.Programs[pi]
		if !p.Multi() {
			return nil
		}
		for i, target := range p.Runs {
			self, err := selfPrediction(p, target)
			if err != nil {
				return err
			}
			selfIPB, err := ipb(target, self)
			if err != nil {
				return err
			}
			for j, pred := range p.Runs {
				if i == j {
					continue
				}
				pr, err := predict.FromProfile(pred.Prof, p.Prog.Sites, predict.LoopHeuristic)
				if err != nil {
					return err
				}
				v, err := ipb(target, pr)
				if err != nil {
					return err
				}
				var covered, executed uint64
				for site, n := range target.Prof.Total {
					executed += n
					if pred.Prof.Total[site] > 0 {
						covered += n
					}
				}
				cov := 0.0
				if executed > 0 {
					cov = float64(covered) / float64(executed)
				}
				perProg[pi] = append(perProg[pi], CoverageRow{
					Program:   p.Workload.Name,
					Predictor: pred.Dataset,
					Target:    target.Dataset,
					Coverage:  cov,
					PctOfSelf: pctOf(v, selfIPB),
				})
			}
		}
		return nil
	})
	if perr != nil {
		return nil, perr
	}
	var rows []CoverageRow
	for _, pr := range perProg {
		rows = append(rows, pr...)
	}
	return rows, nil
}

// CoverageCorrelation returns the Pearson correlation between
// coverage and prediction quality across all pairs.
func CoverageCorrelation(rows []CoverageRow) float64 {
	n := float64(len(rows))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, r := range rows {
		sx += r.Coverage
		sy += r.PctOfSelf
		sxx += r.Coverage * r.Coverage
		syy += r.PctOfSelf * r.PctOfSelf
		sxy += r.Coverage * r.PctOfSelf
	}
	num := n*sxy - sx*sy
	den := (n*sxx - sx*sx) * (n*syy - sy*sy)
	if den <= 0 {
		return 0
	}
	return num / math.Sqrt(den)
}

// RenderCoverage formats the coverage study with its correlation.
func RenderCoverage(rows []CoverageRow) string {
	var b strings.Builder
	b.WriteString("Extension: predictor coverage vs prediction quality\n")
	fmt.Fprintf(&b, "%-12s %-12s %-12s %9s %9s\n", "PROGRAM", "PREDICTOR", "TARGET", "COVERAGE", "%OF-SELF")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %-12s %8.1f%% %8.1f%%\n",
			r.Program, r.Predictor, r.Target, 100*r.Coverage, 100*r.PctOfSelf)
	}
	fmt.Fprintf(&b, "Pearson correlation (coverage vs quality): %.3f\n", CoverageCorrelation(rows))
	return b.String()
}
