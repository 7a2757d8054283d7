package exp

import (
	"fmt"
	"strings"

	"branchprof/internal/cfg"
	"branchprof/internal/engine"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
)

// TraceRow measures what the predictions are *for*: the traces a
// Fisher-style trace-scheduling compiler would select. For each
// program's first dataset it reports the execution-weighted mean
// trace length in instructions under three regimes:
//
//   - Block: no trace growth at all (basic blocks only) — the
//     paper's "A compiler trying to extract ILP from blocks this size
//     might have a difficult time";
//   - Heuristic: traces grown along the loop/non-loop heuristic's
//     predicted directions;
//   - Profile: traces grown along the measured edge weights (what
//     feedback-directed trace selection sees).
type TraceRow struct {
	Program   string
	Dataset   string
	Block     float64
	Heuristic float64
	Profile   float64
}

// TraceStudy rebuilds every function's CFG from the compiled code,
// attaches the run's exact counts, and runs trace selection under
// each regime. Programs are measured concurrently with preassigned
// row slots, so the table order matches a serial pass exactly.
func TraceStudy(s *Suite) ([]TraceRow, error) {
	rows := make([]TraceRow, len(s.Programs))
	eng := Engine()
	perr := eng.Parallel(len(s.Programs), func(pi int) error {
		p := s.Programs[pi]
		first := p.Runs[0]
		out, err := eng.Execute(engine.Spec{
			Name: p.Workload.Name, Source: p.Workload.Source,
			Dataset: first.Dataset, Input: p.InputFor(first),
			Config: vm.Config{PerPC: true},
		})
		if err != nil {
			return fmt.Errorf("exp: trace study measuring %s: %w", p.Workload.Name, err)
		}
		res := out.Res
		heurDirs := predict.FromHeuristic(p.Prog.Sites, predict.LoopHeuristic).TakenTable()

		var blockNum, blockDen float64
		var heurTraces, profTraces []cfg.Trace
		for fi := range p.Prog.Funcs {
			g, err := cfg.Build(p.Prog, fi)
			if err != nil {
				return err
			}
			g.AttachRunCounts(p.Prog, fi, res.PerPC[fi], res.SiteTaken, res.SiteTotal)
			for _, b := range g.Blocks {
				blockNum += float64(b.Count) * float64(b.Instrs())
				blockDen += float64(b.Count)
			}
			profTraces = append(profTraces, g.SelectTraces()...)

			// Re-weight the same graph with heuristic directions.
			g.AttachPrediction(p.Prog, fi, heurDirs)
			heurTraces = append(heurTraces, g.SelectTraces()...)
		}
		row := TraceRow{Program: p.Workload.Name, Dataset: first.Dataset}
		if blockDen > 0 {
			row.Block = blockNum / blockDen
		}
		row.Heuristic = cfg.WeightedMeanLength(heurTraces)
		row.Profile = cfg.WeightedMeanLength(profTraces)
		rows[pi] = row
		return nil
	})
	if perr != nil {
		return nil, perr
	}
	return rows, nil
}

// RenderTraceStudy formats the study.
func RenderTraceStudy(rows []TraceRow) string {
	var b strings.Builder
	b.WriteString("Extension: trace selection — weighted mean trace length (instructions)\n")
	fmt.Fprintf(&b, "%-12s %-12s %10s %10s %10s %8s\n",
		"PROGRAM", "DATASET", "BLOCK", "HEURISTIC", "PROFILE", "GAIN")
	for _, r := range rows {
		gain := 0.0
		if r.Block > 0 {
			gain = r.Profile / r.Block
		}
		fmt.Fprintf(&b, "%-12s %-12s %10.1f %10.1f %10.1f %7.1fx\n",
			r.Program, r.Dataset, r.Block, r.Heuristic, r.Profile, gain)
	}
	return b.String()
}
