package exp

import (
	"context"
	"fmt"
	"strings"

	"branchprof/internal/isa"
	"branchprof/internal/mfc"
	"branchprof/internal/vm"
)

// SelectRow quantifies footnote 2 of the paper: when the compiler
// if-converts simple ifs into select instructions, what fraction of
// executed instructions are selects ("typically less than 0.2%,
// sometimes up to 0.3%, and in one case 0.7%"), and how many static
// branch sites disappear.
type SelectRow struct {
	Program     string
	Dataset     string
	SelectPct   float64 // selects / executed instructions
	SitesPlain  int
	SitesSelect int
	BranchesCut float64 // fraction of executed branches removed
}

// SelectStudy compiles each workload with if-conversion and measures
// its first dataset.
func SelectStudy() ([]SelectRow, error) {
	return SelectStudyCtx(context.Background())
}

// SelectStudyCtx is SelectStudy honouring ctx: its measurements run
// concurrently on the engine pool and unwind promptly once ctx is
// cancelled.
func SelectStudyCtx(ctx context.Context) ([]SelectRow, error) {
	pairs, err := measureVariants(ctx, variant{
		study: "select study", tag: "selects",
		options: mfc.Options{UseSelects: true}, config: vm.Config{PerPC: true},
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SelectRow, 0, len(pairs))
	for _, p := range pairs {
		plain, sel := p.plain, p.variant
		var selects uint64
		for fi := range sel.Prog.Funcs {
			for pc, in := range sel.Prog.Funcs[fi].Code {
				if in.Op == isa.OpSel || in.Op == isa.OpFSel {
					selects += sel.Res.PerPC[fi][pc]
				}
			}
		}
		row := SelectRow{
			Program: p.w.Name, Dataset: p.w.Datasets[0].Name,
			SitesPlain:  len(plain.Prog.Sites),
			SitesSelect: len(sel.Prog.Sites),
		}
		if sel.Res.Instrs > 0 {
			row.SelectPct = float64(selects) / float64(sel.Res.Instrs)
		}
		if pb := plain.Res.CondBranches(); pb > 0 {
			row.BranchesCut = 1 - float64(sel.Res.CondBranches())/float64(pb)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSelectStudy formats the study.
func RenderSelectStudy(rows []SelectRow) string {
	var b strings.Builder
	b.WriteString("Extension: if-conversion to selects (paper footnote 2)\n")
	fmt.Fprintf(&b, "%-12s %-12s %9s %10s %11s %12s\n",
		"PROGRAM", "DATASET", "SELECT%", "SITES", "SITES-SEL", "BRANCHES-CUT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %8.2f%% %10d %11d %11.1f%%\n",
			r.Program, r.Dataset, 100*r.SelectPct, r.SitesPlain, r.SitesSelect, 100*r.BranchesCut)
	}
	return b.String()
}
