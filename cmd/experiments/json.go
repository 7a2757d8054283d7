package main

import (
	"context"
	"fmt"
	"os"

	"branchprof/cmd/internal/cli"
	"branchprof/internal/exp"
	"branchprof/internal/workloads"
)

// emitJSON regenerates every artifact and writes one JSON document to
// stdout, for downstream tooling (plotting, regression tracking).
// Under -allow-partial a degraded suite still emits every artifact its
// surviving cells support; the document then carries a "coverage" key
// describing the missing cells and a "skipped_artifacts" list.
func emitJSON(ctx context.Context, t *cli.Tool) error {
	out := make(map[string]any)
	var skipped []string
	// put records one artifact, or — under -allow-partial — drops it
	// with a note when its inputs are missing from a degraded suite.
	put := func(key string, rows any, err error) error {
		if err != nil {
			if t.AllowPartial() {
				skipped = append(skipped, fmt.Sprintf("%s: %v", key, err))
				return nil
			}
			return err
		}
		out[key] = rows
		return nil
	}

	t1, err := exp.Table1Ctx(ctx)
	if err := put("table1_dead_code", t1, err); err != nil {
		return err
	}
	out["table2_inventory"] = exp.Table2()

	inl, err := exp.InlineAblationCtx(ctx)
	if err := put("ext_inline_ablation", inl, err); err != nil {
		return err
	}

	sel, err := exp.SelectStudyCtx(ctx)
	if err := put("ext_select_study", sel, err); err != nil {
		return err
	}

	s, err := exp.CollectCtx(ctx, t.Engine(), exp.CollectOptions{AllowPartial: t.AllowPartial()})
	if err != nil {
		return err
	}
	if s.Partial() {
		out["coverage"] = map[string]any{
			"summary": s.CoverageSummary().String(),
			"cells":   s.CoverageSummary(),
			"errors":  errorStrings(s),
		}
	}

	t3, err := exp.Table3(s)
	if err := put("table3_fortran_instrs_per_break", t3, err); err != nil {
		return err
	}
	out["figure1a_fortran"] = exp.Figure1(s, workloads.Fortran)
	out["figure1b_c"] = exp.Figure1(s, workloads.C)

	f2a, err := exp.Figure2(s, []string{"spice2g6"})
	if err := put("figure2a_spice", f2a, err); err != nil {
		return err
	}
	f2b, err := exp.Figure2(s, exp.CProgramNames(s))
	if err := put("figure2b_c", f2b, err); err != nil {
		return err
	}

	f3a, err := exp.Figure3(s, []string{"spice2g6"})
	if err := put("figure3a_spice", f3a, err); err != nil {
		return err
	}
	f3b, err := exp.Figure3(s, exp.CProgramNames(s))
	if err := put("figure3b_c", f3b, err); err != nil {
		return err
	}

	out["taken_constancy"] = exp.TakenConstancy(s)

	comb, err := exp.CombinedComparison(s)
	if err := put("combined_modes", comb, err); err != nil {
		return err
	}

	heur, err := exp.HeuristicComparison(s)
	if err := put("heuristics", heur, err); err != nil {
		return err
	}

	mot, err := exp.Motivation(s)
	if err := put("motivation_fpppp_vs_li", mot, err); err != nil {
		return err
	}

	cm, err := exp.CrossMode(s)
	if err := put("crossmode_compress", cm, err); err != nil {
		return err
	}

	dyn, err := exp.StaticVsDynamic(s)
	if err := put("ext_static_vs_dynamic", dyn, err); err != nil {
		return err
	}

	ipm, err := exp.InstrsPerMispredict(s)
	if err := put("ext_instrs_per_mispredict", ipm, err); err != nil {
		return err
	}

	h2p, err := exp.H2PStudy(s, 5)
	if err := put("ext_h2p", h2p, err); err != nil {
		return err
	}

	rl, err := exp.RunLengths(s)
	if err != nil {
		if err := put("ext_run_lengths", nil, err); err != nil {
			return err
		}
	} else {
		// Histograms are bulky text; strip them for the JSON form.
		type rlRow struct {
			Program string
			Dataset string
			Stats   any
		}
		slim := make([]rlRow, len(rl))
		for i, r := range rl {
			slim[i] = rlRow{Program: r.Program, Dataset: r.Dataset, Stats: r.Stats}
		}
		out["ext_run_lengths"] = slim
	}

	cov, err := exp.Coverage(s)
	if err := put("ext_coverage", map[string]any{
		"pairs":     cov,
		"pearson_r": exp.CoverageCorrelation(cov),
	}, err); err != nil {
		return err
	}

	dis, err := exp.DisagreementStudy(s)
	if err := put("ext_disagreement", dis, err); err != nil {
		return err
	}

	hot, err := exp.HotSites(s, 3)
	if err := put("diag_hot_sites", hot, err); err != nil {
		return err
	}

	tr, err := exp.TraceStudy(s)
	if err := put("ext_trace_selection", tr, err); err != nil {
		return err
	}

	if len(skipped) > 0 {
		out["skipped_artifacts"] = skipped
	}

	// A degraded or zero-branch suite can put +Inf/NaN into the rows
	// (e.g. InstrsPerBreak with no breaks); EncodeSafe renders healthy
	// documents byte-identically and re-encodes only when needed.
	if err := exp.EncodeSafe(os.Stdout, out, "  "); err != nil {
		return fmt.Errorf("encoding: %w", err)
	}
	return nil
}

func errorStrings(s *exp.Suite) []string {
	var out []string
	for _, ce := range s.Errors {
		out = append(out, ce.Error())
	}
	return out
}
