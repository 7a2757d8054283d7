// Command experiments regenerates every table and figure from Fisher
// & Freudenberger (ASPLOS 1992) on the simulated substrate. With no
// flags it prints everything; individual flags select single
// artifacts. All measurement routes through the shared engine, so
// -cache-dir makes repeated regenerations serve the compile→run→
// profile work from the persistent cache, and -stats reports the
// per-stage pipeline costs.
package main

import (
	"flag"
	"fmt"
	"os"

	"branchprof/cmd/internal/cli"
	"branchprof/internal/exp"
	"branchprof/internal/workloads"
)

func main() {
	t := cli.New("experiments")
	var (
		table1     = flag.Bool("table1", false, "Table 1: dynamically dead code")
		table2     = flag.Bool("table2", false, "Table 2: program sample base")
		table3     = flag.Bool("table3", false, "Table 3: FORTRAN instrs/break")
		fig1a      = flag.Bool("fig1a", false, "Figure 1a: unpredicted breaks, FORTRAN")
		fig1b      = flag.Bool("fig1b", false, "Figure 1b: unpredicted breaks, C")
		fig2a      = flag.Bool("fig2a", false, "Figure 2a: predicted breaks, spice2g6")
		fig2b      = flag.Bool("fig2b", false, "Figure 2b: predicted breaks, C programs")
		fig3a      = flag.Bool("fig3a", false, "Figure 3a: best/worst predictors, spice2g6")
		fig3b      = flag.Bool("fig3b", false, "Figure 3b: best/worst predictors, C programs")
		taken      = flag.Bool("taken", false, "percent-taken constancy")
		combined   = flag.Bool("combined", false, "scaled vs unscaled vs polling")
		heuristic  = flag.Bool("heuristic", false, "profile feedback vs heuristics")
		motivation = flag.Bool("motivation", false, "fpppp vs li percent-correct contrast")
		crossmode  = flag.Bool("crossmode", false, "compress vs uncompress cross-prediction")
		dynamic    = flag.Bool("dynamic", false, "extension: static vs dynamic predictor zoo")
		ipm        = flag.Bool("ipm", false, "extension: instructions per mispredict by scheme")
		h2p        = flag.Bool("h2p", false, "extension: hard-to-predict branch ranking")
		h2pN       = flag.Int("h2p-n", 5, "top-N branches per program for -h2p")
		runlens    = flag.Bool("runlengths", false, "extension: run-length distribution between breaks")
		coverage   = flag.Bool("coverage", false, "extension: predictor coverage vs quality")
		inline     = flag.Bool("inline", false, "extension: inlining ablation")
		selects    = flag.Bool("selects", false, "extension: if-conversion to selects")
		disagree   = flag.Bool("disagree", false, "extension: why worst predictors fail (coverage conjecture)")
		hotsites   = flag.Bool("hotsites", false, "diagnostic: hottest mispredicting branches")
		traces     = flag.Bool("traces", false, "extension: trace-selection lengths (block vs heuristic vs profile)")
		chart      = flag.Bool("chart", false, "render figures as bar charts instead of tables")
		jsonOut    = flag.Bool("json", false, "emit every artifact as one JSON document")
	)
	flag.Parse()
	exp.SetEngine(t.Engine())
	// The context (and with it -timeout, the first-SIGINT cancel and the
	// root trace span) covers every artifact, not just the collection.
	ctx := t.Context()

	if *jsonOut {
		if err := emitJSON(ctx, t); err != nil {
			t.Fatal(err)
		}
		t.Finish()
		return
	}

	any := *table1 || *table2 || *table3 || *fig1a || *fig1b || *fig2a || *fig2b ||
		*fig3a || *fig3b || *taken || *combined || *heuristic || *motivation || *crossmode ||
		*dynamic || *ipm || *h2p || *runlens || *coverage || *inline || *selects || *disagree || *hotsites || *traces
	all := !any

	fail := func(err error) {
		t.Fatal(err)
	}
	// emit prints one artifact, or — under -allow-partial — skips it
	// with a note when its inputs are missing from a degraded suite.
	emit := func(err error, render func() string) {
		if err != nil {
			if t.AllowPartial() {
				fmt.Fprintln(os.Stderr, "experiments: degraded: skipping artifact:", err)
				return
			}
			fail(err)
		}
		fmt.Println(render())
	}

	if all || *table2 {
		fmt.Println(exp.RenderTable2(exp.Table2()))
	}
	if all || *table1 {
		rows, err := exp.Table1Ctx(ctx)
		emit(err, func() string { return exp.RenderTable1(rows) })
	}
	if all || *inline {
		rows, err := exp.InlineAblationCtx(ctx)
		emit(err, func() string { return exp.RenderInlineAblation(rows) })
	}
	if all || *selects {
		rows, err := exp.SelectStudyCtx(ctx)
		emit(err, func() string { return exp.RenderSelectStudy(rows) })
	}

	needSuite := all || *table3 || *fig1a || *fig1b || *fig2a || *fig2b || *fig3a ||
		*fig3b || *taken || *combined || *heuristic || *motivation || *crossmode ||
		*dynamic || *ipm || *h2p || *runlens || *coverage || *disagree || *hotsites || *traces
	if !needSuite {
		t.Finish()
		return
	}
	s, err := exp.CollectCtx(ctx, t.Engine(), exp.CollectOptions{AllowPartial: t.AllowPartial()})
	if err != nil {
		fail(err)
	}
	if s.Partial() {
		fmt.Println(exp.RenderCoverageSummary(s))
	}

	renderFig1 := exp.RenderFigure1
	if *chart {
		renderFig1 = exp.ChartFigure1
	}
	if all || *fig1a {
		fmt.Println(renderFig1("Figure 1a (FORTRAN/FP)", exp.Figure1(s, workloads.Fortran)))
	}
	if all || *fig1b {
		fmt.Println(renderFig1("Figure 1b (C/Integer)", exp.Figure1(s, workloads.C)))
	}
	if all || *table3 {
		rows, err := exp.Table3(s)
		emit(err, func() string { return exp.RenderTable3(rows) })
	}
	renderFig2 := exp.RenderFigure2
	if *chart {
		renderFig2 = exp.ChartFigure2
	}
	if all || *fig2a {
		rows, err := exp.Figure2(s, []string{"spice2g6"})
		emit(err, func() string { return renderFig2("Figure 2a (spice2g6)", rows) })
	}
	if all || *fig2b {
		rows, err := exp.Figure2(s, exp.CProgramNames(s))
		emit(err, func() string { return renderFig2("Figure 2b (C/Integer)", rows) })
	}
	renderFig3 := exp.RenderFigure3
	if *chart {
		renderFig3 = exp.ChartFigure3
	}
	if all || *fig3a {
		rows, err := exp.Figure3(s, []string{"spice2g6"})
		emit(err, func() string { return renderFig3("Figure 3a (spice2g6)", rows) })
	}
	if all || *fig3b {
		rows, err := exp.Figure3(s, exp.CProgramNames(s))
		emit(err, func() string { return renderFig3("Figure 3b (C/Integer)", rows) })
	}
	if all || *taken {
		fmt.Println(exp.RenderTaken(exp.TakenConstancy(s)))
	}
	if all || *combined {
		rows, err := exp.CombinedComparison(s)
		emit(err, func() string { return exp.RenderCombined(rows) })
	}
	if all || *heuristic {
		rows, err := exp.HeuristicComparison(s)
		emit(err, func() string { return exp.RenderHeuristic(rows) })
	}
	if all || *motivation {
		rows, err := exp.Motivation(s)
		emit(err, func() string { return exp.RenderMotivation(rows) })
	}
	if all || *crossmode {
		rows, err := exp.CrossMode(s)
		emit(err, func() string { return exp.RenderCrossMode(rows) })
	}
	if all || *dynamic {
		rows, err := exp.StaticVsDynamic(s)
		emit(err, func() string { return exp.RenderStaticVsDynamic(rows) })
	}
	if all || *ipm {
		rows, err := exp.InstrsPerMispredict(s)
		emit(err, func() string { return exp.RenderInstrsPerMispredict(rows) })
	}
	if all || *h2p {
		rows, err := exp.H2PStudy(s, *h2pN)
		emit(err, func() string { return exp.RenderH2P(rows) })
	}
	if all || *runlens {
		rows, err := exp.RunLengths(s)
		emit(err, func() string { return exp.RenderRunLengths(rows) })
	}
	if all || *coverage {
		rows, err := exp.Coverage(s)
		emit(err, func() string { return exp.RenderCoverage(rows) })
	}
	if all || *disagree {
		rows, err := exp.DisagreementStudy(s)
		emit(err, func() string { return exp.RenderDisagreement(rows) })
	}
	if all || *hotsites {
		rows, err := exp.HotSites(s, 3)
		emit(err, func() string { return exp.RenderHotSites(rows) })
	}
	if all || *traces {
		rows, err := exp.TraceStudy(s)
		emit(err, func() string { return exp.RenderTraceStudy(rows) })
	}
	t.Finish()
}
