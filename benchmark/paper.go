package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/exp"
	"branchprof/internal/obs"
	"branchprof/internal/workloads"
)

// paperSHA256 pins the SHA-256 of `go run ./cmd/experiments` stdout
// with no flags. It is the same on the compiled and the interpreter
// backend; a change to any artifact's bytes must update it on purpose.
const paperSHA256 = "bc256509754fe00e12b066acf31ce0f15bebe62bd488855ea9fc22b402fd1347"

// studies are the timed study groups, in report order. "paper" holds
// the artifacts of the paper itself (Table 2, Table 3, Figures 1–3 and
// the comparisons); the rest are the extensions, each its own layer.
var studies = []string{"table1", "inline", "selects", "paper", "dynamic", "ipm", "h2p",
	"runlengths", "coverage", "disagree", "hotsites", "traces"}

// pass is one full pipeline pass: cmd/experiments' output and where
// its wall time went.
type pass struct {
	out     string
	wall    time.Duration
	collect time.Duration
	study   map[string]time.Duration
	eng     engine.Stats
	imgHit  float64
	imgMiss float64
}

// studiesTotal is the summed wall time of the timed study calls.
func (p *pass) studiesTotal() time.Duration {
	var t time.Duration
	for _, d := range p.study {
		t += d
	}
	return t
}

// paperPass renders every artifact cmd/experiments prints with no
// flags, in its order, through eng, timing each layer call. tr (nil
// when untraced) records a span per call under one span per pass.
func paperPass(ctx context.Context, eng *engine.Engine, tr *obs.Tracer, id int) (*pass, error) {
	p := &pass{study: make(map[string]time.Duration, len(studies))}
	root := tr.Start(nil, "paper.pass", obs.A("pass", id))
	defer root.End()
	ctx = obs.ContextWithSpan(ctx, root)
	start := time.Now()
	var b strings.Builder
	step := func(layer string, f func() (string, error)) error {
		sp := tr.Start(root, "exp."+layer, obs.A("pass", id))
		t0 := time.Now()
		s, err := f()
		p.study[layer] += time.Since(t0)
		sp.SetError(err)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", layer, err)
		}
		b.WriteString(s)
		b.WriteByte('\n')
		return nil
	}
	// Table1, InlineAblation and SelectStudy measure through the
	// package engine, as cmd/experiments arranges.
	exp.SetEngine(eng)
	for _, st := range []struct {
		layer string
		f     func() (string, error)
	}{
		{"paper", func() (string, error) { return exp.RenderTable2(exp.Table2()), nil }},
		{"table1", func() (string, error) { r, err := exp.Table1(); return exp.RenderTable1(r), err }},
		{"inline", func() (string, error) { r, err := exp.InlineAblation(); return exp.RenderInlineAblation(r), err }},
		{"selects", func() (string, error) { r, err := exp.SelectStudy(); return exp.RenderSelectStudy(r), err }},
	} {
		if err := step(st.layer, st.f); err != nil {
			return nil, err
		}
	}

	sp := tr.Start(root, "exp.collect", obs.A("pass", id))
	t0 := time.Now()
	s, err := exp.CollectCtx(obs.ContextWithSpan(ctx, sp), eng, exp.CollectOptions{})
	p.collect = time.Since(t0)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}

	for _, st := range []struct {
		layer string
		f     func() (string, error)
	}{
		{"paper", func() (string, error) {
			return exp.RenderFigure1("Figure 1a (FORTRAN/FP)", exp.Figure1(s, workloads.Fortran)), nil
		}},
		{"paper", func() (string, error) {
			return exp.RenderFigure1("Figure 1b (C/Integer)", exp.Figure1(s, workloads.C)), nil
		}},
		{"paper", func() (string, error) { r, err := exp.Table3(s); return exp.RenderTable3(r), err }},
		{"paper", func() (string, error) {
			r, err := exp.Figure2(s, []string{"spice2g6"})
			return exp.RenderFigure2("Figure 2a (spice2g6)", r), err
		}},
		{"paper", func() (string, error) {
			r, err := exp.Figure2(s, exp.CProgramNames(s))
			return exp.RenderFigure2("Figure 2b (C/Integer)", r), err
		}},
		{"paper", func() (string, error) {
			r, err := exp.Figure3(s, []string{"spice2g6"})
			return exp.RenderFigure3("Figure 3a (spice2g6)", r), err
		}},
		{"paper", func() (string, error) {
			r, err := exp.Figure3(s, exp.CProgramNames(s))
			return exp.RenderFigure3("Figure 3b (C/Integer)", r), err
		}},
		{"paper", func() (string, error) { return exp.RenderTaken(exp.TakenConstancy(s)), nil }},
		{"paper", func() (string, error) { r, err := exp.CombinedComparison(s); return exp.RenderCombined(r), err }},
		{"paper", func() (string, error) { r, err := exp.HeuristicComparison(s); return exp.RenderHeuristic(r), err }},
		{"paper", func() (string, error) { r, err := exp.Motivation(s); return exp.RenderMotivation(r), err }},
		{"paper", func() (string, error) { r, err := exp.CrossMode(s); return exp.RenderCrossMode(r), err }},
		{"dynamic", func() (string, error) { r, err := exp.StaticVsDynamic(s); return exp.RenderStaticVsDynamic(r), err }},
		{"ipm", func() (string, error) {
			r, err := exp.InstrsPerMispredict(s)
			return exp.RenderInstrsPerMispredict(r), err
		}},
		{"h2p", func() (string, error) { r, err := exp.H2PStudy(s, 5); return exp.RenderH2P(r), err }},
		{"runlengths", func() (string, error) { r, err := exp.RunLengths(s); return exp.RenderRunLengths(r), err }},
		{"coverage", func() (string, error) { r, err := exp.Coverage(s); return exp.RenderCoverage(r), err }},
		{"disagree", func() (string, error) { r, err := exp.DisagreementStudy(s); return exp.RenderDisagreement(r), err }},
		{"hotsites", func() (string, error) { r, err := exp.HotSites(s, 3); return exp.RenderHotSites(r), err }},
		{"traces", func() (string, error) { r, err := exp.TraceStudy(s); return exp.RenderTraceStudy(r), err }},
	} {
		if err := step(st.layer, st.f); err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(start)
	p.out = b.String()
	p.eng = eng.Stats()
	gauges := promValues(eng.Registry())
	p.imgHit, p.imgMiss = gauges["branchprof_engine_image_hits"], gauges["branchprof_engine_image_misses"]
	return p, nil
}

// promValues parses a registry's Prometheus text into series → value.
func promValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf) //nolint:errcheck // writes to a bytes.Buffer
	return parseProm(buf.Bytes())
}

// parseProm reads Prometheus text exposition lines ("series value").
func parseProm(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// fillCache runs every cacheable part of a pass — Table 1, the
// inlining and select studies, and the matrix collection — through a
// fresh engine over the cache directory dir.
func fillCache(ctx context.Context, dir string) error {
	eng := engine.New(engine.Options{CacheDir: dir})
	exp.SetEngine(eng)
	if _, err := exp.Table1(); err != nil {
		return err
	}
	if _, err := exp.InlineAblation(); err != nil {
		return err
	}
	if _, err := exp.SelectStudy(); err != nil {
		return err
	}
	_, err := exp.CollectCtx(ctx, eng, exp.CollectOptions{})
	return err
}

// runPaper runs paper-cold (warm=false) or paper-warm (warm=true).
//
// Setup fills a fresh cache directory with every cacheable result,
// three times: paper-warm's window reads the last one, and for
// paper-cold it is the process's warm-up. Each timed pass builds a
// fresh engine — and installs it with exp.SetEngine — so no in-memory
// cache survives between passes; paper-cold also gives each pass a
// fresh, empty cache directory.
func runPaper(ctx context.Context, h *harness, warm bool) error {
	var setup []time.Duration
	cacheDir := ""
	for r := 0; r < h.cfg.setupReps; r++ {
		var dir string
		d, err := timed(func() error {
			var err error
			if dir, err = os.MkdirTemp("", "paper-cache-*"); err != nil {
				return err
			}
			return fillCache(ctx, dir)
		})
		if cacheDir != "" {
			os.RemoveAll(cacheDir)
		}
		cacheDir = dir
		if err != nil {
			os.RemoveAll(cacheDir)
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, d)
	}
	defer os.RemoveAll(cacheDir)
	if !warm {
		os.RemoveAll(cacheDir)
	}

	measure := func(tr *obs.Tracer) (*window, []*pass) {
		w := &window{unit: "pipeline passes", sliceUnit: "one pass"}
		var passes []*pass
		alloc0 := totalAllocMB()
		start := time.Now()
		for id := 0; time.Since(start) < h.cfg.window; id++ {
			dir := cacheDir
			if !warm {
				var err error
				if dir, err = os.MkdirTemp("", "paper-cache-*"); err != nil {
					h.check("cache-dir", false, err.Error())
					break
				}
			}
			eng := engine.New(engine.Options{CacheDir: dir, Obs: &obs.Obs{Tr: tr}})
			t0 := time.Now()
			p, err := paperPass(ctx, eng, tr, id)
			d := time.Since(t0)
			w.lat = append(w.lat, d)
			if !warm {
				os.RemoveAll(dir)
			}
			if err == nil && digest(p.out) != h.cfg.paperSHA256 {
				err = errors.New("SHA-256 differs from the pinned cmd/experiments output")
			}
			if err != nil {
				w.failedIdx = append(w.failedIdx, len(w.lat)-1)
				w.slices = append(w.slices, slice{lat: []float64{math.Inf(1)}, dur: d})
				h.check(fmt.Sprintf("pass[%d]", id), false, err.Error())
				break
			}
			w.slices = append(w.slices, slice{lat: ms([]time.Duration{d}), completed: 1, dur: d})
			p.out = ""
			passes = append(passes, p)
		}
		w.elapsed = time.Since(start)
		w.allocMB = totalAllocMB() - alloc0
		w.heapMB = heapRetainedMB()
		h.ops(int64(len(w.lat)), int64(len(w.failedIdx)))
		return w, passes
	}

	h.section("end to end (untraced window)")
	w, passes := measure(nil)
	h.endToEnd(setup, w)
	h.check("output", len(w.failedIdx) == 0 && len(w.lat) > 0,
		fmt.Sprintf("%d/%d passes matched SHA-256 %.12s…", len(passes), len(w.lat), h.cfg.paperSHA256))
	h.paperBreakdown(passes, false)
	if !h.cfg.trace {
		return nil
	}

	h.section("per layer (traced window)")
	tw, tpasses := measure(h.tr)
	h.traceOverhead(w, tw)
	h.paperBreakdown(tpasses, true)
	h.engineLayers(engineTotals(tpasses), float64(len(tpasses)), tw.elapsed)
	return nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// paperBreakdown reports where the passes' wall time went. The medians
// are per pass; exp.other_s is wall time outside every timed call
// (engine construction, SetEngine, output assembly).
func (h *harness) paperBreakdown(passes []*pass, layers bool) {
	if len(passes) == 0 {
		return
	}
	col := func(f func(p *pass) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	wall := col(func(p *pass) float64 { return p.wall.Seconds() })
	q1, q2, q3 := quartiles(wall)
	n := fmt.Sprintf("median of n=%d passes", len(passes))
	h.info("pipeline_s", q2, "s", fmt.Sprintf("%s (q1 %.4g, q3 %.4g)", n, q1, q3))
	h.info("pipeline_s.each", q2, "s", fmt.Sprintf("%.4v", wall))
	collect := median(col(func(p *pass) float64 { return p.collect.Seconds() }))
	studiesS := median(col(func(p *pass) float64 { return p.studiesTotal().Seconds() }))
	other := median(col(func(p *pass) float64 { return (p.wall - p.collect - p.studiesTotal()).Seconds() }))
	h.info("exp.collect_s", collect, "s", n)
	for _, st := range studies {
		v := median(col(func(p *pass) float64 { return p.study[st].Seconds() }))
		h.info("exp.study."+st+"_s", v, "s", n)
		if layers {
			h.layerMetric("exp.study."+st+"_frac", ratio(v, q2), "frac", "share of pipeline_s")
		}
	}
	h.info("exp.studies_s", studiesS, "s", n)
	h.info("exp.other_s", other, "s", fmt.Sprintf("%s; %.2f%% of pipeline_s (must stay within 5%%)", n, 100*ratio(other, q2)))
	if layers {
		h.layerMetric("exp.collect_frac", ratio(collect, q2), "frac", "share of pipeline_s")
		h.layerMetric("exp.studies_frac", ratio(studiesS, q2), "frac", "share of pipeline_s")
		h.layerMetric("exp.other_frac", ratio(other, q2), "frac", "share of pipeline_s")
		h.check("exp.other_s", ratio(other, q2) <= 0.05,
			fmt.Sprintf("%.2f%% of pipeline_s", 100*ratio(other, q2)))
	}
}

// engineTotals sums the engine counters of several passes.
func engineTotals(passes []*pass) engineSample {
	var t engineSample
	for _, p := range passes {
		t.add(p.eng, p.imgHit, p.imgMiss)
	}
	return t
}
