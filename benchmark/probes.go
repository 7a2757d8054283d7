package main

import (
	"fmt"
	"time"

	"branchprof/internal/dynpred"
	"branchprof/internal/ifprob"
	"branchprof/internal/isa"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

// The layer probes time calls into the compiler, the VM backends, the
// dynamic predictors and the predict layer on fixed inputs — the 15
// paper programs and their datasets — independent of the workload, so
// a traced run can name the layer behind a moved end-to-end number
// even where a workload's own traffic cannot isolate it.

// probeReps is how many times the short probes repeat; they report
// the median.
const probeReps = 5

// probeProgram is one paper program compiled for the probes.
type probeProgram struct {
	w     *workloads.Workload
	prog  *isa.Program
	im    *vm.Image
	input []byte // the program's first dataset
}

func runProbes(h *harness) error {
	h.section("layer probes (fixed inputs, the same on every workload)")
	all := workloads.All()
	probes := make([]*probeProgram, len(all))

	var compileMS []float64
	for r := 0; r < probeReps; r++ {
		sp := h.tr.Start(nil, "probe.mfc.compile_all")
		d, err := timed(func() error {
			for i, w := range all {
				prog, err := mfc.Compile(w.Name, w.Source, mfc.Options{})
				if err != nil {
					return fmt.Errorf("compiling %s: %w", w.Name, err)
				}
				probes[i] = &probeProgram{w: w, prog: prog}
			}
			return nil
		})
		sp.End()
		if err != nil {
			return err
		}
		compileMS = append(compileMS, ms([]time.Duration{d})[0])
	}
	h.layerMetric("mfc.compile_all_ms", median(compileMS), "ms",
		fmt.Sprintf("mfc.Compile of all %d programs, median of %d", len(all), probeReps))

	var loadMS []float64
	for r := 0; r < probeReps; r++ {
		sp := h.tr.Start(nil, "probe.vm.load_all")
		d, _ := timed(func() error {
			for _, p := range probes {
				p.im = vm.Load(p.prog)
			}
			return nil
		})
		sp.End()
		loadMS = append(loadMS, ms([]time.Duration{d})[0])
	}
	h.layerMetric("vm.load_all_ms", median(loadMS), "ms",
		fmt.Sprintf("vm.Load of all %d programs, median of %d", len(all), probeReps))
	for _, p := range probes {
		p.input = p.w.Datasets[0].Gen()
	}

	// One run of every program's first dataset per backend, split by
	// the paper's two program classes.
	type classRun struct {
		instrs [2]float64
		busy   [2]time.Duration
	}
	runAll := func(name string, cfg func(p *probeProgram) *vm.Config) (classRun, error) {
		var cr classRun
		sp := h.tr.Start(nil, "probe.vm."+name)
		defer sp.End()
		for _, p := range probes {
			var res *vm.Result
			d, err := timed(func() error {
				var err error
				res, err = p.im.Run(p.input, cfg(p))
				return err
			})
			if err != nil {
				return cr, fmt.Errorf("%s run of %s: %w", name, p.w.Name, err)
			}
			cr.instrs[p.w.Lang] += float64(res.Instrs)
			cr.busy[p.w.Lang] += d
		}
		return cr, nil
	}
	plain := func(*probeProgram) *vm.Config { return nil }
	codegen, err := runAll("codegen", plain)
	if err != nil {
		return err
	}
	prev := vm.SetCompiledEnabled(false)
	interp, err := runAll("interp", plain)
	vm.SetCompiledEnabled(prev)
	if err != nil {
		return err
	}
	traced, err := runAll("traced", func(p *probeProgram) *vm.Config {
		return &vm.Config{Trace: &dynpred.Multi{Predictors: dynpred.Zoo(len(p.prog.Sites))}}
	})
	if err != nil {
		return err
	}
	rate := func(instrs float64, d time.Duration) float64 { return ratio(instrs/1e6, d.Seconds()) }
	for _, b := range []struct {
		name string
		cr   classRun
	}{{"codegen", codegen}, {"interp", interp}} {
		for lang, class := range []string{"fortran", "c"} {
			h.layerMetric(fmt.Sprintf("vm.%s_minstrs_per_s.%s", b.name, class), rate(b.cr.instrs[lang], b.cr.busy[lang]), "Minstr/s",
				fmt.Sprintf("%.0f Minstr in %.3fs", b.cr.instrs[lang]/1e6, b.cr.busy[lang].Seconds()))
		}
		total := b.cr.busy[0] + b.cr.busy[1]
		h.layerMetric("vm.collect_"+b.name+"_s", total.Seconds(), "s", "one run of every program's first dataset")
	}
	tInstrs, tBusy := traced.instrs[0]+traced.instrs[1], traced.busy[0]+traced.busy[1]
	h.layerMetric("vm.traced_minstrs_per_s", rate(tInstrs, tBusy), "Minstr/s",
		fmt.Sprintf("default backend with the predictor zoo attached; %.0f Minstr in %.3fs", tInstrs/1e6, tBusy.Seconds()))

	if err := probeDynpred(h, probes); err != nil {
		return err
	}
	return probePredict(h, probes)
}

// recorder captures a run's branch stream, up to max events.
type recorder struct {
	events []uint32 // site<<1 | taken
	max    int
}

func (r *recorder) Branch(site int32, taken bool, _ uint64) {
	if len(r.events) < r.max {
		e := uint32(site) << 1
		if taken {
			e |= 1
		}
		r.events = append(r.events, e)
	}
}

func (r *recorder) Transfer(vm.TransferKind, uint64) {}

// probeDynpred replays recorded branch streams of the C programs into
// a fresh predictor zoo, timing the predictors alone.
func probeDynpred(h *harness, probes []*probeProgram) error {
	type stream struct {
		sites  int
		events []uint32
	}
	var streams []stream
	events := 0
	for _, p := range probes {
		if p.w.Lang != workloads.C {
			continue
		}
		rec := &recorder{max: 1 << 18}
		if _, err := p.im.Run(p.input, &vm.Config{Trace: rec}); err != nil {
			return fmt.Errorf("recording %s: %w", p.w.Name, err)
		}
		streams = append(streams, stream{sites: len(p.prog.Sites), events: rec.events})
		events += len(rec.events)
	}
	var rates []float64
	decisions := 0
	for r := 0; r < probeReps; r++ {
		sp := h.tr.Start(nil, "probe.dynpred.replay")
		decisions = 0
		d, _ := timed(func() error {
			for _, s := range streams {
				zoo := dynpred.Zoo(s.sites)
				for _, e := range s.events {
					for _, p := range zoo {
						p.Branch(int32(e>>1), e&1 == 1, 0)
					}
				}
				decisions += len(s.events) * len(zoo)
			}
			return nil
		})
		sp.End()
		rates = append(rates, ratio(float64(decisions), d.Seconds()))
	}
	h.layerMetric("dynpred.decisions_per_s", median(rates), "1/s",
		fmt.Sprintf("%d predictions per replay (%d branches × zoo), median of %d", decisions, events, probeReps))
	return nil
}

// probePredict times leave-one-out prediction (predict.Combine then
// predict.Evaluate) over every dataset of the C programs that have
// several.
func probePredict(h *harness, probes []*probeProgram) error {
	type progProfiles struct {
		sites []isa.BranchSite
		profs []*ifprob.Profile
	}
	var sets []progProfiles
	for _, p := range probes {
		if p.w.Lang != workloads.C || !p.w.MultiDataset() {
			continue
		}
		set := progProfiles{sites: p.prog.Sites}
		for _, ds := range p.w.Datasets {
			res, err := p.im.Run(ds.Gen(), nil)
			if err != nil {
				return fmt.Errorf("profiling %s/%s: %w", p.w.Name, ds.Name, err)
			}
			set.profs = append(set.profs, ifprob.FromRun(p.w.Name, ds.Name, res))
		}
		sets = append(sets, set)
	}
	const passes = 20
	var passMS []float64
	evals := 0
	for r := 0; r < passes; r++ {
		sp := h.tr.Start(nil, "probe.predict.combine_evaluate")
		evals = 0
		d, err := timed(func() error {
			for _, s := range sets {
				for t := range s.profs {
					train := make([]*ifprob.Profile, 0, len(s.profs)-1)
					train = append(train, s.profs[:t]...)
					train = append(train, s.profs[t+1:]...)
					pr, err := predict.Combine(train, predict.Scaled, s.sites, predict.LoopHeuristic)
					if err != nil {
						return err
					}
					if _, err := predict.Evaluate(pr, s.profs[t]); err != nil {
						return err
					}
					evals++
				}
			}
			return nil
		})
		sp.End()
		if err != nil {
			return fmt.Errorf("predict probe: %w", err)
		}
		passMS = append(passMS, ms([]time.Duration{d})[0])
	}
	h.layerMetric("predict.combine_evaluate_ms", median(passMS), "ms",
		fmt.Sprintf("%d leave-one-out predictions per pass, median of %d passes", evals, passes))
	return nil
}
