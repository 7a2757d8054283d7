package main

import (
	"fmt"
	"runtime"
	"time"

	"branchprof/internal/engine"
)

// endToEndMetrics are the metrics every untraced run reports, with
// their units; BENCHMARK.json lists the same names.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_retained_mb", "MB"},
}

// perLayerMetrics are the metrics every traced run reports, with their
// units; BENCHMARK.json lists the same names. A layer a workload does
// not exercise reports 0 (the exp.* shares on the serve workloads, the
// server, store, journal and replication layers on the paper
// workloads). The probes (mfc.*, vm.*, dynpred.*, predict.*) time
// calls into the layers' public functions on fixed inputs, so they
// read the same on every workload.
var perLayerMetrics = []struct{ name, unit string }{
	{"mfc.compile_all_ms", "ms"},
	{"vm.load_all_ms", "ms"},
	{"vm.codegen_minstrs_per_s.fortran", "Minstr/s"},
	{"vm.codegen_minstrs_per_s.c", "Minstr/s"},
	{"vm.interp_minstrs_per_s.fortran", "Minstr/s"},
	{"vm.interp_minstrs_per_s.c", "Minstr/s"},
	{"vm.traced_minstrs_per_s", "Minstr/s"},
	{"vm.collect_codegen_s", "s"},
	{"vm.collect_interp_s", "s"},
	{"dynpred.decisions_per_s", "1/s"},
	{"predict.combine_evaluate_ms", "ms"},
	{"obs.trace_overhead_frac", "frac"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"engine.pool_util", "frac"},
	{"engine.runs_per_op", "count"},
	{"engine.compiles_per_op", "count"},
	{"engine.minstrs_per_op", "Minstr"},
	{"engine.run_busy_ms_per_op", "ms"},
	{"engine.mem_hit_ratio", "frac"},
	{"engine.disk_hit_ratio", "frac"},
	{"engine.image_hit_ratio", "frac"},
	{"exp.collect_frac", "frac"},
	{"exp.studies_frac", "frac"},
	{"exp.other_frac", "frac"},
	{"exp.study.table1_frac", "frac"},
	{"exp.study.inline_frac", "frac"},
	{"exp.study.selects_frac", "frac"},
	{"exp.study.paper_frac", "frac"},
	{"exp.study.dynamic_frac", "frac"},
	{"exp.study.ipm_frac", "frac"},
	{"exp.study.h2p_frac", "frac"},
	{"exp.study.runlengths_frac", "frac"},
	{"exp.study.coverage_frac", "frac"},
	{"exp.study.disagree_frac", "frac"},
	{"exp.study.hotsites_frac", "frac"},
	{"exp.study.traces_frac", "frac"},
	{"server.shed_429", "count"},
	{"server.failovers", "count"},
	{"store.merge_busy_frac", "frac"},
	{"store.save_busy_frac", "frac"},
	{"store.read_busy_frac", "frac"},
	{"store.saves_per_request", "count"},
	{"wal.syncs_per_request", "count"},
	{"wal.appends_per_profile", "count"},
	{"repl.pulled_per_s", "1/s"},
	{"repl.sync_errors", "count"},
}

// idleLayers reports 0 for every per-layer metric the workload did not
// report, so each traced run carries the full set.
func (h *harness) idleLayers() {
	for _, m := range perLayerMetrics {
		if _, ok := h.layers[m.name]; !ok {
			h.layerMetric(m.name, 0, m.unit, "layer idle in this workload")
		}
	}
}

// engineSample is a sum of engine counters: one engine's Stats, a
// delta of two snapshots, or a total over several engines.
type engineSample struct {
	compiles, runs, instrs             float64
	compileBusy, runBusy, profileBusy  time.Duration
	memHit, memMiss, diskHit, diskMiss float64
	imgHit, imgMiss                    float64
}

func (t *engineSample) add(s engine.Stats, imgHit, imgMiss float64) {
	t.compiles += float64(s.Compiles)
	t.runs += float64(s.Runs)
	t.instrs += float64(s.Instrs)
	t.compileBusy += s.CompileWall
	t.runBusy += s.RunWall
	t.profileBusy += s.ProfileWall
	t.memHit += float64(s.MemHits)
	t.memMiss += float64(s.MemMisses)
	t.diskHit += float64(s.DiskHits)
	t.diskMiss += float64(s.DiskMisses)
	t.imgHit += imgHit
	t.imgMiss += imgMiss
}

// minus returns t − o, field by field.
func (t engineSample) minus(o engineSample) engineSample {
	return engineSample{
		compiles:    t.compiles - o.compiles,
		runs:        t.runs - o.runs,
		instrs:      t.instrs - o.instrs,
		compileBusy: t.compileBusy - o.compileBusy,
		runBusy:     t.runBusy - o.runBusy,
		profileBusy: t.profileBusy - o.profileBusy,
		memHit:      t.memHit - o.memHit,
		memMiss:     t.memMiss - o.memMiss,
		diskHit:     t.diskHit - o.diskHit,
		diskMiss:    t.diskMiss - o.diskMiss,
		imgHit:      t.imgHit - o.imgHit,
		imgMiss:     t.imgMiss - o.imgMiss,
	}
}

// engineLayers reports the engine layer over a window of ops
// operations and the given wall time.
func (h *harness) engineLayers(t engineSample, ops float64, wall time.Duration) {
	perOp := fmt.Sprintf("per op over %.0f ops", ops)
	h.info("engine.compiles", t.compiles, "count", "window total")
	h.info("engine.runs", t.runs, "count", "window total")
	h.info("engine.instrs", t.instrs, "count", "window total")
	h.info("engine.compile_busy_s", t.compileBusy.Seconds(), "s", "summed across workers")
	h.info("engine.run_busy_s", t.runBusy.Seconds(), "s", "summed across workers")
	h.info("engine.profile_busy_s", t.profileBusy.Seconds(), "s", "summed across workers")
	busy := (t.compileBusy + t.runBusy + t.profileBusy).Seconds()
	procs := runtime.GOMAXPROCS(0)
	h.layerMetric("engine.pool_util", ratio(busy, float64(procs)*wall.Seconds()), "frac",
		fmt.Sprintf("%.3fs busy over %d procs × %.3fs", busy, procs, wall.Seconds()))
	h.layerMetric("engine.runs_per_op", ratio(t.runs, ops), "count", perOp)
	h.layerMetric("engine.compiles_per_op", ratio(t.compiles, ops), "count", perOp)
	h.layerMetric("engine.minstrs_per_op", ratio(t.instrs/1e6, ops), "Minstr", perOp)
	h.layerMetric("engine.run_busy_ms_per_op", ratio(1e3*t.runBusy.Seconds(), ops), "ms", perOp)
	hits := func(name string, hit, miss float64) {
		h.layerMetric(name, ratio(hit, hit+miss), "frac", fmt.Sprintf("%.0f hits of %.0f lookups", hit, hit+miss))
	}
	hits("engine.mem_hit_ratio", t.memHit, t.memMiss)
	hits("engine.disk_hit_ratio", t.diskHit, t.diskMiss)
	hits("engine.image_hit_ratio", t.imgHit, t.imgMiss)
}
