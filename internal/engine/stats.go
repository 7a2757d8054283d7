package engine

import (
	"fmt"
	"strings"
	"time"

	"branchprof/internal/obs"
)

// counters is the engine's per-stage instrumentation, backed by the
// observability registry so the same atomics feed both the -stats
// line and the Prometheus export. Wall times accumulate per stage
// across all workers, so under the parallel pool they measure
// aggregate compute, not elapsed time.
type counters struct {
	compiles, runs, profiles *obs.Counter
	compileNS, runNS         *obs.Counter
	profileNS                *obs.Counter
	instrs                   *obs.Counter

	memHits, memMisses   *obs.Counter
	diskHits, diskMisses *obs.Counter
	diskInvalid          *obs.Counter
	diskWriteErrs        *obs.Counter

	panics       *obs.Counter
	retries      *obs.Counter
	retryGiveUps *obs.Counter

	// Histograms for latency/throughput distributions; the flat
	// counters above keep the exact totals -stats reports.
	compileLat, runLat, profileLat *obs.Histogram
	mips                           *obs.Histogram
}

// newCounters registers the engine's metrics on reg. Metric names are
// documented in docs/OBSERVABILITY.md.
func newCounters(reg *obs.Registry) counters {
	const (
		stageHelp  = "Pipeline stage executions (cache hits excluded)."
		stageNS    = "Cumulative stage wall time in nanoseconds, summed across workers."
		stageLat   = "Per-execution stage latency in seconds."
		cacheHelp  = "Cache lookups by layer and result."
		eventsHelp = "Robustness events."
	)
	c := counters{
		compiles:  reg.Counter(`branchprof_engine_stage_total{stage="compile"}`, stageHelp),
		runs:      reg.Counter(`branchprof_engine_stage_total{stage="run"}`, stageHelp),
		profiles:  reg.Counter(`branchprof_engine_stage_total{stage="profile"}`, stageHelp),
		compileNS: reg.Counter(`branchprof_engine_stage_ns_total{stage="compile"}`, stageNS),
		runNS:     reg.Counter(`branchprof_engine_stage_ns_total{stage="run"}`, stageNS),
		profileNS: reg.Counter(`branchprof_engine_stage_ns_total{stage="profile"}`, stageNS),
		instrs:    reg.Counter("branchprof_engine_instructions_total", "RISC-level instructions interpreted."),

		memHits:       reg.Counter(`branchprof_engine_cache_total{layer="mem",result="hit"}`, cacheHelp),
		memMisses:     reg.Counter(`branchprof_engine_cache_total{layer="mem",result="miss"}`, cacheHelp),
		diskHits:      reg.Counter(`branchprof_engine_cache_total{layer="disk",result="hit"}`, cacheHelp),
		diskMisses:    reg.Counter(`branchprof_engine_cache_total{layer="disk",result="miss"}`, cacheHelp),
		diskInvalid:   reg.Counter("branchprof_engine_cache_invalid_total", "Corrupt or stale disk entries discarded and recomputed."),
		diskWriteErrs: reg.Counter("branchprof_engine_cache_write_errors_total", "Failed best-effort disk cache writes."),

		panics:       reg.Counter(`branchprof_engine_events_total{event="panic_recovered"}`, eventsHelp),
		retries:      reg.Counter(`branchprof_engine_events_total{event="retry"}`, eventsHelp),
		retryGiveUps: reg.Counter(`branchprof_engine_events_total{event="retry_giveup"}`, eventsHelp),

		compileLat: reg.Histogram(`branchprof_engine_stage_seconds{stage="compile"}`, stageLat, obs.DefLatencyBuckets),
		runLat:     reg.Histogram(`branchprof_engine_stage_seconds{stage="run"}`, stageLat, obs.DefLatencyBuckets),
		profileLat: reg.Histogram(`branchprof_engine_stage_seconds{stage="profile"}`, stageLat, obs.DefLatencyBuckets),
		mips:       reg.Histogram("branchprof_engine_vm_minstrs_per_second", "Per-run interpreter throughput, millions of instructions per second.", obs.DefRateBuckets),
	}
	reg.GaugeFunc("branchprof_engine_cache_mem_hit_ratio", "In-memory cache hit ratio.",
		func() float64 { return ratio(c.memHits.Load(), c.memMisses.Load()) })
	reg.GaugeFunc("branchprof_engine_cache_disk_hit_ratio", "Disk cache hit ratio.",
		func() float64 { return ratio(c.diskHits.Load(), c.diskMisses.Load()) })
	return c
}

// ratio is hits/(hits+misses), 0 when there were no lookups.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Stats is a point-in-time snapshot of the engine's per-stage
// observability: work performed, where the time went, and how the
// caches behaved.
type Stats struct {
	// Pipeline stages actually executed (cache hits excluded).
	Compiles uint64
	Runs     uint64
	Profiles uint64

	// Cumulative wall time per stage, summed across workers.
	CompileWall time.Duration
	RunWall     time.Duration
	ProfileWall time.Duration

	// Instrs is the total RISC-level instructions interpreted.
	Instrs uint64

	// Cache behaviour. DiskInvalid counts corrupt, truncated or
	// version-mismatched entries that were discarded and recomputed;
	// DiskWriteErrs counts failed best-effort writes.
	MemHits       uint64
	MemMisses     uint64
	DiskHits      uint64
	DiskMisses    uint64
	DiskInvalid   uint64
	DiskWriteErrs uint64

	// Derived-entry (traced replay) cache behaviour, counted apart
	// from the measurement cache above: LoadDerived hits, misses
	// (ReplayInvalid included) and entries discarded as corrupt, stale
	// or misplaced. Failed derived writes count in DiskWriteErrs.
	ReplayHits    uint64
	ReplayMisses  uint64
	ReplayInvalid uint64

	// Robustness events. Panics counts stage panics recovered into
	// structured errors; Retries counts cache I/O attempts retried after
	// a transient fault; RetryGiveUps counts retry loops that exhausted
	// their budget and degraded (read → miss, write → dropped).
	Panics       uint64
	Retries      uint64
	RetryGiveUps uint64
}

// Stats snapshots the engine's counters.
//
// The counters are independent atomics, so a snapshot taken while
// work is in flight is not a single consistent cut. The load order
// below is chosen so the invariants consumers rely on still hold in
// every snapshot: a counter is loaded *before* any counter that the
// pipeline increments earlier in program order. Because the pipeline
// bumps memMisses before the disk counters, and the disk counters
// before runs/profiles, loading in the reverse order (profiles, then
// runs, then disk, then mem) guarantees
//
//	Profiles ≤ Runs  and  DiskHits+DiskMisses ≤ MemMisses
//
// for Execute-path workloads: any increment racing with the snapshot
// can only inflate the later-loaded (earlier-incremented) side.
// Uncached Run calls (empty content key, or a tracer attached) bump
// runs without touching the cache counters, so Runs ≤ MemMisses is
// deliberately NOT an invariant. TestStatsSnapshotInvariants asserts
// the guaranteed ones under the race detector.
func (e *Engine) Stats() Stats {
	s := Stats{}
	s.Profiles = e.st.profiles.Load()
	s.Runs = e.st.runs.Load()
	s.Compiles = e.st.compiles.Load()
	s.DiskHits = e.st.diskHits.Load()
	s.DiskMisses = e.st.diskMisses.Load()
	s.MemMisses = e.st.memMisses.Load()
	s.MemHits = e.st.memHits.Load()
	s.CompileWall = time.Duration(e.st.compileNS.Load())
	s.RunWall = time.Duration(e.st.runNS.Load())
	s.ProfileWall = time.Duration(e.st.profileNS.Load())
	s.Instrs = e.st.instrs.Load()
	s.DiskInvalid = e.st.diskInvalid.Load()
	s.DiskWriteErrs = e.st.diskWriteErrs.Load()
	s.ReplayHits = e.replayHits.Load()
	s.ReplayMisses = e.replayMisses.Load()
	s.ReplayInvalid = e.replayInvalid.Load()
	s.Panics = e.st.panics.Load()
	s.Retries = e.st.retries.Load()
	s.RetryGiveUps = e.st.retryGiveUps.Load()
	return s
}

// InstrsPerSec is the aggregate interpreter throughput: instructions
// executed over cumulative run wall time.
func (s Stats) InstrsPerSec() float64 {
	if s.RunWall <= 0 {
		return 0
	}
	return float64(s.Instrs) / s.RunWall.Seconds()
}

// String renders the snapshot in the form the tools print under
// -stats.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d compiles (%v), %d runs (%v, %d instrs, %.1f Minstrs/s), %d profiles (%v)\n",
		s.Compiles, s.CompileWall.Round(time.Microsecond),
		s.Runs, s.RunWall.Round(time.Microsecond), s.Instrs, s.InstrsPerSec()/1e6,
		s.Profiles, s.ProfileWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "engine: cache mem %d/%d hits, disk %d/%d hits",
		s.MemHits, s.MemHits+s.MemMisses, s.DiskHits, s.DiskHits+s.DiskMisses)
	if s.DiskInvalid > 0 {
		fmt.Fprintf(&b, ", %d invalid entries recomputed", s.DiskInvalid)
	}
	if s.DiskWriteErrs > 0 {
		fmt.Fprintf(&b, ", %d write errors", s.DiskWriteErrs)
	}
	// The replay line appears only when derived entries were looked
	// up, so output without a cache directory is unchanged.
	if s.ReplayHits+s.ReplayMisses > 0 {
		fmt.Fprintf(&b, "\nengine: replay cache %d/%d hits", s.ReplayHits, s.ReplayHits+s.ReplayMisses)
		if s.ReplayInvalid > 0 {
			fmt.Fprintf(&b, ", %d invalid entries recomputed", s.ReplayInvalid)
		}
	}
	// Robustness counters appear only when something actually went
	// wrong, so healthy-run output is unchanged.
	if s.Panics > 0 || s.Retries > 0 || s.RetryGiveUps > 0 {
		fmt.Fprintf(&b, "\nengine: %d panics recovered, %d retries (%d gave up)",
			s.Panics, s.Retries, s.RetryGiveUps)
	}
	return b.String()
}
