// Package engine owns the repository's compile → run → profile
// pipeline: every tool and experiment that turns MF source (or an
// assembled program) plus an input into measured branch behaviour
// routes through one Engine.
//
// The engine deduplicates identical work (concurrent requests for the
// same unit share one computation), memoizes compiled programs and
// completed measurements in a bounded in-memory LRU, and optionally
// persists measurements in an on-disk content-addressed cache — the
// repo-level analogue of the paper's IFPROBBER database, which kept
// branch counters across runs of a program so later consumers never
// re-executed the instrumented binary. Cache keys are content hashes
// of everything that can influence a measurement: source text,
// compiler options, input bytes, the VM configuration fingerprint and
// the VM's semantics version (see docs/ENGINE.md for the derivation
// and invalidation rules). A stale, corrupt or truncated cache entry
// is never fatal: it is discarded, counted, and recomputed. The
// on-disk cache holds at most Options.CacheMaxBytes of entries and
// evicts the least recently used beyond that. The engine also keeps
// derived entries: opaque payloads a caller computed from
// measurements, keyed and encoded by that caller, in memory and, with
// a cache directory, on disk (LoadDerived/StoreDerived; internal/exp
// stores its traced replays this way).
//
// The engine also provides the bounded worker pool used to collect
// the experiment matrix in parallel, and per-stage observability
// (compile/run/profile wall time, instructions executed, cache
// hit/miss counts) via Stats.
//
// Robustness (see docs/ROBUSTNESS.md): every *Context entry point
// honours cancellation and deadlines — the VM polls the context's done
// channel mid-run, so cancellation is prompt even inside a long
// interpretation. Stage panics never unwind through the engine; they
// are recovered and converted into structured *StageError values.
// Transient cache I/O faults are retried with jittered exponential
// backoff and then degraded to misses or dropped writes; compute is
// never retried, because the interpreter is deterministic — a failed
// run would fail identically again.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"branchprof/internal/faults"
	"branchprof/internal/ifprob"
	"branchprof/internal/isa"
	"branchprof/internal/mfc"
	"branchprof/internal/obs"
	"branchprof/internal/vm"
)

// Options configures an Engine.
type Options struct {
	// CacheDir, when non-empty, enables the persistent content-addressed
	// measurement cache rooted at that directory (created on demand).
	CacheDir string
	// Workers bounds the engine's parallel collection pool;
	// 0 means GOMAXPROCS.
	Workers int
	// MemEntries bounds each in-memory LRU: completed measurements,
	// compiled programs, per-program digests and images, and derived
	// payloads; 0 means the default of 256 entries.
	MemEntries int
	// CacheMaxBytes bounds the bytes of entries kept under CacheDir;
	// writes past it evict the least recently used entries. 0 means
	// DefaultCacheMaxBytes.
	CacheMaxBytes int64
	// Faults, when non-nil, injects deterministic faults at the
	// pipeline and cache stages (chaos tests only; nil in production).
	Faults *faults.Set
	// MaxRetries bounds retries of transient cache I/O faults;
	// 0 means the default of 2, negative disables retries.
	MaxRetries int
	// RetryBackoff is the base backoff between retries (doubled per
	// attempt, plus jitter); 0 means the default of 500µs.
	RetryBackoff time.Duration
	// Obs, when non-nil, supplies the observability sinks: a clock for
	// stage timing, a span tracer, a metrics registry and a VM sampling
	// profile. Nil costs one pointer comparison on hot paths; the
	// engine then times stages with time.Now and registers its counters
	// on a private registry so Stats keeps working.
	Obs *obs.Obs
}

// Engine is the shared compile→run→profile pipeline. It is safe for
// concurrent use.
type Engine struct {
	workers    int
	mem        *lruCache // execution key → *Outcome
	progs      *lruCache // compile key → *isa.Program
	images     *lruCache // program address → *loaded (digest, pre-decoded image)
	derived    *lruCache // derived-entry key → payload []byte
	disk       *diskCache
	faults     *faults.Set
	maxRetries int
	backoff    time.Duration
	obs        *obs.Obs // may be nil; every use is nil-safe
	reg        *obs.Registry
	st         counters

	// Pre-decoded image cache effectiveness, exported as the
	// branchprof_engine_image_{hits,misses} gauges. A miss is a
	// verify/pre-decode/fuse (and codegen-digest lookup) pass.
	imageHits   atomic.Uint64
	imageMisses atomic.Uint64

	// digests counts program content digests hashed (Stats.Digests).
	digests atomic.Uint64

	// Derived-entry lookups (LoadDerived), exported as the
	// branchprof_engine_replay_{hits,misses,invalid} gauges and kept
	// apart from the measurement cache counters.
	replayHits    atomic.Uint64
	replayMisses  atomic.Uint64
	replayInvalid atomic.Uint64

	// Disk entries evicted to keep CacheDir under its byte budget,
	// exported as the branchprof_engine_cache_evictions gauge.
	evictions atomic.Uint64

	mu       sync.Mutex
	inflight map[string]*call
}

// New builds an engine from opts.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MemEntries <= 0 {
		opts.MemEntries = 256
	}
	if opts.CacheMaxBytes <= 0 {
		opts.CacheMaxBytes = DefaultCacheMaxBytes
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 500 * time.Microsecond
	}
	reg := opts.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		workers:    opts.Workers,
		mem:        newLRU(opts.MemEntries),
		progs:      newLRU(opts.MemEntries),
		images:     newLRU(opts.MemEntries),
		derived:    newLRU(opts.MemEntries),
		faults:     opts.Faults,
		maxRetries: opts.MaxRetries,
		backoff:    opts.RetryBackoff,
		obs:        opts.Obs,
		reg:        reg,
		st:         newCounters(reg),
		inflight:   make(map[string]*call),
	}
	if opts.CacheDir != "" {
		e.disk = newDiskCache(opts.CacheDir, opts.CacheMaxBytes, opts.Faults, &e.evictions)
	}
	reg.GaugeFunc("branchprof_engine_image_hits",
		"Pre-decoded VM image cache hits.",
		func() float64 { return float64(e.imageHits.Load()) })
	reg.GaugeFunc("branchprof_engine_image_misses",
		"Pre-decoded VM image cache misses (image verified, pre-decoded and bound).",
		func() float64 { return float64(e.imageMisses.Load()) })
	reg.GaugeFunc("branchprof_engine_replay_hits",
		"Derived (traced replay) cache hits.",
		func() float64 { return float64(e.replayHits.Load()) })
	reg.GaugeFunc("branchprof_engine_replay_misses",
		"Derived (traced replay) cache misses, invalid entries included.",
		func() float64 { return float64(e.replayMisses.Load()) })
	reg.GaugeFunc("branchprof_engine_replay_invalid",
		"Corrupt, stale or misplaced derived (traced replay) entries discarded and recomputed.",
		func() float64 { return float64(e.replayInvalid.Load()) })
	reg.GaugeFunc("branchprof_engine_cache_evictions",
		"Disk cache entries evicted, least recently used first, to keep the cache directory under its byte budget.",
		func() float64 { return float64(e.evictions.Load()) })
	return e
}

// Obs returns the engine's observability bundle (possibly nil).
func (e *Engine) Obs() *obs.Obs { return e.obs }

// Registry returns the metrics registry the engine's counters live
// on: the one Options.Obs carried, or the engine's private registry
// when observability was not configured. Never nil.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// now reads the engine's clock: the injected observability clock when
// configured, time.Now otherwise.
func (e *Engine) now() time.Time { return e.obs.Now() }

// span opens a pipeline-stage span under the span carried by ctx.
// With tracing off it returns ctx and a nil (no-op) span after one
// pointer comparison.
func (e *Engine) span(ctx context.Context, name, program, dataset string) (context.Context, *obs.Span) {
	if !e.obs.Tracing() {
		return ctx, nil
	}
	attrs := []obs.Attr{obs.A("program", program)}
	if dataset != "" {
		attrs = append(attrs, obs.A("dataset", dataset))
	}
	return e.obs.Start(ctx, name, attrs...)
}

// endSpan records err (if any) on sp and closes it.
func endSpan(sp *obs.Span, err error) {
	sp.SetError(err)
	sp.End()
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide engine: in-memory caching only, a
// GOMAXPROCS-bounded pool, no persistent cache.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(Options{}) })
	return defaultEngine
}

// WorkerCount returns the size of the engine's worker pool.
func (e *Engine) WorkerCount() int { return e.workers }

// Spec identifies one unit of pipeline work: compile Source under
// Options, run it on Input under Config, extract the branch profile.
// Equal specs are the same unit of work and share one cache entry.
type Spec struct {
	Name    string      // program name recorded in profiles and reports
	Source  string      // complete MF source text
	Options mfc.Options // compiler configuration
	Dataset string      // dataset name recorded in the profile
	Input   []byte      // program input bytes
	Config  vm.Config   // VM limits and measurement switches
}

// Outcome is one completed unit of pipeline work. Res and Prof are
// private to the caller (defensive copies on cache hits); Prog is
// shared and must be treated as immutable.
type Outcome struct {
	Prog *isa.Program
	Res  *vm.Result
	Prof *ifprob.Profile
	// CacheHit reports whether the measurement was served from the
	// in-memory or on-disk cache rather than executed.
	CacheHit bool
}

// keyVersion is bumped whenever the key derivation or the persisted
// entry layout changes incompatibly.
const keyVersion = 1

// key derives the content hash identifying the spec's measurement.
func (s *Spec) key() string {
	h := sha256.New()
	fmt.Fprintf(h, "branchprof-engine/%d\x00vm/%d\x00", keyVersion, vm.SemanticsVersion)
	fmt.Fprintf(h, "name=%s\x00dataset=%s\x00", s.Name, s.Dataset)
	fmt.Fprintf(h, "opts=%s\x00cfg=%s\x00", optionsFingerprint(s.Options), s.Config.Fingerprint())
	fmt.Fprintf(h, "src/%d\x00", len(s.Source))
	io.WriteString(h, s.Source)
	fmt.Fprintf(h, "\x00in/%d\x00", len(s.Input))
	h.Write(s.Input)
	return hex.EncodeToString(h.Sum(nil))
}

// optionsFingerprint canonicalizes the compiler configuration for key
// derivation. Every field of mfc.Options appears here; adding a field
// to mfc.Options must extend this string.
func optionsFingerprint(o mfc.Options) string {
	return fmt.Sprintf("dce=%t,inline=%t,inlmax=%d,sel=%t",
		o.DeadBranchElim, o.InlineCalls, o.InlineMaxStmts, o.UseSelects)
}

// call is one in-flight computation; duplicate requests wait on done.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// once runs f exactly once per key among concurrent callers and
// shares its result. A waiter whose ctx is cancelled stops waiting and
// returns the ctx error; the computation itself keeps running for the
// callers that still want it.
func (e *Engine) once(ctx context.Context, key string, f func() (any, error)) (any, error) {
	e.mu.Lock()
	if c, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()
	c.val, c.err = f()
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// Compile builds name's source under opts, memoizing the compiled
// image: repeated compilations of identical (name, source, options)
// return the same *isa.Program, which callers must not mutate.
func (e *Engine) Compile(name, source string, opts mfc.Options) (*isa.Program, error) {
	return e.CompileContext(context.Background(), name, source, opts)
}

// CompileContext is Compile honouring ctx cancellation. Compilation
// itself is short and uninterruptible; the context is checked before
// the work starts and while waiting on a shared in-flight compile.
func (e *Engine) CompileContext(ctx context.Context, name, source string, opts mfc.Options) (*isa.Program, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "compile/%d\x00name=%s\x00opts=%s\x00", keyVersion, name, optionsFingerprint(opts))
	io.WriteString(h, source)
	key := hex.EncodeToString(h.Sum(nil))
	if p, ok := e.progs.get(key); ok {
		return p.(*isa.Program), nil
	}
	v, err := e.once(ctx, "compile:"+key, func() (any, error) {
		if p, ok := e.progs.get(key); ok {
			return p.(*isa.Program), nil
		}
		var prog *isa.Program
		_, sp := e.span(ctx, "compile", name, "")
		err := e.stage(faults.Compile, name, "", func() error {
			start := e.now()
			p, err := mfc.Compile(name, source, opts)
			if err != nil {
				return err
			}
			d := e.now().Sub(start)
			e.st.compiles.Add(1)
			e.st.compileNS.Add(uint64(d))
			e.st.compileLat.Observe(d.Seconds())
			prog = p
			return nil
		})
		endSpan(sp, err)
		if err != nil {
			return nil, err
		}
		e.progs.add(key, prog)
		return prog, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*isa.Program), nil
}

// Execute performs the full pipeline for spec, consulting the caches
// first. A spec carrying a tracer cannot be cached (tracers observe
// the execution itself), so it always runs fresh; everything else is
// served from the in-memory LRU, then the on-disk cache, then
// computed and stored in both.
func (e *Engine) Execute(spec Spec) (*Outcome, error) {
	return e.ExecuteContext(context.Background(), spec)
}

// ExecuteContext is Execute honouring ctx: cancellation and deadlines
// are checked between stages and polled inside the VM run, so a
// cancelled spec returns promptly with an error satisfying
// errors.Is(err, ctx.Err()). A cancelled or faulted measurement is
// never cached.
func (e *Engine) ExecuteContext(ctx context.Context, spec Spec) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, esp := e.span(ctx, "execute", spec.Name, spec.Dataset)
	if spec.Config.Trace != nil {
		prog, err := e.CompileContext(ctx, spec.Name, spec.Source, spec.Options)
		if err != nil {
			endSpan(esp, err)
			return nil, err
		}
		res, err := e.runStage(ctx, prog, &spec)
		if err != nil {
			endSpan(esp, err)
			return nil, err
		}
		prof, err := e.profileStage(ctx, &spec, res)
		endSpan(esp, err)
		if err != nil {
			return nil, err
		}
		return &Outcome{Prog: prog, Res: res, Prof: prof}, nil
	}
	key := spec.key()
	v, err := e.once(ctx, "exec:"+key, func() (any, error) { return e.execute(ctx, &spec, key) })
	if err != nil {
		endSpan(esp, err)
		return nil, err
	}
	out := v.(*Outcome)
	esp.SetAttr("cache_hit", out.CacheHit)
	esp.End()
	// Hand every caller its own counters: cached outcomes are shared
	// state, and experiment code is free to mutate what it is given.
	return &Outcome{
		Prog:     out.Prog,
		Res:      cloneResult(out.Res),
		Prof:     out.Prof.Clone(),
		CacheHit: out.CacheHit,
	}, nil
}

func (e *Engine) execute(ctx context.Context, spec *Spec, key string) (*Outcome, error) {
	if v, ok := e.mem.get(key); ok {
		e.st.memHits.Add(1)
		out := v.(*Outcome)
		return &Outcome{Prog: out.Prog, Res: out.Res, Prof: out.Prof, CacheHit: true}, nil
	}
	e.st.memMisses.Add(1)

	// The compiled image is never persisted, so the program is
	// materialized on every path, including disk hits. Recompiling is
	// what a warm paper pass pays instead: its 60 builds take ~100 ms
	// of compile time summed over workers on a 2-core Xeon (the
	// `experiments -stats` compiles line), about half the pass, and
	// it keeps the on-disk format to plain measurement counters.
	prog, err := e.CompileContext(ctx, spec.Name, spec.Source, spec.Options)
	if err != nil {
		return nil, err
	}

	label := specLabel(spec.Name, spec.Dataset)
	if e.disk != nil {
		_, sp := e.span(ctx, "cache.load", spec.Name, spec.Dataset)
		res, prof, ok := e.diskLoad(key, label, prog)
		sp.SetAttr("hit", ok)
		sp.End()
		if ok {
			out := &Outcome{Prog: prog, Res: res, Prof: prof, CacheHit: true}
			e.mem.add(key, out)
			return out, nil
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := e.runStage(ctx, prog, spec)
	if err != nil {
		return nil, err
	}
	prof, err := e.profileStage(ctx, spec, res)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Prog: prog, Res: res, Prof: prof}
	e.mem.add(key, out)
	if e.disk != nil {
		_, sp := e.span(ctx, "cache.store", spec.Name, spec.Dataset)
		e.diskStore(key, label, res, prof)
		sp.End()
	}
	return out, nil
}

// runStage executes spec's program as the fault-instrumented,
// panic-recovered "run" stage, wiring ctx's done channel into the VM
// so cancellation interrupts even a long interpretation.
func (e *Engine) runStage(ctx context.Context, prog *isa.Program, spec *Spec) (*vm.Result, error) {
	var res *vm.Result
	ctx, sp := e.span(ctx, "run", spec.Name, spec.Dataset)
	err := e.stage(faults.Run, spec.Name, spec.Dataset, func() error {
		cfg := spec.Config
		cfg.Done = ctx.Done()
		r, err := e.run(prog, spec.Input, &cfg)
		if err != nil {
			if errors.Is(err, vm.ErrCancelled) && ctx.Err() != nil {
				return fmt.Errorf("%w (%v)", ctx.Err(), err)
			}
			return err
		}
		res = r
		return nil
	})
	if res != nil {
		sp.SetAttr("instrs", res.Instrs)
	}
	endSpan(sp, err)
	return res, err
}

// profileStage extracts spec's branch profile as the
// fault-instrumented, panic-recovered "profile" stage.
func (e *Engine) profileStage(ctx context.Context, spec *Spec, res *vm.Result) (*ifprob.Profile, error) {
	var prof *ifprob.Profile
	_, sp := e.span(ctx, "profile", spec.Name, spec.Dataset)
	err := e.stage(faults.Profile, spec.Name, spec.Dataset, func() error {
		prof = e.profile(spec, res)
		return nil
	})
	endSpan(sp, err)
	return prof, err
}

// diskLoad reads and validates a persisted measurement. Entries that
// fail to decode, carry the wrong version or key, or disagree with
// the compiled program's site table are treated as misses and
// recomputed — a bad entry is never fatal. Transient read faults are
// retried with backoff and degraded to a miss when retries exhaust.
func (e *Engine) diskLoad(key, label string, prog *isa.Program) (*vm.Result, *ifprob.Profile, bool) {
	res, prof, ok, invalid := e.diskLoadRetry(key, label)
	if invalid {
		e.st.diskInvalid.Add(1)
	}
	if !ok {
		e.st.diskMisses.Add(1)
		return nil, nil, false
	}
	if len(res.SiteTotal) != len(prog.Sites) || (prof != nil && len(prof.Total) != len(prog.Sites)) {
		// Entry from a different compiler era: site table moved.
		e.st.diskInvalid.Add(1)
		e.st.diskMisses.Add(1)
		return nil, nil, false
	}
	e.st.diskHits.Add(1)
	return res, prof, true
}

// diskLoadRetry reads key's measurement entry through readRetry.
func (e *Engine) diskLoadRetry(key, label string) (res *vm.Result, prof *ifprob.Profile, ok, invalid bool) {
	ok, invalid = e.readRetry(label, func() (ok, invalid bool) {
		res, prof, ok, invalid = e.disk.load(key)
		return ok, invalid
	})
	if !ok {
		return nil, nil, false, invalid
	}
	return res, prof, true, false
}

// readRetry is one cache read attempt loop: injected (transient)
// faults and read-side panics are retried up to the bound, then the
// entry is treated as invalid; a genuinely corrupt file is never
// retried — it will not heal.
func (e *Engine) readRetry(label string, read func() (ok, invalid bool)) (ok, invalid bool) {
	for attempt := 0; ; attempt++ {
		ferr := e.cacheAttempt(faults.CacheRead, label, func() error {
			ok, invalid = read()
			return nil
		})
		if ferr == nil {
			return ok, invalid
		}
		if attempt >= e.maxRetries {
			e.st.retryGiveUps.Add(1)
			return false, true
		}
		e.st.retries.Add(1)
		backoffSleep(e.backoff, attempt)
	}
}

// diskStore persists a measurement through writeRetry.
func (e *Engine) diskStore(key, label string, res *vm.Result, prof *ifprob.Profile) {
	e.writeRetry(label, func() error { return e.disk.store(key, label, res, prof) })
}

// writeRetry runs one cache write, retrying transient write faults
// with backoff. Exhausted retries are counted and dropped — a failed
// cache write never interrupts the pipeline.
func (e *Engine) writeRetry(label string, write func() error) {
	for attempt := 0; ; attempt++ {
		if e.cacheAttempt(faults.CacheWrite, label, write) == nil {
			return
		}
		if attempt >= e.maxRetries {
			e.st.retryGiveUps.Add(1)
			e.st.diskWriteErrs.Add(1)
			return
		}
		e.st.retries.Add(1)
		backoffSleep(e.backoff, attempt)
	}
}

// LoadDerived looks up a derived entry: an opaque payload that a
// caller computed from measurements, encoded itself and stored with
// StoreDerived under a key it derived itself. The key must hash
// everything the payload depends on. Entries live in a bounded
// in-memory LRU (MemEntries payloads) and, with a cache directory, on
// disk, where the engine echoes the key in the entry so a misplaced
// file is rejected; a disk hit also fills the memory tier. LoadDerived
// hands the payload, read-only, to decode and reports a hit when decode
// accepts it. A corrupt, truncated, stale or misplaced entry, or one
// decode rejects, counts as invalid and reads as a miss. Disk reads
// share the measurement cache's directory, cache-read fault stage and
// retry policy, but every lookup counts in its own
// ReplayHits/ReplayMisses/ReplayInvalid.
func (e *Engine) LoadDerived(key, label string, decode func(payload []byte) error) bool {
	if v, ok := e.derived.get(key); ok {
		if decode(v.([]byte)) == nil {
			e.replayHits.Add(1)
			return true
		}
		e.replayInvalid.Add(1)
		e.replayMisses.Add(1)
		return false
	}
	if e.disk == nil {
		e.replayMisses.Add(1)
		return false
	}
	var payload []byte
	ok, invalid := e.readRetry(label, func() (ok, invalid bool) {
		payload, ok, invalid = e.disk.loadDerived(key)
		return ok, invalid
	})
	if ok && decode(payload) != nil {
		ok, invalid = false, true
	}
	if invalid {
		e.replayInvalid.Add(1)
	}
	if !ok {
		e.replayMisses.Add(1)
		return false
	}
	e.derived.add(key, payload)
	e.replayHits.Add(1)
	return true
}

// StoreDerived keeps payload as key's derived entry: always in the
// memory tier, which retains payload (the caller must not modify it
// afterwards), and, with a cache directory, on disk with the
// measurement cache's atomic write, cross-process lock, byte budget,
// cache-write fault stage and retry policy; a failed disk write is
// counted in DiskWriteErrs and dropped. Callers store only complete,
// successful results.
func (e *Engine) StoreDerived(key, label string, payload []byte) {
	e.derived.add(key, payload)
	if e.disk == nil {
		return
	}
	e.writeRetry(label, func() error { return e.disk.storeDerived(key, label, payload) })
}

// cacheAttempt runs one cache I/O attempt: fault injectors fire first,
// and a panic anywhere in the attempt (injected or real) is converted
// into an error so the retry loop — not the caller — decides what
// happens next.
func (e *Engine) cacheAttempt(st faults.Stage, label string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.st.panics.Add(1)
			err = fmt.Errorf("engine: %s %s: %w", st, label, &PanicError{Value: r})
		}
	}()
	if ferr := e.faults.Fire(st, label); ferr != nil {
		return ferr
	}
	return f()
}

// Run executes a precompiled program through the engine. contentKey
// identifies the program's content (for images that did not come from
// MF source, e.g. assembled .mfs text); an empty contentKey — or a
// config carrying a tracer — disables caching for the run, which
// still executes through the pool-accounted, stats-counted path.
func (e *Engine) Run(prog *isa.Program, contentKey string, input []byte, cfg *vm.Config) (*vm.Result, error) {
	return e.RunContext(context.Background(), prog, contentKey, input, cfg)
}

// RunContext is Run honouring ctx: the VM polls the context's done
// channel mid-run, so cancellation is prompt even inside a long
// interpretation.
func (e *Engine) RunContext(ctx context.Context, prog *isa.Program, contentKey string, input []byte, cfg *vm.Config) (*vm.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var c vm.Config
	if cfg != nil {
		c = *cfg
	}
	label := prog.Source
	if contentKey == "" || c.Trace != nil {
		return e.runCtx(ctx, prog, input, &c)
	}
	h := sha256.New()
	fmt.Fprintf(h, "run/%d\x00vm/%d\x00name=%s\x00cfg=%s\x00", keyVersion, vm.SemanticsVersion, prog.Source, c.Fingerprint())
	io.WriteString(h, contentKey)
	fmt.Fprintf(h, "\x00in/%d\x00", len(input))
	h.Write(input)
	key := hex.EncodeToString(h.Sum(nil))

	v, err := e.once(ctx, "run:"+key, func() (any, error) {
		if v, ok := e.mem.get(key); ok {
			e.st.memHits.Add(1)
			return v, nil
		}
		e.st.memMisses.Add(1)
		if e.disk != nil {
			res, _, ok, invalid := e.diskLoadRetry(key, label)
			if invalid {
				e.st.diskInvalid.Add(1)
			}
			if ok {
				e.st.diskHits.Add(1)
				e.mem.add(key, res)
				return res, nil
			}
			e.st.diskMisses.Add(1)
		}
		res, err := e.runCtx(ctx, prog, input, &c)
		if err != nil {
			return nil, err
		}
		e.mem.add(key, res)
		if e.disk != nil {
			e.diskStore(key, label, res, nil)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return cloneResult(v.(*vm.Result)), nil
}

// runCtx wires ctx's done channel into the VM configuration and maps
// a cancellation trap back to the context's own error.
func (e *Engine) runCtx(ctx context.Context, prog *isa.Program, input []byte, cfg *vm.Config) (*vm.Result, error) {
	ctx, sp := e.span(ctx, "run", prog.Source, "")
	cfg.Done = ctx.Done()
	res, err := e.run(prog, input, cfg)
	if err != nil && errors.Is(err, vm.ErrCancelled) && ctx.Err() != nil {
		err = fmt.Errorf("%w (%v)", ctx.Err(), err)
		res = nil
	}
	if res != nil {
		sp.SetAttr("instrs", res.Instrs)
	}
	endSpan(sp, err)
	return res, err
}

// run is the timed, counted VM execution every path funnels through.
// When a VM sampling profile is configured (and the caller did not
// install its own Sample hook), the run feeds stack samples into it.
func (e *Engine) run(prog *isa.Program, input []byte, cfg *vm.Config) (*vm.Result, error) {
	if vp := e.obs.VMProfile(); vp != nil && cfg.Sample == nil {
		cfg.Sample = vp.Sampler(funcNames(prog))
	}
	start := e.now()
	res, err := e.image(prog).Run(input, cfg)
	d := e.now().Sub(start)
	e.st.runNS.Add(uint64(d))
	e.st.runs.Add(1)
	e.st.runLat.Observe(d.Seconds())
	if res != nil {
		e.st.instrs.Add(res.Instrs)
		if secs := d.Seconds(); secs > 0 {
			e.st.mips.Observe(float64(res.Instrs) / secs / 1e6)
		}
	}
	return res, err
}

// loaded is the engine's per-program memo: the program's content
// digest, hashed at most once, and its pre-decoded Image, built at
// most once (and bound to a compiled body through the same digest).
type loaded struct {
	prog       *isa.Program
	digestOnce sync.Once
	digest     string
	imageOnce  sync.Once
	image      *vm.Image
}

// memo returns prog's loaded memo. The key is prog's address: a cached
// entry keeps its program reachable, so the address cannot be recycled
// while the entry lives, and the prog check guards the eviction race
// where it can.
func (e *Engine) memo(prog *isa.Program) *loaded {
	return e.images.getOrAdd(fmt.Sprintf("%p", prog),
		func(v any) bool { return v.(*loaded).prog == prog },
		func() any { return &loaded{prog: prog} }).(*loaded)
}

// Digest returns isa.ProgramDigest(prog), hashing each compiled
// program once while the engine keeps it: key derivations and the
// codegen binding in image share the result.
func (e *Engine) Digest(prog *isa.Program) string {
	return e.memo(prog).digestValue(e)
}

func (l *loaded) digestValue(e *Engine) string {
	l.digestOnce.Do(func() {
		e.digests.Add(1)
		l.digest = isa.ProgramDigest(l.prog)
	})
	return l.digest
}

// image returns the memoized pre-decoded form of prog, building it on
// first use. This makes the one-time verify/pre-decode/fuse pass free
// across the repeated runs the measurement matrix performs.
func (e *Engine) image(prog *isa.Program) *vm.Image {
	l := e.memo(prog)
	hit := true
	l.imageOnce.Do(func() {
		hit = false
		l.image = vm.LoadDigest(prog, func() string { return l.digestValue(e) })
	})
	if hit {
		e.imageHits.Add(1)
	} else {
		e.imageMisses.Add(1)
	}
	return l.image
}

// funcNames maps a program's function indices to their names for the
// folded-stack sampler.
func funcNames(prog *isa.Program) []string {
	names := make([]string, len(prog.Funcs))
	for i := range prog.Funcs {
		names[i] = prog.Funcs[i].Name
	}
	return names
}

// profile is the timed profile-extraction stage.
func (e *Engine) profile(spec *Spec, res *vm.Result) *ifprob.Profile {
	start := e.now()
	prof := ifprob.FromRun(spec.Name, spec.Dataset, res)
	d := e.now().Sub(start)
	e.st.profileNS.Add(uint64(d))
	e.st.profiles.Add(1)
	e.st.profileLat.Observe(d.Seconds())
	return prof
}

// Parallel runs f(0), …, f(n-1) with at most WorkerCount goroutines
// in flight and waits for all of them. The first error in index order
// is returned, so failure reporting is deterministic regardless of
// scheduling.
func (e *Engine) Parallel(n int, f func(i int) error) error {
	return e.ParallelContext(context.Background(), n, f)
}

// ParallelContext is Parallel honouring ctx: once the context is
// cancelled no new cell is started (its error slot is left as the
// context error), in-flight cells are expected to observe ctx
// themselves, and every started worker is always awaited — the pool
// never leaks goroutines. A panic in f is recovered into that cell's
// error slot as a *PanicError rather than tearing down siblings.
// ParallelErrors retrieves the full per-cell error slice.
func (e *Engine) ParallelContext(ctx context.Context, n int, f func(i int) error) error {
	_, err := e.parallel(ctx, n, f)
	return err
}

// ParallelErrors is ParallelContext returning the per-cell error
// slice (length n, nil for cells that succeeded) alongside the first
// error in index order. Degraded-mode callers use it to keep healthy
// cells while recording exactly which cells failed and why.
func (e *Engine) ParallelErrors(ctx context.Context, n int, f func(i int) error) ([]error, error) {
	return e.parallel(ctx, n, f)
}

func (e *Engine) parallel(ctx context.Context, n int, f func(i int) error) ([]error, error) {
	if n == 0 {
		return nil, nil
	}
	sem := make(chan struct{}, e.workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
loop:
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break loop
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					e.st.panics.Add(1)
					errs[i] = fmt.Errorf("engine: parallel cell %d: %w", i, &PanicError{Value: r})
				}
			}()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return errs, err
		}
	}
	return errs, nil
}

// cloneResult deep-copies a measurement so cached state stays
// isolated from caller mutation.
func cloneResult(r *vm.Result) *vm.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Output = append([]byte(nil), r.Output...)
	c.SiteTaken = append([]uint64(nil), r.SiteTaken...)
	c.SiteTotal = append([]uint64(nil), r.SiteTotal...)
	if r.PerPC != nil {
		c.PerPC = make([][]uint64, len(r.PerPC))
		for i := range r.PerPC {
			c.PerPC[i] = append([]uint64(nil), r.PerPC[i]...)
		}
	}
	return &c
}
