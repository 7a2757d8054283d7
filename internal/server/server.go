// Package server is branchprofd: the repository's measurement
// pipeline (internal/engine) behind a long-running, hardened HTTP
// service. Clients POST MF programs and datasets; the server compiles
// and runs them through the shared engine (reusing its caches, fault
// discipline and observability wiring), accumulates per-branch
// profiles in an ifprob database keyed by program and dataset, and
// serves cross-dataset predictions — the paper's feedback loop
// (profile previous runs, predict the next one) as an online service.
//
// The robustness machinery is the point of the package:
//
//   - admission control: a concurrency semaphore sized to the engine
//     pool plus a bounded waiting queue; a burst beyond both is shed
//     immediately with 429 and a Retry-After hint, so overload can
//     never queue unbounded goroutines or memory;
//   - per-request deadlines propagated as contexts into the VM's
//     cancellation poll (408/504 instead of a wedged worker);
//   - strict input validation and body size limits: compiler errors
//     are 400, VM traps (fuel, stack, output) are 422 — hostile input
//     never crashes the process;
//   - panic-to-500 recovery middleware around every handler;
//   - circuit breakers around persistent I/O: the single-file store is
//     guarded by a server-wide breaker (plus the engine cache's error
//     feed), while the sharded store carries one breaker per shard —
//     either way, when a disk misbehaves the server degrades to
//     compute-only mode (profiles stay in memory, saves are skipped
//     until a half-open probe succeeds) and reports the degradation
//     via /healthz and metrics;
//   - /healthz and /readyz endpoints, and SIGTERM graceful drain with
//     a hard deadline: readiness flips first, in-flight requests
//     complete, queued requests are shed with 503.
//
// See docs/SERVER.md for the endpoint reference and a walkthrough.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"branchprof/internal/circuit"
	"branchprof/internal/engine"
	"branchprof/internal/faults"
	"branchprof/internal/obs"
	"branchprof/internal/store"
	"branchprof/internal/store/replstore"
	"branchprof/internal/store/wal"

	_ "branchprof/internal/store/memstore"   // linked store driver: "mem"
	_ "branchprof/internal/store/shardstore" // linked store driver: "shard"
)

// Options configures a Server.
type Options struct {
	// Engine is the measurement pipeline; nil builds a private one
	// from CacheDir/Faults/Obs.
	Engine *engine.Engine
	// CacheDir enables the engine's persistent measurement cache when
	// Engine is nil.
	CacheDir string
	// DBPath, when non-empty, persists the accumulated profile store
	// there (loaded at startup, saved after each update through the
	// circuit breaker, final save on drain). A file is a single-file
	// store; a directory is a sharded store (auto-detected by its
	// manifest). Ignored when Store is set.
	DBPath string
	// Shards, when > 0, opens DBPath as a sharded store: a fresh path
	// is created with that many shards, and an existing single-file
	// database is migrated in place (original kept as ".pre-shard").
	// An existing sharded store's manifest wins over this value.
	Shards int
	// Store, when non-nil, is used directly and DBPath/Shards are
	// ignored — the injection point for tests and embedders.
	Store store.Store
	// WALDir, when non-empty, journals every profile mutation to a
	// write-ahead log in that directory before it is acknowledged, and
	// replays unapplied records on startup — acknowledged ingest
	// survives a crash even when the driver's save never ran (see
	// docs/ROBUSTNESS.md "Durability contract"). The underlying driver
	// must support checkpoints (both built-in drivers do).
	WALDir string
	// WALFsync picks when journal appends reach the medium: "record"
	// (fsync inside every append — strongest, slowest), "batch" (fsync
	// once per ingest request before the acknowledgement) or "interval"
	// (background fsync every WALInterval — weakest, fastest). Empty
	// means "record".
	WALFsync string
	// WALInterval is the background sync period under the "interval"
	// policy; 0 means 100ms.
	WALInterval time.Duration
	// Concurrency bounds simultaneously executing requests;
	// 0 means the engine's worker count.
	Concurrency int
	// QueueDepth bounds requests waiting for an execution slot beyond
	// Concurrency; anything past both is shed with 429. 0 means 64,
	// negative means no queue (immediate shed when busy).
	QueueDepth int
	// RequestTimeout is the per-request deadline propagated into the
	// VM; 0 means 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 means 4 MiB.
	MaxBodyBytes int64
	// MaxFuel caps the instruction budget a request may ask for (and
	// is the default when it asks for none); 0 means 1<<26. Keeping it
	// well below the VM's offline default bounds slot hold time.
	MaxFuel uint64
	// RetryAfter is the Retry-After hint on 429/503 responses;
	// 0 means 1s.
	RetryAfter time.Duration
	// BreakerThreshold is the consecutive persistent-I/O failures that
	// open the circuit; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a
	// half-open probe; 0 means 5s.
	BreakerCooldown time.Duration
	// Peers lists the base URLs of the other branchprofd nodes in the
	// replication cluster (e.g. "http://10.0.0.2:7070"). Non-empty
	// turns on peer replication: the store is wrapped in
	// internal/store/replstore, the /v1/sync endpoints open, and a
	// gossip loop anti-entropy-syncs with every peer. Requires SelfID.
	Peers []string
	// SelfID is this node's stable, cluster-unique origin ID (persisted
	// component keys embed it). Required when Peers is set; setting it
	// alone enables the replication layer without a gossip loop (a
	// single-node cluster peers can still pull from).
	SelfID string
	// SyncInterval is the base gossip period (jittered ±20% per round);
	// 0 means 2s.
	SyncInterval time.Duration
	// SyncTimeout bounds one full peer exchange (digest + pulls);
	// 0 means 5s.
	SyncTimeout time.Duration
	// SyncConcurrency bounds simultaneous peer syncs within a round;
	// 0 means 4.
	SyncConcurrency int
	// Faults injects faults into the server's own persistence stages
	// and peer-sync exchanges (chaos tests only; nil in production).
	// The engine carries its own set.
	Faults *faults.Set
	// Obs supplies observability sinks (metrics registry, tracer,
	// clock). Nil-safe throughout.
	Obs *obs.Obs
	// OnDrained, when non-nil, runs after a drain completes — the hook
	// cmd/branchprofd uses to flush observability sinks before exit.
	OnDrained func()
}

// Server is the branchprofd HTTP service. Construct with New, attach
// with Handler or Listen, stop with Drain (graceful) or Close (hard).
type Server struct {
	opts    Options
	eng     *engine.Engine
	store   store.Store
	guarded bool             // the store isolates its own save failures (per-shard breakers)
	wal     *wal.Store       // non-nil when WALDir journaling is on
	repl    *replstore.Store // non-nil when peer replication is on
	syncer  *syncer          // non-nil when Peers is non-empty
	gate    *gate
	breaker *circuit.Breaker
	mux     *http.ServeMux

	ready    atomic.Bool
	draining atomic.Bool

	dbMu sync.Mutex // serializes unguarded-store saves and the save/skip decision

	httpMu sync.Mutex
	http   *http.Server
	lis    net.Listener

	startedAt time.Time

	m *serverMetrics
}

// New builds the server, opening the profile store at DBPath (single
// file or sharded directory; see internal/store). Corrupt persisted
// state is quarantined (renamed aside with a ".corrupt" suffix)
// rather than refusing to start or silently overwriting evidence; the
// server then starts empty and says so in the returned warnings, as
// does a completed single-file → sharded migration.
func New(opts Options) (*Server, Warnings, error) {
	var warns Warnings
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Options{CacheDir: opts.CacheDir, Faults: opts.Faults, Obs: opts.Obs})
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = eng.WorkerCount()
	}
	switch {
	case opts.QueueDepth == 0:
		opts.QueueDepth = 64
	case opts.QueueDepth < 0:
		opts.QueueDepth = 0
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 4 << 20
	}
	if opts.MaxFuel == 0 {
		opts.MaxFuel = 1 << 26
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 2 * time.Second
	}
	if opts.SyncTimeout <= 0 {
		opts.SyncTimeout = 5 * time.Second
	}
	if opts.SyncConcurrency <= 0 {
		opts.SyncConcurrency = 4
	}
	if len(opts.Peers) > 0 && opts.SelfID == "" {
		return nil, nil, errors.New("server: Peers requires SelfID (a stable, cluster-unique node ID)")
	}
	s := &Server{
		opts:      opts,
		eng:       eng,
		gate:      newGate(opts.Concurrency, opts.QueueDepth),
		breaker:   circuit.New(opts.BreakerThreshold, opts.BreakerCooldown, opts.Obs.Now),
		startedAt: opts.Obs.Now(),
	}
	s.store = opts.Store
	if s.store == nil {
		st, w, err := store.Open(context.Background(), opts.DBPath, store.Options{
			Shards:           opts.Shards,
			BreakerThreshold: opts.BreakerThreshold,
			BreakerCooldown:  opts.BreakerCooldown,
			Faults:           opts.Faults,
			Now:              opts.Obs.Now,
		})
		warns = append(warns, w...)
		if err != nil {
			return nil, warns, fmt.Errorf("server: opening profile store: %w", err)
		}
		s.store = st
	}
	if opts.WALDir != "" && opts.Store == nil && opts.DBPath == "" {
		// An in-memory store's Save is a successful no-op, which would
		// let the journal truncate records that are durable nowhere.
		return nil, warns, errors.New("server: WALDir requires a persistent store (set DBPath)")
	}
	if opts.WALDir != "" {
		// The journal sits below the replication layer so that composite
		// component keys, sync-pull applies and origin adoptions are all
		// journaled mutations — a crashed node replays its replicated
		// state too.
		ws, w, err := wal.Wrap(context.Background(), s.store, opts.WALDir, wal.Options{
			Fsync:    wal.FsyncPolicy(opts.WALFsync),
			Interval: opts.WALInterval,
			Faults:   opts.Faults,
		})
		warns = append(warns, w...)
		if err != nil {
			return nil, warns, fmt.Errorf("server: opening write-ahead journal: %w", err)
		}
		s.wal = ws
		s.store = ws
	}
	if opts.SelfID != "" {
		rs, w, err := replstore.Wrap(context.Background(), s.store, replstore.Config{Self: opts.SelfID})
		warns = append(warns, w...)
		if err != nil {
			return nil, warns, fmt.Errorf("server: wrapping store for replication: %w", err)
		}
		s.repl = rs
		s.store = rs
		if len(opts.Peers) > 0 {
			s.syncer = newSyncer(s, rs)
		}
	}
	s.guarded = s.store.Stats().Guarded
	s.m = newServerMetrics(eng.Registry(), s)
	s.mux = s.buildMux()
	return s, warns, nil
}

// Warnings are non-fatal startup conditions the operator should see.
type Warnings []string

// Engine returns the engine the server routes work through.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Store returns the accumulated profile store (live handle; stores
// are safe for concurrent use).
func (s *Server) Store() store.Store { return s.store }

// buildMux wires the endpoint table. Every API handler runs inside
// the recover/metrics middleware; health endpoints bypass admission
// control so an overloaded server still answers its probes.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/v1/profile", s.instrument("profile", s.admitted(s.handleProfile)))
	mux.Handle("/v1/profile/batch", s.instrument("profile_batch", s.admitted(s.handleProfileBatch)))
	mux.Handle("/v1/profile/stream", s.instrument("profile_stream", s.admitted(s.handleProfileStream)))
	mux.Handle("/v1/predict", s.instrument("predict", s.admitted(s.handlePredict)))
	mux.Handle("/v1/h2p", s.instrument("h2p", s.admitted(s.handleH2P)))
	mux.Handle("/v1/programs", s.instrument("programs", http.HandlerFunc(s.handlePrograms)))
	if s.repl != nil {
		// The sync plane bypasses admission control like the health
		// endpoints: anti-entropy must keep working while the compute
		// plane is saturated, or overload would wedge convergence.
		mux.Handle("/v1/sync/digest", s.instrument("sync_digest", http.HandlerFunc(s.handleSyncDigest)))
		mux.Handle("/v1/sync/pull", s.instrument("sync_pull", http.HandlerFunc(s.handleSyncPull)))
	}
	mux.Handle("/healthz", s.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/readyz", s.instrument("readyz", http.HandlerFunc(s.handleReadyz)))
	if reg := s.eng.Registry(); reg != nil {
		mux.Handle("/metrics", reg)
	}
	return mux
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr and serves in a background goroutine with the
// full set of listener timeouts (see docs/SERVER.md). It flips
// readiness on and returns the bound address, useful with ":0".
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	s.httpMu.Lock()
	s.http = srv
	s.lis = lis
	s.httpMu.Unlock()
	s.ready.Store(true)
	go srv.Serve(lis) //nolint:errcheck // ErrServerClosed after Drain/Close
	if s.syncer != nil {
		go s.syncer.run()
	}
	return lis.Addr().String(), nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// BeginDrain flips the server into draining mode without touching the
// listener: /readyz starts answering 503 (so load balancers stop
// sending traffic while the listener is still open), no new request
// is admitted, and queued requests unblock with 503. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.ready.Store(false)
		s.gate.beginDrain()
	}
}

// Drain gracefully shuts the server down: BeginDrain, then wait for
// in-flight requests to complete and the listener to close, bounded
// by ctx (the hard deadline — when it expires remaining connections
// are force-closed and ctx.Err is returned). The store gets a final
// best-effort save through the circuit breaker(s), and OnDrained
// runs last.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.stopSync()
	s.httpMu.Lock()
	srv := s.http
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
		if err != nil {
			srv.Close()
		}
	}
	// The final save must not be cancelled by an already-expired drain
	// deadline — it is the last chance for in-memory profiles to reach
	// disk.
	s.saveDB(context.Background())
	if s.opts.OnDrained != nil {
		s.opts.OnDrained()
	}
	return err
}

// stopSync stops the gossip loop (if any) and waits for the in-flight
// round, so shutdown's final save sees replication quiesced. Safe to
// call when the loop never started (Listen not reached): syncer.run
// exits on the closed stop channel whenever it would have begun.
func (s *Server) stopSync() {
	if s.syncer == nil {
		return
	}
	s.httpMu.Lock()
	started := s.lis != nil
	s.httpMu.Unlock()
	if started {
		s.syncer.shutdown()
	} else {
		s.syncer.stopOnce.Do(func() { close(s.syncer.stop) })
	}
}

// Close stops the server immediately (tests, fatal paths).
func (s *Server) Close() error {
	s.BeginDrain()
	s.stopSync()
	s.httpMu.Lock()
	srv := s.http
	s.httpMu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Degraded reports whether the server is in (possibly partial)
// compute-only degraded mode: the server-wide persistent-I/O circuit
// is open or probing, or — for a sharded store — any shard's breaker
// is, or the write-ahead journal is broken (a torn append poisoned
// the log's tail; no further ingest can be made durable).
func (s *Server) Degraded() bool {
	if s.breaker.Degraded() || s.store.Stats().Degraded {
		return true
	}
	return s.wal != nil && s.wal.Broken()
}

// commit is the one commit point every ingest path shares — a
// single request, a batch, each stream save window and each sync pull
// — for the keys whose mutations it applied: it drives the journal to
// its fsync policy's commit point (under "record" every append already
// synced, under "batch" this is the fsync, under "interval" the sync
// is owed to the background ticker), then saves the touched keys
// through saveDB. Both steps run detached from request cancellation:
// the mutations are already applied, so a client that goes away
// between merge and save must lose neither the fsync nor the save,
// and must not count as a disk failure in the breaker. journaled
// reports whether the mutations are in the journal per the policy
// (false without a journal, or when the commit failed) and saved
// whether they reached the driver's disk; with nothing touched both
// are false and nothing runs.
func (s *Server) commit(ctx context.Context, touched []string) (journaled, saved bool) {
	if len(touched) == 0 {
		return false, false
	}
	ctx = context.WithoutCancel(ctx)
	journaled = s.wal != nil && !s.wal.Broken() &&
		(s.wal.Policy() != wal.FsyncBatch || s.wal.Sync(ctx) == nil)
	return journaled, s.saveDB(ctx, touched...)
}

// instrument is the outermost middleware: panic-to-500 recovery plus
// the request counter and latency histogram.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.opts.Obs.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx, sp := s.opts.Obs.Start(r.Context(), "serve."+route)
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Inc()
				// The handler may have written nothing yet; best-effort 500.
				writeError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
			// End the span here, not inline after ServeHTTP: a handler
			// panic would otherwise leak it unended in the tracer.
			sp.SetAttr("code", sw.code)
			sp.End()
			s.m.observe(route, sw.code, s.opts.Obs.Now().Sub(start))
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// admitted wraps an execution-bearing handler in admission control
// and the per-request deadline. Shed requests get 429 + Retry-After,
// drain rejections 503 + Retry-After, and a client that gives up
// while queued is released without ever taking a slot.
func (s *Server) admitted(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.gate.acquire(r.Context())
		if err != nil {
			retry := strconv.Itoa(int((s.opts.RetryAfter + time.Second - 1) / time.Second))
			switch {
			case errors.Is(err, errShed):
				s.m.shedQueueFull.Inc()
				w.Header().Set("Retry-After", retry)
				writeError(w, http.StatusTooManyRequests, "queue full, retry later")
			case errors.Is(err, errDraining):
				s.m.shedDraining.Inc()
				w.Header().Set("Retry-After", retry)
				writeError(w, http.StatusServiceUnavailable, "server draining")
			default: // client went away while queued
				writeError(w, statusClientGone, "client cancelled while queued")
			}
			return
		}
		defer release()
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		next(w, r.WithContext(ctx))
	})
}

// statusClientGone mirrors nginx's non-standard 499 "client closed
// request" — the connection is usually gone, the code feeds metrics.
const statusClientGone = 499

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming handlers (NDJSON
// ingest) can push partial responses through the metrics wrapper —
// without this the handler's Flusher assertion fails and a streaming
// client sees nothing until the request ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// controller features the wrapper doesn't re-implement (full-duplex
// streaming, deadlines) reach the real connection.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// saveDB persists the store (the shards owning keys, or everything
// dirty when keys is empty) through the appropriate circuit breaker.
// Unguarded stores (the single file) route through the server-wide
// breaker, preserving the original compute-only degradation contract;
// guarded stores (sharded) isolate failures per shard themselves.
// Returns whether the selected profile data is durable on disk (false
// when persistence is unconfigured, skipped by an open circuit, or
// failed).
func (s *Server) saveDB(ctx context.Context, keys ...string) bool {
	if s.guarded {
		err := s.store.Save(ctx, keys...)
		switch {
		case err == nil:
			s.m.dbSaves.Inc()
			return true
		case errors.Is(err, store.ErrDegraded):
			s.m.dbSkipped.Inc()
		default:
			s.m.dbErrors.Inc()
		}
		return false
	}
	if !s.store.Stats().Persistent {
		return false
	}
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if !s.breaker.Allow() {
		s.m.dbSkipped.Inc()
		return false
	}
	err := s.store.Save(ctx, keys...)
	s.breaker.Record(err)
	if err != nil {
		s.m.dbErrors.Inc()
		return false
	}
	s.m.dbSaves.Inc()
	return true
}

// feedEngineDiskHealth routes the engine's cache-I/O failure counters
// into the circuit breaker, so a disk that only the measurement cache
// touches still trips the server into (reported) degraded mode.
func (s *Server) feedEngineDiskHealth() {
	st := s.eng.Stats()
	errs := st.DiskWriteErrs + st.RetryGiveUps
	last := s.m.lastEngineDiskErrs.Swap(errs)
	if errs > last {
		s.breaker.Record(fmt.Errorf("server: engine cache I/O errors (%d new)", errs-last))
	}
}

// uptime is the server's age, for /healthz.
func (s *Server) uptime() time.Duration {
	return s.opts.Obs.Now().Sub(s.startedAt)
}

// dbKey is the composite key profiles are stored under: program and
// dataset names are validated to exclude '@', so the join is
// unambiguous.
func dbKey(program, dataset string) string { return program + "@" + dataset }

// splitDBKey undoes dbKey.
func splitDBKey(key string) (program, dataset string) {
	if i := strings.IndexByte(key, '@'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// writeJSON renders v as the response body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not actionable
}

// writeError renders the uniform error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}
