// Package cli factors the plumbing every MF command-line tool used to
// carry privately: source-file loading with the optional runtime
// prelude, dataset input reading (file or stdin), uniform error
// reporting, and the shared flags (-cache-dir, -cache-max-bytes,
// -stats, -timeout, -max-retries, -allow-partial) that give each tool
// the shared compile→run→profile pipeline with its bounded persistent
// measurement cache, per-stage statistics, and the robustness controls
// from docs/ROBUSTNESS.md. Context wires SIGINT/SIGTERM into engine
// cancellation: the first signal cancels in-flight work and still
// flushes -stats; a second force-exits.
package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/obs"
	"branchprof/internal/workloads"
)

// Tool is one command-line tool's shared state. Construct it with New
// before flag.Parse: it registers the engine flags on the default
// flag set.
type Tool struct {
	Name string

	cacheDir     *string
	cacheMax     *int64
	stats        *bool
	timeout      *time.Duration
	maxRetries   *int
	allowPartial *bool

	trace       *string
	traceChrome *string
	metrics     *string
	metricsAddr *string
	pprofAddr   *string
	vmprof      *string

	engOnce sync.Once
	eng     *engine.Engine

	ctxOnce sync.Once
	ctx     context.Context
	cancel  context.CancelFunc

	obsOnce  sync.Once
	obsB     *obs.Obs
	traceBuf *bytes.Buffer
	rootSpan *obs.Span
	servers  []*obs.Server

	finishOnce sync.Once
}

// New registers the shared engine flags and returns the tool handle.
func New(name string) *Tool {
	return &Tool{
		Name:         name,
		cacheDir:     flag.String("cache-dir", "", "persistent measurement cache directory (empty = in-memory only)"),
		cacheMax:     flag.Int64("cache-max-bytes", engine.DefaultCacheMaxBytes, "byte budget for -cache-dir; past it the least recently used entries are evicted"),
		stats:        flag.Bool("stats", false, "print engine pipeline statistics to stderr on exit"),
		timeout:      flag.Duration("timeout", 0, "overall deadline for the tool's measurement work (0 = none)"),
		maxRetries:   flag.Int("max-retries", 2, "retries for transient cache I/O faults (0 disables)"),
		allowPartial: flag.Bool("allow-partial", false, "degrade instead of failing: keep healthy results past failed cells and annotate coverage"),
		trace:        flag.String("trace", "", "write pipeline span trace as JSONL to this file"),
		traceChrome:  flag.String("trace-chrome", "", "write the span trace as a Chrome trace_event file (chrome://tracing, Perfetto)"),
		metrics:      flag.String("metrics", "", "write metrics in Prometheus text format to this file on exit"),
		metricsAddr:  flag.String("metrics-addr", "", "serve /metrics (plus pprof) on this address while the tool runs"),
		pprofAddr:    flag.String("pprof-addr", "", "serve net/http/pprof and /debug/vmprof on this address while the tool runs"),
		vmprof:       flag.String("vmprof", "", "write the VM sampling profile (folded stacks, flamegraph input) to this file"),
	}
}

// Engine returns the tool's engine, built on first use from the
// -cache-dir, -cache-max-bytes, -max-retries and observability flags.
func (t *Tool) Engine() *engine.Engine {
	t.engOnce.Do(func() {
		retries := *t.maxRetries
		if retries <= 0 {
			retries = -1 // engine spells "retries disabled" as negative; 0 picks its default
		}
		t.eng = engine.New(engine.Options{CacheDir: *t.cacheDir, CacheMaxBytes: *t.cacheMax, MaxRetries: retries, Obs: t.Obs()})
	})
	return t.eng
}

// Warn reports a non-fatal problem to stderr, prefixed with the tool
// name: observability and persistence are best-effort and never kill
// a measurement. Exported for long-running tools (branchprofd) that
// surface startup and drain warnings through the same channel.
func (t *Tool) Warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, t.Name+": warning: "+format+"\n", args...)
}

// Obs builds the tool's observability bundle from the -trace,
// -trace-chrome, -metrics-addr, -pprof-addr and -vmprof flags on
// first use, starting the HTTP servers when addresses were given. It
// returns nil when none of those flags ask for anything, so the
// engine's hot paths keep their disabled-sink cost (the -metrics file
// export needs no bundle: it reads the engine's registry at Finish).
func (t *Tool) Obs() *obs.Obs {
	t.obsOnce.Do(func() {
		tracing := *t.trace != "" || *t.traceChrome != ""
		profiling := *t.vmprof != "" || *t.pprofAddr != ""
		serving := *t.metricsAddr != "" || *t.pprofAddr != ""
		if !tracing && !profiling && !serving {
			return
		}
		o := &obs.Obs{Reg: obs.NewRegistry()}
		if tracing {
			t.traceBuf = &bytes.Buffer{}
			o.Tr = obs.NewTracer(t.traceBuf, nil)
		}
		if profiling {
			o.VMProf = obs.NewVMProfile()
		}
		t.obsB = o
		t.rootSpan = o.Tracer().Start(nil, "tool/"+t.Name)
		for _, addr := range []string{*t.metricsAddr, *t.pprofAddr} {
			if addr == "" {
				continue
			}
			srv, err := obs.Serve(addr, o.Reg, o.VMProf)
			if err != nil {
				t.Warn("observability server on %s: %v", addr, err)
				continue
			}
			t.servers = append(t.servers, srv)
		}
	})
	return t.obsB
}

// Finish flushes every observability sink and the -stats line: the
// trace JSONL and its Chrome conversion, the Prometheus metrics file,
// the folded VM profile, and the HTTP servers. Idempotent; every tool
// exit path (including Fatal) funnels through it. Sink failures warn
// rather than fail — the measurement already succeeded.
func (t *Tool) Finish() {
	t.finishOnce.Do(func() {
		// Materialize the bundle even if no engine work ran (e.g. a
		// listing-only invocation): the flags still promise output.
		t.Obs()
		t.rootSpan.End()
		if tr := t.obsB.Tracer(); tr != nil {
			if err := tr.Err(); err != nil {
				t.Warn("%v", err)
			}
			if *t.trace != "" {
				if err := os.WriteFile(*t.trace, t.traceBuf.Bytes(), 0o644); err != nil {
					t.Warn("writing -trace: %v", err)
				}
			}
			if *t.traceChrome != "" {
				var out bytes.Buffer
				if err := obs.WriteChromeTrace(&out, bytes.NewReader(t.traceBuf.Bytes())); err != nil {
					t.Warn("converting -trace-chrome: %v", err)
				} else if err := os.WriteFile(*t.traceChrome, out.Bytes(), 0o644); err != nil {
					t.Warn("writing -trace-chrome: %v", err)
				}
			}
		}
		if *t.metrics != "" {
			var out bytes.Buffer
			if err := t.Engine().Registry().WritePrometheus(&out); err != nil {
				t.Warn("rendering -metrics: %v", err)
			} else if err := os.WriteFile(*t.metrics, out.Bytes(), 0o644); err != nil {
				t.Warn("writing -metrics: %v", err)
			}
		}
		if vp := t.obsB.VMProfile(); vp != nil && *t.vmprof != "" {
			var out bytes.Buffer
			if err := vp.WriteFolded(&out); err != nil {
				t.Warn("rendering -vmprof: %v", err)
			} else if err := os.WriteFile(*t.vmprof, out.Bytes(), 0o644); err != nil {
				t.Warn("writing -vmprof: %v", err)
			}
		}
		for _, srv := range t.servers {
			srv.Close()
		}
		t.PrintStats()
	})
}

// Context returns the tool's root context, honouring -timeout, and
// installs the signal handler on first use: the first SIGINT/SIGTERM
// cancels the context (in-flight engine work unwinds promptly and the
// tool still flushes -stats on its way out through Fatal), a second
// signal force-exits with the conventional status 130. Tools that
// never call Context keep the default die-on-^C behaviour.
func (t *Tool) Context() context.Context {
	t.ctxOnce.Do(func() {
		if *t.timeout > 0 {
			t.ctx, t.cancel = context.WithTimeout(context.Background(), *t.timeout)
		} else {
			t.ctx, t.cancel = context.WithCancel(context.Background())
		}
		// With tracing on, hang the tool-level root span on the context
		// so every pipeline span nests under it.
		if t.Obs() != nil && t.rootSpan != nil {
			t.ctx = obs.ContextWithSpan(t.ctx, t.rootSpan)
		}
		ch := make(chan os.Signal, 2)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-ch
			fmt.Fprintf(os.Stderr, "%s: %v: cancelling (again to force exit)\n", t.Name, sig)
			t.cancel()
			<-ch
			os.Exit(130)
		}()
	})
	return t.ctx
}

// AllowPartial reports the -allow-partial flag.
func (t *Tool) AllowPartial() bool { return *t.allowPartial }

// PrintStats writes the engine's pipeline statistics to stderr when
// -stats was given. Call it after the tool's real work.
func (t *Tool) PrintStats() {
	if t.stats == nil || !*t.stats {
		return
	}
	fmt.Fprintln(os.Stderr, t.Engine().Stats().String())
}

// Fatal reports err prefixed with the tool name and exits 1. The
// observability sinks and -stats output are flushed first, so a
// cancelled or failed run still reports what the pipeline managed to
// do — the paper's methodology leans on knowing how much measurement
// a run completed.
func (t *Tool) Fatal(err error) {
	t.Finish()
	fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
	os.Exit(1)
}

// Usage prints the usage line and exits 2.
func (t *Tool) Usage(usage string) {
	fmt.Fprintln(os.Stderr, "usage:", usage)
	os.Exit(2)
}

// LoadSource reads an MF source file, derives the program name from
// the file's base name, and optionally prepends the runtime prelude
// (puti, geti, …).
func LoadSource(path string, prelude bool) (name, source string, err error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	source = string(src)
	if prelude {
		source = workloads.Prelude() + source
	}
	return name, source, nil
}

// ReadInput returns the dataset bytes: the named file, or all of
// stdin when path is empty.
func ReadInput(path string) ([]byte, error) {
	if path != "" {
		return os.ReadFile(path)
	}
	return io.ReadAll(os.Stdin)
}

// InputLabel names the dataset for profiles and cache entries: the
// input file's base name, or "stdin".
func InputLabel(path string) string {
	if path == "" {
		return "stdin"
	}
	return filepath.Base(path)
}
