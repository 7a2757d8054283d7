// Command branchprofd serves the measurement pipeline over HTTP: a
// long-running, hardened daemon that accepts MF programs and
// datasets, accumulates per-branch profiles, and answers
// cross-dataset branch predictions. See docs/SERVER.md for the
// endpoint reference, overload behaviour and a curl walkthrough.
//
// Usage:
//
//	branchprofd [-addr :8723] [-db profiles.json] [-shards N]
//	            [-wal DIR] [-fsync record|batch|interval] [-fsync-interval D]
//	            [-cache-dir DIR] [-cache-max-bytes N]
//	            [-self ID] [-peers URL,URL,...] [-sync-interval D]
//	            [-concurrency N] [-queue N] [-request-timeout D]
//	            [-max-body N] [-max-fuel N] [-drain-timeout D]
//	            [-breaker-threshold N] [-breaker-cooldown D]
//	            [observability flags: -trace, -metrics, -metrics-addr, ...]
//
// With -shards N the profile store is a sharded directory: -db names
// the directory, keys spread over N shard files each with its own
// circuit breaker, and an existing single-file database at that path
// is migrated in place (the original is kept as ".pre-shard"). An
// already-sharded store remembers its own shard count; -shards then
// has no effect.
//
// With -wal DIR every profile mutation is appended to a write-ahead
// journal in DIR before it is acknowledged, and unapplied records are
// replayed on startup — acknowledged ingest survives a crash even when
// the store's own save never ran. -fsync picks when appends reach the
// medium: "record" (every append, the default), "batch" (once per
// ingest request) or "interval" (in the background every
// -fsync-interval). See docs/ROBUSTNESS.md "Durability contract".
//
// With -peers (a comma-separated list of the other nodes' base URLs)
// the node joins a replication cluster: profiles ingested anywhere
// reach every node by gossip anti-entropy, and each node serves
// predictions from the cluster-wide merged view. -self names this
// node — it must be stable across restarts and unique in the cluster
// (persisted data is keyed by it). See docs/STORE.md for the
// replication design and README.md for a three-node quickstart.
//
// The first SIGINT/SIGTERM starts a graceful drain: /readyz flips to
// 503, queued requests are shed, in-flight requests complete, and the
// process exits once the listener closes or -drain-timeout expires
// (whichever comes first). A second signal force-exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"branchprof/cmd/internal/cli"
	"branchprof/internal/server"
)

func main() {
	tool := cli.New("branchprofd")
	var (
		addr         = flag.String("addr", "127.0.0.1:8723", "listen address")
		dbPath       = flag.String("db", "", "persist the accumulated profile database to this path (empty = in-memory only)")
		shards       = flag.Int("shards", 0, "open -db as a sharded store with this many shards (0 = single file unless -db is already a sharded directory)")
		walDir       = flag.String("wal", "", "journal every profile mutation to a write-ahead log in this directory before acknowledging (empty = no journal)")
		walFsync     = flag.String("fsync", "record", "journal fsync policy: record, batch or interval (requires -wal)")
		walInterval  = flag.Duration("fsync-interval", 100*time.Millisecond, "background journal sync period under -fsync interval")
		concurrency  = flag.Int("concurrency", 0, "simultaneously executing requests (0 = engine worker count)")
		queue        = flag.Int("queue", 64, "requests allowed to wait beyond -concurrency before shedding with 429 (0 or -1 = none)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline, propagated into the VM")
		maxBody      = flag.Int64("max-body", 4<<20, "maximum request body bytes")
		maxFuel      = flag.Uint64("max-fuel", 1<<26, "maximum VM instructions per request")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "hard deadline for the SIGTERM graceful drain")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive persistent-I/O failures that open the circuit breaker")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "time the circuit stays open before a half-open probe")
		self         = flag.String("self", "", "this node's stable, cluster-unique ID (required with -peers; alone, enables the replication store layer without gossip)")
		peers        = flag.String("peers", "", "comma-separated base URLs of the other cluster nodes, e.g. http://10.0.0.2:8723,http://10.0.0.3:8723")
		syncInterval = flag.Duration("sync-interval", 2*time.Second, "base gossip period between anti-entropy rounds (jittered ±20%)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		tool.Usage("branchprofd [flags]")
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *self == "" {
		tool.Fatal(fmt.Errorf("-peers requires -self (a stable, cluster-unique node ID)"))
	}

	queueDepth := *queue
	if queueDepth <= 0 {
		// The flag defaults to 64, so 0 here is an operator's explicit
		// -queue 0 — "no queueing", which server.Options spells as
		// negative (its own 0 means "use the default depth").
		queueDepth = -1
	}
	srv, warns, err := server.New(server.Options{
		Engine:           tool.Engine(),
		DBPath:           *dbPath,
		Shards:           *shards,
		WALDir:           *walDir,
		WALFsync:         *walFsync,
		WALInterval:      *walInterval,
		Concurrency:      *concurrency,
		QueueDepth:       queueDepth,
		RequestTimeout:   *reqTimeout,
		MaxBodyBytes:     *maxBody,
		MaxFuel:          *maxFuel,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		SelfID:           *self,
		Peers:            peerList,
		SyncInterval:     *syncInterval,
		Obs:              tool.Obs(),
		OnDrained:        tool.Finish,
	})
	for _, w := range warns {
		tool.Warn("%s", w)
	}
	if err != nil {
		tool.Fatal(err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		tool.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "branchprofd: serving on http://%s (drain with SIGTERM)\n", bound)

	// The first signal cancels the tool context; the server then
	// drains under the hard deadline. In-flight requests keep their
	// own contexts, so they finish rather than being cancelled.
	<-tool.Context().Done()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		tool.Warn("drain incomplete: %v", err)
		tool.Finish()
		os.Exit(1)
	}
	tool.Finish()
}
