// Command loadgen drives an in-process branchprofd deployment with a
// profile-ingest workload and reports the results as Go benchmark
// lines on stdout:
//
//	go run ./cmd/loadgen -rounds 3
//
// The same workload — n profiles per round spread over several
// programs and datasets on a sharded store — runs through each ingest
// path in turn:
//
//	BenchmarkServerIngestSingle   one POST /v1/profile per profile
//	BenchmarkServerIngestBatch    POST /v1/profile/batch, -batch entries per request
//	BenchmarkServerIngestStream   POST /v1/profile/stream, NDJSON
//
// ns/op is per profile, so the lines are directly comparable: the
// batch and stream paths amortize admission, HTTP framing and — above
// all — the per-shard fsync'd save that the single path pays on every
// request. Batch and stream lines also carry an x_vs_single metric
// (>1 means faster than the single-request path). The server is real
// (HTTP over loopback via httptest), the store is a throwaway sharded
// directory unless -db points somewhere durable.
//
// With -nodes N > 1 the target is an N-node replication cluster (full
// mesh, see docs/STORE.md) and the client routes each profile to its
// home node by rendezvous hash of the program@dataset key
// (internal/route), failing over to the next node in the key's
// preference order when a node is unreachable or answers 5xx. Each
// timed round then also pays one anti-entropy sync per node, so the
// routed numbers include replication's cost. Benchmark names gain a
// RoutedN suffix:
//
//	BenchmarkServerIngestSingleRouted3 ...
//
// With -wal-fsync POLICY every node journals ingest through a
// write-ahead log before acknowledging (see docs/ROBUSTNESS.md
// "Durability contract"); benchmark names gain a WALRecord /
// WALBatch / WALInterval suffix, so the lines price what each
// durability point costs against the journal-free baseline.
//
// On 429 (admission shed) the client honors the server's Retry-After
// hint with jittered backoff instead of failing the run, in routed
// and single-node mode alike.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"branchprof/internal/route"
	"branchprof/internal/server"
)

// branchySrc branches on every input byte (taken exactly on 'a'), so
// each distinct input is genuinely new profile work for the VM.
const branchySrc = `
func main() int {
	var n int = 0;
	var c int = getc();
	while (c >= 0) {
		if (c == 97) {
			n = n + 1;
		}
		c = getc();
	}
	return n;
}
`

type profileEntry struct {
	Program string `json:"program"`
	Source  string `json:"source"`
	Dataset string `json:"dataset"`
	Input   string `json:"input"`
}

// key is the entry's routing key — the same program@dataset composite
// the server stores it under.
func (e profileEntry) key() string { return e.Program + "@" + e.Dataset }

// workload builds n profile requests for one (mode, round) pair. The
// input embeds mode and round so no request is ever a run-cache hit —
// every ingest path does the same amount of real VM work.
func workload(mode string, round, n, programs, datasets int) []profileEntry {
	entries := make([]profileEntry, n)
	for i := range entries {
		entries[i] = profileEntry{
			Program: fmt.Sprintf("prog%02d", i%programs),
			Source:  branchySrc,
			Dataset: fmt.Sprintf("d%d", i%datasets),
			Input:   fmt.Sprintf("%s-%d-%d-abab", mode, round, i),
		}
	}
	return entries
}

// nodeErr marks a node-level failure — transport error or 5xx/503 —
// that a routed client should answer by failing over to the key's
// next-preferred node. Non-node errors (4xx: the request itself is
// bad) abort instead of retrying elsewhere.
type nodeErr struct {
	node string
	err  error
}

func (e *nodeErr) Error() string { return fmt.Sprintf("node %s: %v", e.node, e.err) }
func (e *nodeErr) Unwrap() error { return e.err }

// client posts to a deployment: one node, or a routed cluster.
type client struct {
	http  *http.Client
	nodes []string // base URLs; len 1 = standalone
	// max429Retries bounds Retry-After loops per node so a wedged
	// server cannot hang the run.
	max429Retries int
	retried429    atomic.Uint64
	failovers     atomic.Uint64
}

// post sends body to path on the key's home node, failing over along
// the key's rendezvous preference order on node-level errors.
func (c *client) post(key, path, contentType string, body []byte) error {
	order := c.nodes
	if len(c.nodes) > 1 {
		order = route.Order(c.nodes, key)
	}
	var lastErr error
	for i, node := range order {
		if i > 0 {
			c.failovers.Add(1)
		}
		err := c.postNode(node, path, contentType, body)
		if err == nil {
			return nil
		}
		var ne *nodeErr
		if !errors.As(err, &ne) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// postNode posts to one node, honoring 429 Retry-After with jittered
// backoff.
func (c *client) postNode(node, path, contentType string, body []byte) error {
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Post(node+path, contentType, bytes.NewReader(body))
		if err != nil {
			return &nodeErr{node: node, err: err}
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < c.max429Retries:
			// Shed by admission control: the server told us when to come
			// back; jitter the hint so retrying clients don't re-arrive
			// in the same burst that got them shed.
			c.retried429.Add(1)
			time.Sleep(jitter(retryAfter(resp.Header)))
		case resp.StatusCode >= http.StatusInternalServerError:
			return &nodeErr{node: node, err: fmt.Errorf("%s: %d: %.200s", path, resp.StatusCode, raw)}
		default:
			return fmt.Errorf("%s%s: %d: %.200s", node, path, resp.StatusCode, raw)
		}
	}
}

// retryAfter parses the Retry-After seconds hint, defaulting to 1s.
func retryAfter(h http.Header) time.Duration {
	if s, err := strconv.Atoi(h.Get("Retry-After")); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return time.Second
}

// jitter spreads d over [d/2, d): full coordination-avoiding jitter
// would use [0, d), but honoring at least half the server's hint keeps
// the retry honest under sustained overload.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// groupByNode splits entries by home node, preserving order within
// each group — the batch/stream unit of a routed client.
func groupByNode(nodes []string, entries []profileEntry) map[string][]profileEntry {
	groups := make(map[string][]profileEntry)
	if len(nodes) == 1 {
		groups[nodes[0]] = entries
		return groups
	}
	for _, e := range entries {
		n := route.Pick(nodes, e.key())
		groups[n] = append(groups[n], e)
	}
	return groups
}

func main() {
	var (
		n        = flag.Int("n", 64, "profiles per round per ingest path")
		rounds   = flag.Int("rounds", 3, "measured rounds (one extra warmup round runs first)")
		programs = flag.Int("programs", 8, "distinct programs in the workload")
		datasets = flag.Int("datasets", 2, "datasets per program")
		batch    = flag.Int("batch", 64, "entries per /v1/profile/batch request")
		shards   = flag.Int("shards", 4, "store shards per node")
		nodeN    = flag.Int("nodes", 1, "cluster size; >1 benchmarks hash-routed ingest across a replicated full mesh")
		dbPath   = flag.String("db", "", "store path (node index appended when -nodes > 1; default: throwaway temp dir)")
		walFsync = flag.String("wal-fsync", "", "journal ingest through a write-ahead log with this fsync policy (record, batch or interval); empty = no journal")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if *nodeN < 1 {
		fail(fmt.Errorf("-nodes must be at least 1"))
	}

	dir := *dbPath
	if dir == "" {
		tmp, err := os.MkdirTemp("", "loadgen-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "profiles.d")
	}

	// Allocate every node's URL before building any server — each node
	// needs the full peer list at construction.
	handlers := make([]*switchHandler, *nodeN)
	urls := make([]string, *nodeN)
	for i := range handlers {
		handlers[i] = &switchHandler{}
		ts := httptest.NewServer(handlers[i])
		defer ts.Close()
		urls[i] = ts.URL
	}
	servers := make([]*server.Server, *nodeN)
	for i := range servers {
		opts := server.Options{DBPath: dir, Shards: *shards}
		if *nodeN > 1 {
			opts.DBPath = fmt.Sprintf("%s-node%d", dir, i+1)
			opts.SelfID = fmt.Sprintf("node%d", i+1)
			for j, u := range urls {
				if j != i {
					opts.Peers = append(opts.Peers, u)
				}
			}
			opts.SyncInterval = time.Hour // rounds sync explicitly, see below
		}
		if *walFsync != "" {
			opts.WALDir = opts.DBPath + "-wal"
			opts.WALFsync = *walFsync
		}
		srv, warns, err := server.New(opts)
		if err != nil {
			fail(err)
		}
		for _, w := range warns {
			fmt.Fprintln(os.Stderr, "loadgen: startup warning:", w)
		}
		servers[i] = srv
		handlers[i].set(srv.Handler())
	}

	cl := &client{http: http.DefaultClient, nodes: urls, max429Retries: 8}

	// syncCluster is the replication cost a routed round pays: one
	// anti-entropy pull per node, so ingested components spread.
	syncCluster := func() error {
		if *nodeN == 1 {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, srv := range servers {
			if err := srv.SyncNow(ctx); err != nil {
				return err
			}
		}
		return nil
	}

	single := func(mode string, round int) error {
		for _, e := range workload(mode, round, *n, *programs, *datasets) {
			if err := cl.post(e.key(), "/v1/profile", "application/json", mustJSON(e)); err != nil {
				return err
			}
		}
		return syncCluster()
	}
	batched := func(mode string, round int) error {
		entries := workload(mode, round, *n, *programs, *datasets)
		for node, group := range groupByNode(urls, entries) {
			for len(group) > 0 {
				chunk := group
				if len(chunk) > *batch {
					chunk = chunk[:*batch]
				}
				group = group[len(chunk):]
				body := mustJSON(map[string]any{"entries": chunk})
				// The group shares a home node but each chunk re-routes by
				// its first key, so failover still works per request.
				if err := cl.post(chunk[0].key(), "/v1/profile/batch", "application/json", body); err != nil {
					_ = node
					return err
				}
			}
		}
		return syncCluster()
	}
	streamed := func(mode string, round int) error {
		entries := workload(mode, round, *n, *programs, *datasets)
		for _, group := range groupByNode(urls, entries) {
			var buf bytes.Buffer
			for _, e := range group {
				buf.Write(mustJSON(e))
				buf.WriteByte('\n')
			}
			if err := cl.post(group[0].key(), "/v1/profile/stream", "application/x-ndjson", buf.Bytes()); err != nil {
				return err
			}
		}
		return syncCluster()
	}

	suffix := ""
	if *nodeN > 1 {
		suffix = fmt.Sprintf("Routed%d", *nodeN)
	}
	if p := *walFsync; p != "" {
		suffix += "WAL" + strings.ToUpper(p[:1]) + p[1:]
	}
	paths := []struct {
		name string
		run  func(mode string, round int) error
	}{
		{"ServerIngestSingle" + suffix, single},
		{"ServerIngestBatch" + suffix, batched},
		{"ServerIngestStream" + suffix, streamed},
	}

	// Warmup: compile the programs, fault in the stores, open sockets.
	for _, p := range paths {
		if err := p.run("warm-"+p.name, 0); err != nil {
			fail(err)
		}
	}

	nsPerOp := map[string]float64{}
	for _, p := range paths {
		var total time.Duration
		for r := 1; r <= *rounds; r++ {
			start := time.Now()
			if err := p.run(p.name, r); err != nil {
				fail(err)
			}
			total += time.Since(start)
		}
		ops := *n * *rounds
		nsPerOp[p.name] = float64(total.Nanoseconds()) / float64(ops)
		line := fmt.Sprintf("Benchmark%s %d %.0f ns/op %.1f profiles/s",
			p.name, ops, nsPerOp[p.name], float64(ops)/total.Seconds())
		if base := nsPerOp["ServerIngestSingle"+suffix]; p.name != "ServerIngestSingle"+suffix && base > 0 {
			line += fmt.Sprintf(" %.2f x_vs_single", base/nsPerOp[p.name])
		}
		fmt.Println(line)
	}
	if n := cl.retried429.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d requests shed with 429 and retried after backoff\n", n)
	}
	if n := cl.failovers.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d requests failed over to a non-home node\n", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Drain(ctx); err != nil {
			fail(fmt.Errorf("drain: %w", err))
		}
	}
}

// switchHandler lets the node URLs exist before the servers behind
// them: every cluster node needs every other node's URL at
// construction time.
type switchHandler struct{ h atomic.Value }

type handlerBox struct{ h http.Handler }

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if box, ok := sw.h.Load().(handlerBox); ok && box.h != nil {
		box.h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node starting", http.StatusServiceUnavailable)
}

func (sw *switchHandler) set(h http.Handler) { sw.h.Store(handlerBox{h: h}) }
