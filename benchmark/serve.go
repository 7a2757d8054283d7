package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"branchprof/internal/ifprob"
	"branchprof/internal/obs"
	"branchprof/internal/route"
	"branchprof/internal/server"
	"branchprof/internal/store"
	"branchprof/internal/store/shardstore"
)

// clients is the number of closed-loop client goroutines: one per
// processor of the machine the benchmark was sized on (nproc = 2), so
// the load generator never outnumbers the cores it shares with the
// servers.
const clients = 2

// opTimer accumulates the durations of one kind of store call.
type opTimer struct {
	mu      sync.Mutex
	samples []time.Duration
	busy    time.Duration
}

func (o *opTimer) since(start time.Time) {
	d := time.Since(start)
	o.mu.Lock()
	o.samples = append(o.samples, d)
	o.busy += d
	o.mu.Unlock()
}

// take returns and clears what the timer accumulated.
func (o *opTimer) take() (samples []time.Duration, busy time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	samples, busy = o.samples, o.busy
	o.samples, o.busy = nil, 0
	return samples, busy
}

// checkpointedStore is a driver the write-ahead journal can wrap.
type checkpointedStore interface {
	store.Store
	store.Checkpointed
}

// timedStore decorates the node's sharded store, injected through
// server.Options.Store, to time the store layer from outside: merges
// (Merge and the replication layer's Put), saves, and reads (Get,
// Keys, Snapshot). It forwards store.Checkpointed, so the journal
// still accepts it.
type timedStore struct {
	checkpointedStore
	merge, save, read opTimer
}

func (t *timedStore) Merge(ctx context.Context, p *ifprob.Profile) error {
	defer t.merge.since(time.Now())
	return t.checkpointedStore.Merge(ctx, p)
}

func (t *timedStore) Put(ctx context.Context, p *ifprob.Profile) error {
	defer t.merge.since(time.Now())
	return t.checkpointedStore.Put(ctx, p)
}

func (t *timedStore) Save(ctx context.Context, keys ...string) error {
	defer t.save.since(time.Now())
	return t.checkpointedStore.Save(ctx, keys...)
}

func (t *timedStore) Get(ctx context.Context, key string) (*ifprob.Profile, error) {
	defer t.read.since(time.Now())
	return t.checkpointedStore.Get(ctx, key)
}

func (t *timedStore) Keys(ctx context.Context) ([]string, error) {
	defer t.read.since(time.Now())
	return t.checkpointedStore.Keys(ctx)
}

func (t *timedStore) Snapshot(ctx context.Context) (map[string]*ifprob.Profile, error) {
	defer t.read.since(time.Now())
	return t.checkpointedStore.Snapshot(ctx)
}

// node is one in-process branchprofd behind a loopback HTTP server.
type node struct {
	srv *server.Server
	ts  *httptest.Server
	st  *timedStore
}

// deployment is the set of nodes a serve workload drives, plus the
// client that drives them and the gossip loop that replicates them.
type deployment struct {
	dir    string
	nodes  []*node
	urls   []string
	client *client

	gossipCtx  context.Context
	stopGossip context.CancelFunc
	gossipWG   sync.WaitGroup
}

// deployOptions describes a deployment.
type deployOptions struct {
	nodes  int
	wal    bool          // journal every node with fsync=batch
	gossip time.Duration // anti-entropy period; 0 = none
	tr     *obs.Tracer   // span sink for the servers; nil = untraced
}

// deploy starts the nodes: each a 4-shard store wrapped in a timedStore
// and, with more than one node, a full replication mesh.
func deploy(opt deployOptions) (*deployment, error) {
	dir, err := os.MkdirTemp("", "serve-*")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	d.gossipCtx, d.stopGossip = context.WithCancel(context.Background())
	// Every node needs every peer's URL at construction, so the HTTP
	// servers exist before the branchprofd servers behind them.
	handlers := make([]*switchHandler, opt.nodes)
	for i := range handlers {
		handlers[i] = &switchHandler{}
		ts := httptest.NewServer(handlers[i])
		d.nodes = append(d.nodes, &node{ts: ts})
		d.urls = append(d.urls, ts.URL)
	}
	d.client = newClient(d.urls)
	for i, n := range d.nodes {
		base := filepath.Join(dir, nodeName(i))
		sh, _, err := shardstore.Open(context.Background(), base+".d", store.Options{Shards: 4})
		if err != nil {
			d.close()
			return nil, err
		}
		n.st = &timedStore{checkpointedStore: sh}
		opts := server.Options{Store: n.st}
		if opt.tr != nil {
			opts.Obs = &obs.Obs{Tr: opt.tr}
		}
		if opt.wal {
			opts.WALDir = base + ".wal"
			opts.WALFsync = "batch"
		}
		if opt.nodes > 1 {
			opts.SelfID = nodeName(i)
			for j, u := range d.urls {
				if j != i {
					opts.Peers = append(opts.Peers, u)
				}
			}
		}
		srv, _, err := server.New(opts)
		if err != nil {
			sh.Close(context.Background())
			d.close()
			return nil, err
		}
		n.srv = srv
		handlers[i].set(srv.Handler())
	}
	if opt.gossip > 0 {
		for _, n := range d.nodes {
			d.gossipWG.Add(1)
			go d.gossip(n.srv, opt.gossip)
		}
	}
	return d, nil
}

// gossip is one node's anti-entropy loop: a full sync round with every
// peer each period, until stopGossip.
func (d *deployment) gossip(srv *server.Server, every time.Duration) {
	defer d.gossipWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.gossipCtx.Done():
			return
		case <-t.C:
			srv.SyncNow(d.gossipCtx) //nolint:errcheck // failures show in the repl.sync_errors metric
		}
	}
}

// quiesce stops every gossip loop and waits for them to return.
func (d *deployment) quiesce() {
	d.stopGossip()
	d.gossipWG.Wait()
}

// syncAll runs one anti-entropy round on every node.
func (d *deployment) syncAll(ctx context.Context) error {
	var errs []error
	for _, n := range d.nodes {
		errs = append(errs, n.srv.SyncNow(ctx))
	}
	return errors.Join(errs...)
}

// close stops the gossip, drains every node (final save), closes the
// stores and the HTTP servers, and removes the deployment's files.
func (d *deployment) close() error {
	d.quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, n := range d.nodes {
		if n.srv != nil {
			errs = append(errs, n.srv.Drain(ctx), n.srv.Store().Close(ctx))
		}
	}
	d.client.hc.CloseIdleConnections()
	for _, n := range d.nodes {
		n.ts.Close()
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// storeTimes takes every node's accumulated store timings.
func (d *deployment) storeTimes() (merge, save []time.Duration, mergeBusy, saveBusy, readBusy time.Duration) {
	for _, n := range d.nodes {
		s, b := n.st.merge.take()
		merge, mergeBusy = append(merge, s...), mergeBusy+b
		s, b = n.st.save.take()
		save, saveBusy = append(save, s...), saveBusy+b
		_, b = n.st.read.take()
		readBusy += b
	}
	return merge, save, mergeBusy, saveBusy, readBusy
}

// metrics reads and sums every node's /metrics series.
func (d *deployment) metrics() (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, u := range d.urls {
		status, body, err := d.client.get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: %d", u, status)
		}
		for k, v := range parseProm(body) {
			sum[k] += v
		}
	}
	return sum, nil
}

// engineSample sums the nodes' engine counters and image gauges.
func (d *deployment) engineSample(m map[string]float64) engineSample {
	var t engineSample
	for i, n := range d.nodes {
		// Image gauges are summed across nodes by metrics(); add them
		// once, with the first node's counters.
		hit, miss := 0.0, 0.0
		if i == 0 {
			hit, miss = m["branchprof_engine_image_hits"], m["branchprof_engine_image_misses"]
		}
		t.add(n.srv.Engine().Stats(), hit, miss)
	}
	return t
}

// switchHandler lets a node's URL exist before the server behind it.
type switchHandler struct{ h atomic.Pointer[http.Handler] }

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := sw.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "node starting", http.StatusServiceUnavailable)
}

func (sw *switchHandler) set(h http.Handler) { sw.h.Store(&h) }

// client sends requests to a deployment: to the routing key's home
// node by rendezvous hash, failing over along the key's preference
// order on transport errors and 5xx, and honoring 429 Retry-After.
// It hashes the nodes' stable names (node1, node2, …), not their
// loopback URLs, so a key's home node is the same on every run.
type client struct {
	hc        *http.Client
	names     []string
	urls      map[string]string // name → base URL
	failovers atomic.Int64
	shed      atomic.Int64
}

func newClient(urls []string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	c := &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, names: nodeNames(len(urls)), urls: make(map[string]string)}
	for i, u := range urls {
		c.urls[c.names[i]] = u
	}
	return c
}

func nodeName(i int) string { return fmt.Sprintf("node%d", i+1) }

// nodeNames returns the stable names of an n-node deployment.
func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = nodeName(i)
	}
	return names
}

// maxShedRetries bounds Retry-After loops so a wedged node cannot hang
// the run.
const maxShedRetries = 8

// post sends body to path on key's home node.
func (c *client) post(key, path, ctype string, body []byte) (int, []byte, error) {
	var lastErr error
	for i, name := range route.Order(c.names, key) {
		u := c.urls[name]
		if i > 0 {
			c.failovers.Add(1)
		}
		status, resp, err := c.postNode(u+path, ctype, body)
		if err == nil && status < http.StatusInternalServerError {
			return status, resp, nil
		}
		if err == nil {
			err = fmt.Errorf("%s%s: %d: %.200s", u, path, status, resp)
		}
		lastErr = err
	}
	return 0, nil, lastErr
}

func (c *client) postNode(url, ctype string, body []byte) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.hc.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= maxShedRetries {
			return resp.StatusCode, raw, nil
		}
		c.shed.Add(1)
		wait := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			wait = time.Duration(s) * time.Second
		}
		time.Sleep(wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1)))
	}
}

func (c *client) get(url string) (int, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// request is one scheduled operation.
type request struct {
	kind  string // single, batch, stream, predict or h2p
	key   string // routing key (program@dataset)
	path  string
	ctype string
	body  []byte
	ids   []uint32 // ingest entries carried, in body order (serve-ingest)
	cycle int      // the schedule cycle it belongs to
}

// routes maps request kinds to the server routes they exercise and to
// the prefix of their latency lines in the report.
var routes = []struct{ kind, route, prefix string }{
	{"single", "profile", "profile"},
	{"batch", "profile_batch", "batch"},
	{"stream", "profile_stream", "stream"},
	{"predict", "predict", "predict"},
	{"h2p", "h2p", "h2p"},
}

// reply is one completed operation.
type reply struct {
	kind       string
	cycle      int
	start, end time.Time
	err        error
	acked      []uint32 // ingest entries the server acknowledged
	profile    int      // profiles acknowledged
}

// schedule hands out requests in whole cycles. Once the window has
// elapsed it stops at the next cycle boundary, so every run measures
// complete cycles and its request mix does not depend on where the
// window happened to end.
type schedule struct {
	mu       sync.Mutex
	gen      func(cycle int) []request
	cur      []request
	cycle, i int
	deadline time.Time
}

func (s *schedule) next() (request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.i == len(s.cur) {
		if s.cur != nil && time.Now().After(s.deadline) {
			return request{}, false
		}
		s.cur, s.i = s.gen(s.cycle), 0
		s.cycle++
	}
	r := s.cur[s.i]
	r.cycle = s.cycle - 1
	s.i++
	return r, true
}

// validator checks one response and returns the ingest entries and
// the number of profiles it acknowledged.
type validator func(req request, status int, body []byte) (acked []uint32, profiles int, err error)

// drive runs the closed loop: clients goroutines each send their next
// request once the previous one completed, until the schedule stops.
// tr (nil when untraced) records one span per request.
func drive(cl *client, gen func(cycle int) []request, window time.Duration, tr *obs.Tracer, check validator) ([]reply, time.Duration) {
	start := time.Now()
	s := &schedule{gen: gen, deadline: start.Add(window)}
	var reqID atomic.Int64
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				req, ok := s.next()
				if !ok {
					return
				}
				sp := tr.Start(nil, "client."+req.kind, obs.A("req", reqID.Add(1)), obs.A("key", req.key))
				r := reply{kind: req.kind, cycle: req.cycle, start: time.Now()}
				status, body, err := cl.post(req.key, req.path, req.ctype, req.body)
				r.end = time.Now()
				if err == nil {
					r.acked, r.profile, err = check(req, status, body)
				}
				r.err = err
				sp.SetError(err)
				sp.End()
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reply
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, elapsed
}

// replyWindow converts replies into the generic window record, cut
// into slices of sliceCycles whole schedule cycles (a trailing partial
// slice is dropped unless it is the only one).
func replyWindow(replies []reply, elapsed time.Duration, sliceCycles int) *window {
	w := &window{unit: "requests", sliceUnit: fmt.Sprintf("%d request cycles", sliceCycles), elapsed: elapsed}
	cycles := 0
	for i, r := range replies {
		w.lat = append(w.lat, r.end.Sub(r.start))
		if r.err != nil {
			w.failedIdx = append(w.failedIdx, i)
		}
		cycles = max(cycles, r.cycle+1)
	}
	n := cycles / sliceCycles
	if n == 0 {
		n, sliceCycles = 1, max(cycles, 1)
	}
	// A slice lasts from the previous slice's last completion to its own
	// last completion, so the slices partition the window's time even
	// though the two clients' requests overlap at cycle boundaries.
	ends := make([]time.Time, n)
	start := time.Time{}
	w.slices = make([]slice, n)
	for _, r := range replies {
		if start.IsZero() || r.start.Before(start) {
			start = r.start
		}
		i := r.cycle / sliceCycles
		if i >= n {
			continue
		}
		s := &w.slices[i]
		if r.err != nil {
			s.lat = append(s.lat, math.Inf(1))
		} else {
			s.lat = append(s.lat, float64(r.end.Sub(r.start))/float64(time.Millisecond))
			s.completed++
		}
		if r.end.After(ends[i]) {
			ends[i] = r.end
		}
	}
	prev := start
	for i := range w.slices {
		if ends[i].After(prev) {
			w.slices[i].dur = ends[i].Sub(prev)
			prev = ends[i]
		}
	}
	return w
}

// serveEndToEnd reports the serve workloads' per-route latencies and
// profile throughput beside the generic end-to-end metrics.
func (h *harness) serveEndToEnd(replies []reply, elapsed time.Duration) {
	profiles, failed := 0, 0
	var firstErr error
	for _, r := range replies {
		profiles += r.profile
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	h.info("profiles_per_s", ratio(float64(profiles), elapsed.Seconds()), "1/s",
		fmt.Sprintf("%d acknowledged profiles in %.3fs", profiles, elapsed.Seconds()))
	for _, rt := range routes {
		lat := kindLatencies(replies, rt.kind)
		if len(lat) == 0 {
			continue
		}
		h.info(rt.prefix+"_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d", len(lat)))
		if v, ok := percentile(lat, 0.90); ok {
			h.info(rt.prefix+"_p90_ms", v, "ms", fmt.Sprintf("n=%d", len(lat)))
		} else {
			h.info(rt.prefix+"_p90_ms", v, "ms", fmt.Sprintf("n=%d: fewer than %d samples beyond it", len(lat), minTail))
		}
	}
	if firstErr != nil {
		h.check("requests", false, fmt.Sprintf("%d failed; first: %v", failed, firstErr))
	}
}

// kindLatencies returns the latencies (ms) of one request kind.
func kindLatencies(replies []reply, kind string) []float64 {
	var out []float64
	for _, r := range replies {
		if r.kind == kind {
			out = append(out, float64(r.end.Sub(r.start))/float64(time.Millisecond))
		}
	}
	return out
}

// serveLayers reports the server, store, journal, replication and
// engine layers over a traced window, from the client's replies, the
// store decorator, and the /metrics deltas m1 − m0.
func (h *harness) serveLayers(d *deployment, replies []reply, elapsed time.Duration, m0, m1 map[string]float64, e0, e1 engineSample) {
	for _, rt := range routes {
		lat := kindLatencies(replies, rt.kind)
		h.info("server."+rt.route+".requests", float64(len(lat)), "count", "window total")
		if v, ok := percentile(lat, 0.99); ok {
			h.info("server."+rt.route+".p99_ms", v, "ms", fmt.Sprintf("n=%d", len(lat)))
		} else if len(lat) > 0 {
			h.info("server."+rt.route+".p99_ms", v, "ms", fmt.Sprintf("n=%d: fewer than %d samples beyond it", len(lat), minTail))
		}
	}
	h.layerMetric("server.shed_429", float64(d.client.shed.Load()), "count", "429s retried after Retry-After")
	h.layerMetric("server.failovers", float64(d.client.failovers.Load()), "count", "requests sent past the home node")

	reqs, profiles := float64(len(replies)), 0.0
	for _, r := range replies {
		profiles += float64(r.profile)
	}
	merge, save, mergeBusy, saveBusy, readBusy := d.storeTimes()
	wall := elapsed.Seconds()
	h.info("store.merge_calls", float64(len(merge)), "count", "Merge and Put, all nodes")
	h.info("store.merge_p50_us", 1e3*median(ms(merge)), "us", fmt.Sprintf("n=%d", len(merge)))
	h.info("store.merge_busy_s", mergeBusy.Seconds(), "s", "summed across callers")
	h.info("store.save_calls", float64(len(save)), "count", "all nodes")
	h.info("store.save_p50_ms", median(ms(save)), "ms", fmt.Sprintf("n=%d", len(save)))
	h.info("store.save_busy_s", saveBusy.Seconds(), "s", "summed across callers")
	h.info("store.read_busy_s", readBusy.Seconds(), "s", "Get, Keys and Snapshot, summed across callers")
	h.layerMetric("store.merge_busy_frac", ratio(mergeBusy.Seconds(), wall), "frac", "busy seconds per wall second")
	h.layerMetric("store.save_busy_frac", ratio(saveBusy.Seconds(), wall), "frac", "busy seconds per wall second")
	h.layerMetric("store.read_busy_frac", ratio(readBusy.Seconds(), wall), "frac", "busy seconds per wall second")
	h.layerMetric("store.saves_per_request", ratio(float64(len(save)), reqs), "count", fmt.Sprintf("%d saves / %.0f requests", len(save), reqs))

	delta := func(series string) float64 { return m1[series] - m0[series] }
	appends, syncs := delta("branchprofd_wal_appends_total"), delta("branchprofd_wal_syncs_total")
	h.info("wal.appends", appends, "count", "all nodes")
	h.info("wal.syncs", syncs, "count", "all nodes")
	h.layerMetric("wal.syncs_per_request", ratio(syncs, reqs), "count", fmt.Sprintf("%.0f fsyncs / %.0f requests", syncs, reqs))
	h.layerMetric("wal.appends_per_profile", ratio(appends, profiles), "count", fmt.Sprintf("%.0f appends / %.0f profiles", appends, profiles))

	var syncOK, syncErr, pulled float64
	for series, v := range m1 {
		switch {
		case hasPrefixLabel(series, "branchprofd_repl_sync_total", `result="ok"`):
			syncOK += v - m0[series]
		case hasPrefixLabel(series, "branchprofd_repl_sync_total", `result="error"`):
			syncErr += v - m0[series]
		case hasPrefixLabel(series, "branchprofd_repl_pulled_total", ""):
			pulled += v - m0[series]
		}
	}
	h.info("repl.syncs", syncOK, "count", "successful peer rounds, all nodes")
	h.info("repl.pulled", pulled, "count", "components applied, all nodes")
	h.layerMetric("repl.pulled_per_s", ratio(pulled, wall), "1/s", fmt.Sprintf("%.0f components in %.3fs", pulled, wall))
	h.layerMetric("repl.sync_errors", syncErr, "count", "failed peer rounds, all nodes")

	h.engineLayers(e1.minus(e0), reqs, elapsed)
}

// hasPrefixLabel reports whether series is of metric name and carries
// label (any labels when label is empty).
func hasPrefixLabel(series, name, label string) bool {
	return strings.HasPrefix(series, name+"{") && strings.Contains(series, label)
}

// serveWorkload is what distinguishes serve-ingest from serve-cluster.
type serveWorkload interface {
	// deploy starts the workload's nodes and preloads their keys.
	deploy(tr *obs.Tracer) (*deployment, error)
	// cycle returns the n-th cycle of the seeded request mix.
	cycle(n int) []request
	// check validates one response (see validator).
	check(req request, status int, body []byte) ([]uint32, int, error)
	// verify checks the deployment's state after a window.
	verify(h *harness, d *deployment, replies []reply) error
}

// runServe sets the workload up three times, measures an
// untraced window on the last deployment and, with -trace 1, a traced
// window on a fresh traced deployment. The end-to-end metrics are taken
// over slices of sliceCycles schedule cycles.
func runServe(h *harness, w serveWorkload, sliceCycles int) error {
	var setup []time.Duration
	var d *deployment
	for r := 0; r < h.cfg.setupReps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return fmt.Errorf("setup: closing: %w", err)
			}
		}
		dur, err := timed(func() (err error) {
			d, err = w.deploy(nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, dur)
	}

	// measure drives one window on d and checks it. The replies are
	// dropped before the heap is measured, so heap_retained_mb counts
	// the servers' state, not the harness's record of the window.
	measure := func(d *deployment, tr *obs.Tracer) (*window, error) {
		m0, err := d.metrics()
		if err != nil {
			return nil, err
		}
		e0 := d.engineSample(m0)
		d.storeTimes()
		d.client.failovers.Store(0)
		d.client.shed.Store(0)
		alloc0 := totalAllocMB()
		replies, elapsed := drive(d.client, w.cycle, h.cfg.window, tr, w.check)
		win := replyWindow(replies, elapsed, sliceCycles)
		win.allocMB = totalAllocMB() - alloc0
		h.ops(int64(len(win.lat)), int64(len(win.failedIdx)))
		m1, err := d.metrics()
		if err != nil {
			return nil, err
		}
		h.serveEndToEnd(replies, elapsed)
		if tr != nil {
			h.section("per layer (traced window)")
			h.serveLayers(d, replies, elapsed, m0, m1, e0, d.engineSample(m1))
		}
		if err := w.verify(h, d, replies); err != nil {
			return nil, err
		}
		replies = nil
		d.storeTimes()
		win.heapMB = heapRetainedMB()
		return win, nil
	}

	h.section("end to end (untraced window)")
	win, err := measure(d, nil)
	if err == nil {
		h.endToEnd(setup, win)
	}
	if cerr := d.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil || !h.cfg.trace {
		return err
	}

	td, err := w.deploy(h.tr)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	twin, err := measure(td, h.tr)
	if err == nil {
		h.traceOverhead(win, twin)
	}
	if cerr := td.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	return err
}
